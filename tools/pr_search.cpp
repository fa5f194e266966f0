// pr_search: run the schedule-space optimizer on one catalog point and
// print the full pipeline — DFS / BFS baselines, local search, branch-
// and-bound, the root lower bound, and the certification verdict. The
// tool then audits its own certificate with search.certified-optimal
// and exits nonzero if the rule fires, so a scripted sweep cannot
// silently record an unsound claim.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "pathrouting/audit/diagnostic.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

int main(int argc, char** argv) {
  using namespace pathrouting;

  support::Cli cli(argc, argv);
  search::SweepSpec spec;
  spec.algorithm = cli.flag_str("alg", "strassen", "catalog algorithm name");
  spec.r = static_cast<int>(cli.flag_int("r", 1, "recursion depth"));
  spec.m = static_cast<std::uint64_t>(
      cli.flag_int("m", 8, "cache size M, in values"));
  spec.node_budget = static_cast<std::uint64_t>(cli.flag_int(
      "budget", 100000, "branch-and-bound node budget (0 = unbounded)"));
  spec.seed =
      static_cast<std::uint64_t>(cli.flag_int("seed", 1, "local-search seed"));
  spec.ls_rounds = static_cast<std::uint64_t>(
      cli.flag_int("ls-rounds", 16, "local-search rounds"));
  spec.ls_moves = static_cast<std::uint64_t>(
      cli.flag_int("ls-moves", 64, "local-search moves per round"));
  cli.finish(
      "Branch-and-bound schedule search over red-blue pebblings of a "
      "catalog CDAG G_r (experiment E20).");

  // Validate at the CLI surface: bad inputs are exit-2 one-liners, not
  // library-precondition aborts.
  if (const std::string error = search::spec_error(spec); !error.empty()) {
    std::fprintf(stderr, "pr_search: %s\n", error.c_str());
    return 2;
  }

  const search::SweepPoint point = search::run_search_point(spec);

  support::Table table({"schedule", "I/O"});
  table.add_row({"bfs", std::to_string(point.bfs_io)});
  table.add_row({"dfs", std::to_string(point.dfs_io)});
  table.add_row({"local search", std::to_string(point.local_io)});
  table.add_row({"branch-and-bound", std::to_string(point.searched_io)});
  table.add_row({"lower bound", std::to_string(point.lower_bound)});
  table.print(std::cout);
  std::cout << "\n"
            << spec.algorithm << " r=" << spec.r << " M=" << spec.m << ": "
            << point.num_vertices << " vertices, "
            << point.scheduled_vertices << " scheduled; best I/O "
            << point.searched_io << " = " << point.searched_reads
            << " reads + " << point.searched_writes << " writes\n"
            << "search: " << point.nodes_expanded << " expanded, "
            << point.nodes_pruned << " pruned, " << point.leaves_scored
            << " leaves scored, " << point.moves_accepted
            << " local moves accepted\n"
            << "verdict: "
            << (point.certified ? "CERTIFIED OPTIMAL" : "not certified")
            << " (proof: " << search::proof_name(point.proof)
            << ", graph fnv " << point.graph_fnv << ", witness fnv "
            << point.witness_fnv << ")\n";

  // Self-audit the certificate this run just produced.
  const audit::AuditReport report = search::audit_point(point);
  if (!report.ok()) {
    std::cerr << report.to_text() << "pr_search: certificate audit FAILED\n";
    return EXIT_FAILURE;
  }
  std::cout << "certificate audit: clean (search.certified-optimal)\n";
  return EXIT_SUCCESS;
}
