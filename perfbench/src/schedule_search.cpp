// schedule-search: the E20 catalog points (strassen / winograd /
// classical2 at r = 1, strassen at r = 2, several M). Each point runs
// the DFS and BFS baselines through the pebble game, the admissible
// root bound, the seeded local search from the DFS order, and
// branch-and-bound seeded with the local-search incumbent under a fixed
// node budget — so every count is a pure function of the seed. Each
// pass draws fresh local-search seeds from the run seed, so a run's
// medians average over many search trajectories.
//
// Here the pebble game runs thousands of times on graphs of about 100
// vertices: the opposite regime from io-pipeline, where a simulator
// that trades per-call set-up for per-step speed would show as a
// slowdown.
#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/search/local_search.hpp"
#include "pathrouting/search/optimizer.hpp"

namespace perfbench {

namespace {

using namespace pathrouting;  // NOLINT

struct Point {
  const char* algorithm;
  int r;
  std::uint64_t m;
  std::uint64_t budget;
};

// The E20 matrix (bench/bench_schedule_search.cpp), budgets included.
constexpr Point kPoints[] = {
    {"strassen", 1, 6, 40000},   {"strassen", 1, 8, 40000},
    {"strassen", 1, 12, 40000},  {"strassen", 1, 16, 40000},
    {"strassen", 1, 24, 40000},  {"strassen", 1, 40, 40000},
    {"classical2", 1, 4, 40000}, {"classical2", 1, 6, 40000},
    {"classical2", 1, 8, 40000}, {"classical2", 1, 12, 40000},
    {"classical2", 1, 36, 40000},
    {"winograd", 1, 8, 40000},   {"winograd", 1, 40, 40000},
    {"strassen", 2, 16, 4000},   {"strassen", 2, 64, 4000},
    {"strassen", 2, 300, 4000},
};
constexpr std::uint64_t kLocalRounds = 16;
constexpr std::uint64_t kLocalMoves = 64;
constexpr int kSetupReps = 51;

struct Instance {
  std::optional<bilinear::BilinearAlgorithm> alg;
  std::optional<cdag::Cdag> cdag;
  std::vector<std::uint8_t> output_mask;
};

class ScheduleSearch final : public Workload {
 public:
  double setup(const RunOptions& /*options*/) override {
    std::vector<double> reps;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const Clock::time_point start = Clock::now();
      graphs_.clear();
      for (const Point& p : kPoints) {
        const std::string key = std::string(p.algorithm) + "/" +
                                std::to_string(p.r);
        if (graphs_.count(key) != 0) continue;
        Instance& g = graphs_[key];
        g.alg.emplace(bilinear::by_name(p.algorithm));
        {
          const LayerCall call("cdag:build", cdag_build_);
          g.cdag.emplace(*g.alg, p.r,
                         cdag::CdagOptions{.with_coefficients = false});
        }
        const cdag::Graph& graph = g.cdag->graph();
        g.output_mask.assign(graph.num_vertices(), 0);
        for (cdag::VertexId v = 0; v < graph.num_vertices(); ++v) {
          g.output_mask[v] = g.cdag->layout().is_output(v) ? 1 : 0;
        }
      }
      reps.push_back(seconds_since(start));
    }
    return median(reps);
  }

  PhaseResult run_phase(const RunOptions& options, double seconds) override;

 private:
  const Instance& graph_of(const Point& p) const {
    return graphs_.at(std::string(p.algorithm) + "/" + std::to_string(p.r));
  }

  std::map<std::string, Instance> graphs_;
  LayerTotals cdag_build_;
};

PhaseResult ScheduleSearch::run_phase(const RunOptions& options,
                                      double seconds) {
  PhaseResult out;
  LayerTotals dfs_t, bfs_t, belady_t, root_t, local_t, bnb_t;
  std::uint64_t sims = 0, steps = 0;
  std::uint64_t moves_evaluated = 0, moves_accepted = 0;
  std::uint64_t nodes_expanded = 0, nodes_pruned = 0, leaves_scored = 0;
  std::vector<double> bnb_pass_seconds, gaps, certified_counts;
  double audit = 0;
  const Clock::time_point phase_start = Clock::now();

  for (std::uint64_t pass = 0;
       another_pass_fits(phase_start, out.pass_seconds.size(), seconds);
       ++pass) {
    const Clock::time_point pass_start = Clock::now();
    double pass_audit = 0;
    std::map<std::string, std::uint64_t> exact;
    std::uint64_t gap = 0, certified = 0, pass_io = 0;
    const double bnb_before = bnb_t.seconds;
    for (std::size_t i = 0; i < std::size(kPoints); ++i) {
      const Clock::time_point point_start = Clock::now();
      const Point& p = kPoints[i];
      const Instance& g = graph_of(p);
      const cdag::Graph& graph = g.cdag->graph();
      const std::function<bool(cdag::VertexId)> is_output =
          [&g](cdag::VertexId v) { return g.output_mask[v] != 0; };
      const pebble::PebbleOptions pebble_opts{.cache_size = p.m};

      std::vector<cdag::VertexId> dfs, bfs;
      {
        const LayerCall call("schedule:dfs", dfs_t);
        dfs = schedule::dfs_schedule(*g.cdag);
      }
      {
        const LayerCall call("schedule:bfs", bfs_t);
        bfs = schedule::bfs_schedule(*g.cdag);
      }
      pebble::PebbleResult dfs_sim, bfs_sim;
      {
        const LayerCall call("pebble:belady", belady_t);
        dfs_sim = pebble::simulate(graph, dfs, pebble_opts, is_output);
      }
      {
        const LayerCall call("pebble:belady", belady_t);
        bfs_sim = pebble::simulate(graph, bfs, pebble_opts, is_output);
      }
      sims += 2;
      steps += dfs_sim.steps + bfs_sim.steps;

      const std::uint64_t theorem1 =
          bounds::theorem1_io_lower_bound(g.alg->a(), g.alg->b(), p.r, p.m);
      std::uint64_t root = 0;
      {
        const LayerCall call("bounds:root_bound", root_t);
        root = std::max(bounds::partial_schedule_lower_bound(graph, {}, p.m,
                                                             is_output)
                            .total(),
                        theorem1);
      }

      search::LocalSearchResult local;
      {
        const LayerCall call("search:local", local_t);
        local = search::improve_schedule(
            graph, dfs,
            {.cache_size = p.m,
             .seed = mix_seed(mix_seed(options.seed, pass), i),
             .max_rounds = kLocalRounds,
             .moves_per_round = kLocalMoves},
            is_output);
      }
      search::SearchOptions search_opts;
      search_opts.cache_size = p.m;
      search_opts.node_budget = p.budget;
      search_opts.extra_lower_bound = theorem1;
      search_opts.initial_incumbent = local.schedule;
      search::SearchResult result;
      {
        const LayerCall call("search:bnb", bnb_t);
        result = search::branch_and_bound(graph, search_opts, is_output);
      }
      moves_evaluated += local.moves_evaluated;
      moves_accepted += local.moves_accepted;
      nodes_expanded += result.nodes_expanded;
      nodes_pruned += result.nodes_pruned;
      leaves_scored += result.leaves_scored;
      const std::string id = std::to_string(i);
      out.step_seconds["point" + id].push_back(seconds_since(point_start));

      // Checks: the search.certified-optimal audit of the witness, the
      // pipeline order, and the root bound the search reports.
      const Clock::time_point check_start = Clock::now();
      audit::SearchCertificateView cert;
      cert.graph = &graph;
      cert.schedule = result.best_schedule;
      cert.output_mask = g.output_mask;
      cert.cache_size = p.m;
      cert.claimed_io = result.best_io;
      cert.claimed_lower_bound = result.lower_bound;
      cert.claims_bound_met_optimal = result.proof == search::Proof::kBoundMet;
      cert.theorem1_a = static_cast<std::uint64_t>(g.alg->a());
      cert.theorem1_b = static_cast<std::uint64_t>(g.alg->b());
      cert.theorem1_r = p.r;
      const audit::AuditReport report = audit::audit_search_certificate(cert);
      const std::string at = std::string(" (") + p.algorithm + " r=" +
                             std::to_string(p.r) + " M=" + std::to_string(p.m) +
                             ")";
      out.ledger.begin();
      out.ledger.check(report.ok(), "search.certified-optimal audit" + at);
      out.ledger.check(search_costs_ordered(result.lower_bound, result.best_io,
                                            local.io, dfs_sim.io()),
                       "not lower_bound <= searched <= local <= dfs" + at);
      out.ledger.check(result.lower_bound == root,
                       "search root bound differs from the bounds layer" + at);
      pass_audit += seconds_since(check_start);

      gap += result.best_io - std::min(result.best_io, result.lower_bound);
      certified += result.certified ? 1 : 0;
      pass_io += result.best_io;
      exact["point" + id + ".searched_io"] = result.best_io;
      exact["point" + id + ".nodes_expanded"] = result.nodes_expanded;
      exact["point" + id + ".local_io"] = local.io;
      exact["point" + id + ".dfs_io"] = dfs_sim.io();
    }
    bnb_pass_seconds.push_back(bnb_t.seconds - bnb_before);
    exact["search_gap_io"] = gap;
    exact["certified_points"] = certified;
    exact["searched_io"] = pass_io;

    const Clock::time_point check_start = Clock::now();
    out.record_pass_counts(exact);
    gaps.push_back(static_cast<double>(gap));
    certified_counts.push_back(static_cast<double>(certified));
    out.ledger.begin();
    // Mutation self-check: a searched cost pushed below its lower bound
    // must be rejected by the ordering checker.
    out.ledger.check(!search_costs_ordered(2, 1, 1, 1),
                     "mutation self-check: a cost below its bound passed");
    pass_audit += seconds_since(check_start);
    audit += pass_audit;
    out.end_pass(seconds_since(pass_start) - pass_audit);
  }

  const double passes = static_cast<double>(out.pass_seconds.size());
  out.audit_seconds = audit;
  // Branch-and-bound nodes expanded per second of a typical pass.
  const double bnb_median_s = median(bnb_pass_seconds);
  out.work_per_s = bnb_median_s > 0
                       ? static_cast<double>(nodes_expanded) / passes /
                             bnb_median_s
                       : 0;
  out.headline.set("search_gap_io", "count", median(gaps));
  out.headline.set("certified_points", "count", median(certified_counts));

  MetricSet& l = out.layers;
  l.set("pebble.simulate_s", "s", belady_t.seconds / passes);
  l.set("pebble.belady_s", "s", belady_t.seconds / passes);
  l.set("pebble.lru_s", "s", 0);
  l.set("pebble.calls", "count", static_cast<double>(sims) / passes);
  l.set("pebble.steps", "count", static_cast<double>(steps) / passes);
  l.set("pebble.ns_per_step", "ns",
        steps > 0 ? belady_t.seconds * 1e9 / static_cast<double>(steps) : 0);
  l.set("bounds.root_bound_s", "s", root_t.seconds / passes);
  l.set("search.local_s", "s", local_t.seconds / passes);
  l.set("search.moves_evaluated", "count",
        static_cast<double>(moves_evaluated) / passes);
  l.set("search.accept_ratio", "ratio",
        moves_evaluated > 0 ? static_cast<double>(moves_accepted) /
                                  static_cast<double>(moves_evaluated)
                            : 0);
  l.set("search.bnb_s", "s", bnb_t.seconds / passes);
  l.set("search.nodes_expanded", "count",
        static_cast<double>(nodes_expanded) / passes);
  l.set("search.prune_ratio", "ratio",
        nodes_expanded + nodes_pruned > 0
            ? static_cast<double>(nodes_pruned) /
                  static_cast<double>(nodes_expanded + nodes_pruned)
            : 0);
  l.set("search.leaves_scored", "count",
        static_cast<double>(leaves_scored) / passes);
  l.set("search.nodes_per_s", "1/s",
        bnb_t.seconds > 0 ? static_cast<double>(nodes_expanded) / bnb_t.seconds
                          : 0);
  l.set("cdag.build_s", "s",
        cdag_build_.calls > 0 ? cdag_build_.seconds /
                                    static_cast<double>(cdag_build_.calls)
                              : 0);
  l.set("schedule.dfs_s", "s", dfs_t.seconds / passes);
  l.set("schedule.bfs_s", "s", bfs_t.seconds / passes);
  return out;
}

}  // namespace

bool search_costs_ordered(std::uint64_t lower_bound, std::uint64_t searched,
                          std::uint64_t local, std::uint64_t dfs) {
  return lower_bound <= searched && searched <= local && local <= dfs;
}

std::unique_ptr<Workload> make_schedule_search() {
  return std::make_unique<ScheduleSearch>();
}

}  // namespace perfbench
