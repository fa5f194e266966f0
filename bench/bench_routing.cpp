// E2-E5 — the routing theorems, verified by two engines.
//
//   E2 (Theorem 2): 6 a^k-routing between In and Out of G_k.
//   E3 (Lemma 3):   2 n0^k-routing of chains for guaranteed deps.
//   E4 (Lemma 4):   every chain reused exactly 3 n0^k times.
//   E5 (Claim 1):   |D_1| * max(a,b)^k-routing in the decoding graph.
//
// The brute engine enumerates every path (the oracle); the memoized
// engine (routing/memo_routing.hpp) fills the same hit arrays from the
// closed forms on a canonical G_k copy. Where both engines run, the
// full per-vertex arrays are compared bit for bit and the memo record
// carries counts_bit_identical plus the measured speedup. Every memo
// chain row also sets Theorem 2's array aggregation
// (full_routing_from_chain_counts) against the digit-state DP
// (verify_full_routing on cdag::ExplicitView). Any divergence or bound
// violation makes the bench exit nonzero, so CI can run it as a perf
// smoke test (--engine=memo --kmax=N under timeout). The records go
// through routing::fill_routing_record, the writer pr_bench_gate
// re-derives them with; the implicit engine's records are
// bench_implicit's.
//
// Flags:
//   --engine=both|memo|brute   which engines (default both)
//   --kmax=N                   cap every case's k (0 = per-case table)
//   --kmax-brute=N             cap only the brute engine's k
//   --full-catalog             add every catalog algorithm at k <= 3
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/workload.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

struct Case {
  std::string name;
  int kmax_brute;
  int kmax_memo;
};

/// --full-catalog: every catalog algorithm at k <= 3 (capped so the
/// CDAG stays under ~4M vertices), appended after the headline cases.
void add_catalog_cases(std::vector<Case>& cases, int kmax,
                       bool decode_only) {
  for (const std::string& name : bilinear::catalog_names()) {
    if (std::any_of(cases.begin(), cases.end(),
                    [&](const Case& c) { return c.name == name; })) {
      continue;
    }
    const auto alg = bilinear::by_name(name);
    if (decode_only && bilinear::decoding_components(alg) != 1) continue;
    int k = kmax;
    while (k > 1 &&
           cdag::Layout(alg.n0(), alg.b(), k).num_vertices() > 4000000) {
      --k;
    }
    cases.push_back({name, k, k});
  }
}

/// The brute-force oracle's row: every chain (or zig-zag) enumerated.
routing::RoutingPoint run_brute_point(routing::RoutingSpec spec,
                                      const routing::ChainRouter& router,
                                      const routing::DecodeRouter* decoder,
                                      const cdag::SubComputation& sub) {
  routing::RoutingPoint run;
  spec.engine = routing::EngineKind::kBrute;
  run.spec = spec;
  const bench::Stopwatch timer;
  if (spec.decode) {
    run.hits = routing::count_decode_hits(*decoder, sub);
    run.decode = routing::decode_stats_from_hits(*decoder, sub, run.hits);
  } else {
    routing::ChainHitCounts counts = routing::count_chain_hits(router, sub);
    run.chain.l3 = routing::chain_stats_from_counts(counts, sub);
    run.chain.l4 = routing::verify_chain_multiplicities(router, sub);
    run.chain.t2 = routing::full_routing_from_chain_counts(sub, counts);
    run.hits = std::move(counts.hits);
  }
  run.seconds = timer.seconds();
  return run;
}

/// The headline verdict of a row: Lemma 3 for chains, Claim 1 for
/// decode.
const routing::HitStats& headline(const routing::RoutingPoint& run) {
  return run.spec.decode ? run.decode : run.chain.l3;
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::string engine =
      cli.flag_str("engine", "both", "both|memo|brute: which engines run");
  const auto kmax = static_cast<int>(
      cli.flag_int("kmax", 0, "cap every case's k (0 = per-case table)"));
  const auto kmax_brute = static_cast<int>(
      cli.flag_int("kmax-brute", 0, "cap only the brute engine's k"));
  const bool full_catalog = cli.flag_bool(
      "full-catalog", false, "add every catalog algorithm at k <= 3");
  cli.finish(
      "E2-E5: Lemma 3, Lemma 4, Theorem 2 and Claim 1, verified by the "
      "brute-force oracle and the memoized engine.");
  if (engine != "both" && engine != "memo" && engine != "brute") {
    std::fprintf(stderr,
                 "bench_routing: unknown engine \"%s\" (valid engines: "
                 "both, memo, brute)\n",
                 engine.c_str());
    return 2;
  }
  // A case with the CLI caps applied per engine.
  const auto capped = [&](Case c) {
    if (kmax > 0) {
      c.kmax_brute = std::min(c.kmax_brute, kmax);
      c.kmax_memo = std::min(c.kmax_memo, kmax);
    }
    if (kmax_brute > 0) c.kmax_brute = std::min(c.kmax_brute, kmax_brute);
    if (engine == "memo") c.kmax_brute = 0;
    if (engine == "brute") c.kmax_memo = 0;
    return c;
  };
  bool failed = false;
  bench::BenchJson json("routing_memo");

  for (const bool decode : {false, true}) {
    std::vector<Case> cases;
    if (decode) {
      bench::print_banner(
          "E5: Claim 1 — the decoding-graph routing of Section 5",
          "Claim: for bases with a connected decoding graph there is an\n"
          "(|D_1| * max(a,b)^k)-routing between the inputs and outputs of "
          "D_k\n(11 * 7^k for Strassen). The brute engine enumerates every\n"
          "zig-zag; the memoized engine fills the array from the D_1 visit\n"
          "tables.");
      cases = {{"strassen", 5, 6}, {"winograd", 5, 6}, {"laderman", 3, 4}};
    } else {
      bench::print_banner(
          "E2/E3/E4: Lemma 3, Lemma 4 and the Routing Theorem (Theorem 2)",
          "Claim: chains for all guaranteed dependencies hit every vertex "
          "at\nmost 2 n0^k times; the Lemma-4 concatenation uses every "
          "chain\nexactly 3 n0^k times; the composed routing hits every "
          "vertex and\nevery meta-vertex at most 6 a^k times. The memoized "
          "engine must\nreproduce the brute-force hit arrays bit for bit.");
      cases = {{"strassen", 6, 7},
               {"winograd", 6, 7},
               {"laderman", 3, 4},
               {"strassen_squared", 3, 3},
               {"strassen_x_classical2", 3, 3}};
    }
    if (full_catalog) add_catalog_cases(cases, 3, decode);
    support::Table table(
        decode ? std::vector<std::string>{"algorithm", "k", "engine", "paths",
                                          "max hits", "bound", "slack", "ok",
                                          "sec", "speedup"}
               : std::vector<std::string>{"algorithm", "k", "engine",
                                          "chains", "L3 max", "L3 bound",
                                          "L4 exact", "T2 max", "T2 meta",
                                          "T2 bound", "ok", "sec", "speedup"});

    for (const Case& raw : cases) {
      const Case c = capped(raw);
      const auto alg = bilinear::by_name(c.name);
      const routing::ChainRouter router(alg);
      const routing::MemoRoutingEngine memo(router);
      std::optional<routing::DecodeRouter> decoder;
      if (decode) decoder.emplace(alg);
      for (int k = 1; k <= std::max(c.kmax_brute, c.kmax_memo); ++k) {
        const cdag::Cdag graph(alg, k, {.with_coefficients = false});
        const cdag::SubComputation sub(graph, k, 0);
        const routing::RoutingSpec spec{decode, c.name, k,
                                        routing::EngineKind::kMemo};
        std::optional<routing::RoutingPoint> brute, memo_run;
        if (k <= c.kmax_brute) {
          brute = run_brute_point(spec, router, decoder ? &*decoder : nullptr,
                                  sub);
        }
        if (k <= c.kmax_memo) {
          memo_run = routing::run_memo_point(spec, sub);
          // Theorem 2 both ways: the array aggregation the record carries
          // against the digit-state DP, the verdict engine everywhere
          // else.
          if (!decode && !(memo_run->chain.t2 == memo.verify_full_routing(sub))) {
            std::fprintf(stderr,
                         "DIVERGENCE: %s k=%d Theorem-2 array aggregation "
                         "differs from the digit-state DP\n",
                         c.name.c_str(), k);
            failed = true;
          }
        }

        for (const std::optional<routing::RoutingPoint>* slot :
             {&brute, &memo_run}) {
          if (!slot->has_value()) continue;
          const routing::RoutingPoint& run = **slot;
          const routing::HitStats& stats = headline(run);
          auto& rec = json.add_record();
          routing::fill_routing_record(run, rec);
          rec.set("seconds", run.seconds)
              .set("max_rss_bytes", obs::max_rss_bytes());
          std::string speed = "-";
          if (slot == &memo_run && brute) {
            const bool identical =
                run.hits == brute->hits && stats == headline(*brute);
            const double speedup =
                run.seconds > 0 ? brute->seconds / run.seconds : 0.0;
            rec.set("counts_bit_identical", identical)
                .set("speedup", speedup);
            speed = fmt_fixed(speedup, 1) + "x";
            if (!identical) {
              std::fprintf(stderr,
                           "DIVERGENCE: %s k=%d memo %s counts differ from "
                           "brute\n",
                           c.name.c_str(), k, decode ? "decode" : "chain");
              failed = true;
            }
          }
          if (!run.ok()) failed = true;
          std::vector<std::string> row = {
              c.name, std::to_string(k), routing::engine_name(run.spec.engine),
              fmt_count(stats.num_paths), fmt_count(stats.max_hits),
              fmt_count(stats.bound)};
          if (decode) {
            row.push_back(fmt_fixed(static_cast<double>(stats.bound) /
                                        static_cast<double>(stats.max_hits),
                                    1));
          } else {
            const routing::ChainVerdicts& v = run.chain;
            row.insert(row.end(), {v.l4 ? "yes" : "NO",
                                   fmt_count(v.t2.max_vertex_hits),
                                   fmt_count(v.t2.max_meta_hits),
                                   fmt_count(v.t2.bound)});
          }
          row.insert(row.end(), {run.ok() ? "OK" : "VIOLATED",
                                 fmt_fixed(run.seconds, 2), speed});
          table.add_row(std::move(row));
        }
      }
    }
    table.print(std::cout);
  }

  // With PR_OBS=1 in the environment the run was traced; PR_TRACE_OUT
  // dumps the spans as a chrome://tracing file and PR_METRICS_OUT the
  // obs counters in the BENCH record schema (see README
  // "Observability").
  obs::write_env_outputs("routing_metrics", bench::git_commit());

  if (failed) {
    std::fprintf(stderr,
                 "bench_routing: FAILED (divergence or bound violation)\n");
    return 1;
  }
  return 0;
}
