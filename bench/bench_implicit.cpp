// E17 — Implicit-CDAG scaling: constant-memory verification at k = 10.
//
// The explicit G_r for Strassen at k = 10 has ~2.0e9 vertices — the
// CSR arrays alone would need tens of GiB. The implicit engine
// (cdag::ImplicitCdag + MemoRoutingEngine's view overloads) certifies
// the Lemma-3 / Lemma-4 / Theorem-2 chain routing and the Claim-1
// decode routing at that size from O(k * b * #digit-states) state.
//
// It runs Strassen k = 1..kmax and the classical2 (x) strassen hybrid
// at matching problem sizes (n0 = 4, so k/2 ranks reach the same n)
// with NO explicit graph ever built, then asserts the process peak RSS
// stayed under 2 GiB — the headline bounded-memory claim of the
// implicit representation. The verifiers are the engine's only
// implementation; tests/test_memo_routing checks them against the
// brute-force oracle.
//
// Every point runs through routing::run_routing_point and is written
// by routing::fill_routing_record, the pair pr_bench_gate re-derives
// BENCH_implicit_cdag.json with. Exits nonzero on any bound violation
// or RSS breach, so the implicit-perfsmoke ctest entry is a hard gate.
// With PR_OBS=1, PR_TRACE_OUT / PR_METRICS_OUT capture the
// memo.implicit_* spans.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/layout.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/workload.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

constexpr std::uint64_t kRssLimitBytes = 2ull << 30;  // 2 GiB

void add_record(bench::BenchJson& json, const routing::RoutingPoint& point) {
  obs::BenchRecord& rec = json.add_record();
  routing::fill_routing_record(point, rec);
  rec.set("seconds", point.seconds)
      .set("max_rss_bytes", obs::max_rss_bytes());
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const int kmax = std::max<int>(
      1, static_cast<int>(cli.flag_int(
             "kmax", 10, "Strassen ranks; the hybrid runs kmax/2")));
  cli.finish(
      "E17: implicit CDAG — Lemma 3/4, Theorem 2 and Claim 1 certified on "
      "the Fact-1 virtual view, with peak RSS under 2 GiB.");

  bench::print_banner(
      "E17: implicit CDAG — constant-memory certificates at k = 10",
      "Claim: the Fact-1 virtual view certifies the Lemma-3/4, Theorem-2,\n"
      "and Claim-1 routings of G_k without materializing G_k; peak RSS\n"
      "stays under 2 GiB at Strassen k = 10 (~2.0e9 vertices).");

  bench::BenchJson json("implicit_cdag");
  bool failed = false;

  // Workloads: Strassen at full depth, and the disconnected-decoding
  // hybrid at the rank reaching the same n (n0 = 4: kmax/2 ranks give
  // n = 2^kmax). The hybrid has no Claim-1 router, so it exercises the
  // chain-only engine configuration.
  struct Workload {
    const char* name;
    int kmax;
  };
  const std::vector<Workload> workloads = {
      {"strassen", kmax},
      {"classical2_x_strassen", std::max(1, kmax / 2)},
  };

  support::Table table({"algorithm", "k", "n", "|V| (virtual)", "chains",
                        "l3", "l4", "t2", "claim1", "sec", "rss-MiB"});
  for (const Workload& w : workloads) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(w.name);
    const bool has_decode = bilinear::decoding_components(alg) == 1;
    for (int k = 1; k <= w.kmax; ++k) {
      const routing::RoutingPoint chain = routing::run_routing_point(
          {false, w.name, k, routing::EngineKind::kImplicit});
      add_record(json, chain);
      std::optional<routing::RoutingPoint> decode;
      if (has_decode) {
        decode = routing::run_routing_point(
            {true, w.name, k, routing::EngineKind::kImplicit});
        add_record(json, *decode);
      }
      if (!chain.ok() || (decode && !decode->ok())) {
        std::fprintf(stderr, "BOUND VIOLATION: %s k=%d (implicit)\n", w.name,
                     k);
        failed = true;
      }
      const routing::ChainVerdicts& v = chain.chain;
      const cdag::Layout layout(alg.n0(), alg.b(), k);
      table.add_row(
          {w.name, std::to_string(k), std::to_string(layout.n()),
           fmt_count(layout.num_vertices()), fmt_count(v.l3.num_paths),
           v.l3.ok() ? "OK" : "FAIL", v.l4 ? "OK" : "FAIL",
           v.t2.ok() ? "OK" : "FAIL",
           decode ? (decode->ok() ? "OK" : "FAIL") : "-",
           fmt_fixed(chain.seconds + (decode ? decode->seconds : 0.0), 3),
           std::to_string(obs::max_rss_bytes() >> 20)});
    }
  }
  table.print(std::cout);

  // The bounded-memory claim: everything above ran without ever
  // allocating per-vertex state. ru_maxrss is monotonic, so this also
  // bounds every workload individually.
  const std::uint64_t peak_rss = obs::max_rss_bytes();
  std::printf("\nimplicit phase peak RSS: %" PRIu64 " MiB (limit %" PRIu64
              " MiB)\n",
              peak_rss >> 20, kRssLimitBytes >> 20);
  json.add_record()
      .set("experiment", "implicit_phase")
      .set("engine", routing::engine_name(routing::EngineKind::kImplicit))
      .set("kmax", kmax)
      .set("rss_limit_bytes", kRssLimitBytes)
      .set("ok", peak_rss < kRssLimitBytes)
      .set("max_rss_bytes", peak_rss);
  if (peak_rss >= kRssLimitBytes) {
    std::fprintf(stderr, "RSS LIMIT EXCEEDED: %" PRIu64 " >= %" PRIu64 "\n",
                 peak_rss, kRssLimitBytes);
    failed = true;
  }

  // With PR_OBS=1 in the environment the run was traced; PR_TRACE_OUT
  // dumps the spans and PR_METRICS_OUT the obs counters (see README
  // "Observability").
  obs::write_env_outputs("implicit_metrics", bench::git_commit());

  return failed ? 1 : 0;
}
