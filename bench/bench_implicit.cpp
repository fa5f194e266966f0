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
// Exits nonzero on any bound violation or RSS breach, so the
// implicit-perfsmoke ctest entry is a hard gate. With PR_OBS=1,
// PR_TRACE_OUT / PR_METRICS_OUT capture the memo.implicit_* spans.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/support/table.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using support::fmt_count;
using support::fmt_fixed;

constexpr std::uint64_t kRssLimitBytes = 2ull << 30;  // 2 GiB

struct Options {
  int kmax = 10;  // Strassen ranks; the hybrid runs kmax/2
};

struct ImplicitRun {
  routing::HitStats l3;
  bool l4 = false;
  routing::FullRoutingStats t2;
  std::optional<routing::HitStats> decode;
  // The chain phase (L3/L4/T2) and the Claim-1 decode phase are
  // separate records in the JSON, so they are timed separately.
  double chain_secs = 0;
  double decode_secs = 0;
  [[nodiscard]] bool ok() const {
    return l3.ok() && l4 && t2.ok() && (!decode || decode->ok());
  }
};

ImplicitRun run_implicit(const routing::MemoRoutingEngine& engine,
                         const cdag::CdagView& view, int k) {
  ImplicitRun run;
  bench::Stopwatch chain_timer;
  run.l3 = engine.verify_chain_routing(view, k, 0);
  run.l4 = engine.verify_chain_multiplicities(view, k, 0);
  run.t2 = engine.verify_full_routing(view, k, 0);
  run.chain_secs = chain_timer.seconds();
  if (engine.has_decoder()) {
    bench::Stopwatch decode_timer;
    run.decode = engine.verify_decode_routing(view, k, 0);
    run.decode_secs = decode_timer.seconds();
  }
  return run;
}

void add_records(bench::BenchJson& json, const std::string& name, int k,
                 const ImplicitRun& run) {
  json.add_record()
      .set("experiment", "chain_routing")
      .set("algorithm", name)
      .set("k", k)
      .set("engine", routing::engine_name(routing::EngineKind::kImplicit))
      .set("chains", run.l3.num_paths)
      .set("l3_max_hits", run.l3.max_hits)
      .set("l3_bound", run.l3.bound)
      .set("l4_exact", run.l4)
      .set("t2_max_vertex_hits", run.t2.max_vertex_hits)
      .set("t2_max_meta_hits", run.t2.max_meta_hits)
      .set("t2_bound", run.t2.bound)
      .set("ok", run.l3.ok() && run.l4 && run.t2.ok())
      .set("seconds", run.chain_secs)
      .set("max_rss_bytes", obs::max_rss_bytes());
  if (run.decode) {
    json.add_record()
        .set("experiment", "decode_routing")
        .set("algorithm", name)
        .set("k", k)
        .set("engine", routing::engine_name(routing::EngineKind::kImplicit))
        .set("paths", run.decode->num_paths)
        .set("max_hits", run.decode->max_hits)
        .set("bound", run.decode->bound)
        .set("ok", run.decode->ok())
        .set("seconds", run.decode_secs)
        .set("max_rss_bytes", obs::max_rss_bytes());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--kmax=", 0) == 0) {
      opt.kmax = std::atoi(arg.c_str() + 7);
    } else {
      std::fprintf(stderr, "usage: bench_implicit [--kmax=N]\n");
      return 2;
    }
  }
  if (opt.kmax < 1) opt.kmax = 1;

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
      {"strassen", opt.kmax},
      {"classical2_x_strassen", std::max(1, opt.kmax / 2)},
  };

  support::Table table({"algorithm", "k", "n", "|V| (virtual)", "chains",
                        "l3", "l4", "t2", "claim1", "sec", "rss-MiB"});
  for (const Workload& w : workloads) {
    const auto alg = bilinear::by_name(w.name);
    const routing::ChainRouter router(alg);
    std::optional<routing::DecodeRouter> decoder;
    std::optional<routing::MemoRoutingEngine> engine;
    if (bilinear::decoding_components(alg) == 1) {
      decoder.emplace(alg);
      engine.emplace(router, *decoder);
    } else {
      engine.emplace(router);
    }
    for (int k = 1; k <= w.kmax; ++k) {
      const cdag::ImplicitCdag view(alg, k);
      const ImplicitRun run = run_implicit(*engine, view, k);
      const double secs = run.chain_secs + run.decode_secs;
      if (!run.ok()) {
        std::fprintf(stderr, "BOUND VIOLATION: %s k=%d (implicit)\n", w.name,
                     k);
        failed = true;
      }
      add_records(json, w.name, k, run);
      table.add_row(
          {w.name, std::to_string(k), std::to_string(view.layout().n()),
           fmt_count(view.num_vertices()), fmt_count(run.l3.num_paths),
           run.l3.ok() ? "OK" : "FAIL", run.l4 ? "OK" : "FAIL",
           run.t2.ok() ? "OK" : "FAIL",
           run.decode ? (run.decode->ok() ? "OK" : "FAIL") : "-",
           fmt_fixed(secs, 3),
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
      .set("kmax", opt.kmax)
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
