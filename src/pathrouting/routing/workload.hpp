// One gated routing workload: a chain_routing (Lemma 3, Lemma 4,
// Theorem 2) or decode_routing (Claim 1) record of
// BENCH_routing_memo.json and BENCH_implicit_cdag.json, with its one
// writer (fill_routing_record) and one reader
// (routing_spec_from_record), shared by bench_routing, bench_implicit
// and pr_bench_gate. Two engines are re-derivable: memo (the per-vertex
// hit arrays on an explicit G_k; Theorem 2 by array aggregation) and
// implicit (the digit-state DP on cdag::ImplicitCdag). Brute rows are
// the oracle bench_routing checks memo against, never re-derived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/routing/chain_routing.hpp"
#include "pathrouting/routing/concat_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"

namespace pathrouting::routing {

struct RoutingSpec {
  bool decode = false;  // decode_routing (Claim 1), else chain_routing
  std::string algorithm;  // catalog name
  int k = 1;
  EngineKind engine = EngineKind::kMemo;  // kMemo or kImplicit
};

/// The verdicts one chain_routing record carries.
struct ChainVerdicts {
  HitStats l3;
  bool l4 = false;
  FullRoutingStats t2;
  [[nodiscard]] bool ok() const { return l3.ok() && l4 && t2.ok(); }
};

struct RoutingPoint {
  RoutingSpec spec;
  ChainVerdicts chain;  // chain_routing
  HitStats decode;      // decode_routing
  /// The memo engine's per-vertex hit array (chain or decode); empty
  /// for the implicit engine, which never allocates one.
  std::vector<std::uint64_t> hits;
  /// Engine work only: building G_k (or its implicit view) is excluded.
  double seconds = 0;
  [[nodiscard]] bool ok() const {
    return spec.decode ? decode.ok() : chain.ok();
  }
};

/// Runs one workload: memo on a freshly built G_k, implicit on its view.
[[nodiscard]] RoutingPoint run_routing_point(const RoutingSpec& spec);

/// The memo engine on a caller-built G_{spec.k} copy `sub` (which a
/// bench also hands the brute oracle).
[[nodiscard]] RoutingPoint run_memo_point(const RoutingSpec& spec,
                                          const cdag::SubComputation& sub);

/// Serializes a point onto the unified bench-record schema; the caller
/// appends "seconds" and any bench-only fields.
void fill_routing_record(const RoutingPoint& point, obs::BenchRecord& rec);

/// Rebuilds the spec from a record written by fill_routing_record.
/// Rejects an unknown experiment or engine, a cdag::rank_error (edge
/// offsets count for memo only), and Claim 1 on a disconnected decoding
/// graph.
[[nodiscard]] obs::FromRecord<RoutingSpec> routing_spec_from_record(
    const obs::BenchRecord& rec);

/// Read, run, fill: the fresh record (with "seconds") for baseline
/// record `ref`, or why `ref` cannot be re-derived.
[[nodiscard]] obs::FromRecord<obs::BenchRecord> rederive_routing_record(
    const obs::BenchRecord& ref);

}  // namespace pathrouting::routing
