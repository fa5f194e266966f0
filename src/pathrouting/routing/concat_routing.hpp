// Lemma 4 and the Routing Theorem (Theorem 2).
//
// Lemma 4 turns the chain routing for guaranteed dependencies into a
// routing between ALL inputs and ALL outputs by concatenating three
// chains along the paper's sequences
//     a_ij -> c_ij'  <- b_jj' -> c_i'j'      (A-side inputs)
//     b_ij -> c_i'j  <- a_i'i -> c_i'j'      (B-side inputs)
// (the middle chain is traversed in reverse). Every chain is used by
// exactly 3*n0^k of the 2*a^{2k} paths, so with Lemma 3's 2*n0^k bound
// per vertex the composite routing hits every vertex at most
// 6*a^k times — Theorem 2. The same bound holds for meta-vertices
// because any chain hitting a meta-vertex passes through its root.
//
// Two verifiers are provided: an exact aggregated count (chain hit
// counts x the uniform multiplicity 3*n0^k; cheap, any k) and a full
// path enumeration (small k; also checks the meta-vertex claims and the
// junction structure directly).
#pragma once

#include "pathrouting/routing/chain_routing.hpp"

namespace pathrouting::routing {

/// Materializes the Lemma-4 path for (input vpos on `in_side` -> output
/// wpos): the three chains concatenated with the duplicated junction
/// vertices removed. Appends to `out`.
void append_full_path(const ChainRouter& router, const SubComputation& sub,
                      Side in_side, std::uint64_t vpos, std::uint64_t wpos,
                      std::vector<VertexId>& out);

/// Lemma 4's accounting: enumerates all 2*a^{2k} input-output pairs and
/// counts how many times each chain (identified by side/input/output) is
/// used; returns true iff every chain is used exactly 3*n0^k times.
bool verify_chain_multiplicities(const ChainRouter& router,
                                 const SubComputation& sub);

struct FullRoutingStats {
  std::uint64_t num_paths = 0;
  std::uint64_t max_vertex_hits = 0;
  VertexId argmax_vertex = 0;
  std::uint64_t max_meta_hits = 0;  // paths hitting a meta-vertex (deduped)
  std::uint64_t bound = 0;          // 6 * a^k
  bool root_hit_property = true;    // every meta hit passes through the root
  [[nodiscard]] bool ok() const {
    return max_vertex_hits <= bound && max_meta_hits <= bound &&
           root_hit_property;
  }
};

/// Theorem 2 verification by full enumeration of the |In||Out| paths.
/// Cost: 2*a^{2k} paths of ~6k vertices; keep k small (<= 4 for n0=2).
FullRoutingStats verify_full_routing_enumerated(const ChainRouter& router,
                                                const SubComputation& sub);

/// Theorem 2 verification via the exact identity
///   hits(v) = 3*n0^k * chain_hits(v)
/// (every chain is used exactly 3*n0^k times; see
/// verify_chain_multiplicities). Meta hits equal the root's vertex hits
/// because chains hit a meta-vertex iff they pass its root. Cheap
/// enough for any k the CDAG itself fits in memory.
FullRoutingStats verify_full_routing_aggregated(const ChainRouter& router,
                                                const SubComputation& sub);

/// The aggregated Theorem-2 verdict from an already-computed chain hit
/// array (verify_full_routing_aggregated; benches and tests also apply
/// it to memoized arrays).
FullRoutingStats full_routing_from_chain_counts(const SubComputation& sub,
                                                const ChainHitCounts& chains);

}  // namespace pathrouting::routing
