// Lemma 3: a 2*n0^k-routing of *chains* for all guaranteed dependencies
// of G_k, built by applying the base matching (Theorem 3) digit by digit
// (the Claim 2 recursion, implemented iteratively over Morton digits).
//
// The chain for the guaranteed dependence (input (d_1..d_k), output
// (e_1..e_k)) climbs the encoding using q_t = mu(d_t, e_t) at level t —
// the matching guarantees U[q_t, d_t] != 0 and W[e_t, q_t] != 0, so
// every hop is an edge of G_r — reaches product (q_1..q_k), and descends
// the decoding to the output. Chains have exactly 2k+2 vertices.
#pragma once

#include <cstdint>
#include <vector>

#include "pathrouting/cdag/subcomputation.hpp"
#include "pathrouting/routing/guaranteed.hpp"
#include "pathrouting/routing/hall.hpp"

namespace pathrouting::routing {

using cdag::SubComputation;
using cdag::VertexId;

class ChainRouter {
 public:
  /// Computes the Theorem-3 base matchings for both sides. Aborts if
  /// either matching is infeasible (Lemma 5 rules this out for correct
  /// algorithms whose combinations feed single multiplications).
  explicit ChainRouter(const BilinearAlgorithm& alg);

  [[nodiscard]] const BilinearAlgorithm& algorithm() const { return alg_; }
  [[nodiscard]] const BaseMatching& matching(Side side) const {
    return side == Side::A ? mu_a_ : mu_b_;
  }

  /// Appends the 2k+2 chain vertices for the guaranteed dependence
  /// (vpos on `side` -> wpos) of `sub`, bottom-up (input first).
  void append_chain(const SubComputation& sub, Side side, std::uint64_t vpos,
                    std::uint64_t wpos, std::vector<VertexId>& out) const;

  /// The same chain walked from its output back to its input (Lemma 4
  /// traverses the middle chain in reverse); `skip_first` drops the
  /// output vertex when it is a junction the caller already emitted.
  void append_chain_reversed(const SubComputation& sub, Side side,
                             std::uint64_t vpos, std::uint64_t wpos,
                             bool skip_first,
                             std::vector<VertexId>& out) const;

  /// The chain minus its input vertex (Lemma 4's third chain starts at
  /// the junction the reversed middle chain just ended on).
  void append_chain_tail(const SubComputation& sub, Side side,
                         std::uint64_t vpos, std::uint64_t wpos,
                         std::vector<VertexId>& out) const;

 private:
  /// The Claim-2 recursion word q_1..q_k = mu(d_t, e_t) digit by digit.
  [[nodiscard]] std::uint64_t chain_q_word(const SubComputation& sub,
                                           Side side, std::uint64_t vpos,
                                           std::uint64_t wpos) const;

  BilinearAlgorithm alg_;
  BaseMatching mu_a_;
  BaseMatching mu_b_;
};

/// Per-vertex hit counts of the full Lemma-3 chain routing (all
/// guaranteed dependencies, both sides) of `sub`. `hits` is indexed by
/// *global* vertex id of sub's owning CDAG. Counting parallelizes over
/// inputs (PR_THREADS) with bit-identical results at any thread count;
/// `argmax` is the smallest vertex id attaining `max_hits`.
struct ChainHitCounts {
  std::vector<std::uint64_t> hits;
  std::uint64_t num_chains = 0;
  std::uint64_t max_hits = 0;
  VertexId argmax = 0;
};
ChainHitCounts count_chain_hits(const ChainRouter& router,
                                const SubComputation& sub);

/// Lemma 3 verification: max hits <= bound = 2*n0^k.
struct HitStats {
  std::uint64_t num_paths = 0;
  std::uint64_t max_hits = 0;
  std::uint64_t bound = 0;
  VertexId argmax = 0;
  [[nodiscard]] bool ok() const { return max_hits <= bound; }
};
HitStats verify_chain_routing(const ChainRouter& router,
                              const SubComputation& sub);

/// The Lemma-3 stats of an already-computed hit array (the brute-force
/// path above; benches and tests also apply it to memoized arrays).
HitStats chain_stats_from_counts(const ChainHitCounts& counts,
                                 const SubComputation& sub);

}  // namespace pathrouting::routing
