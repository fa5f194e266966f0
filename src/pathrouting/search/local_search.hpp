// Lin-Kernighan-style local search over pebbling schedules — the
// improvement mode for graphs too big for branch-and-bound to close.
//
// Perturbations preserve topological validity by construction and are
// re-checked against the dependence edges before scoring:
//  * adjacent transposition: swap order[i], order[i+1] when there is
//    no edge between them;
//  * block move: lift a short contiguous block and reinsert it at
//    another position, kept only if every dependence still points
//    forward.
// Each round generates a seeded batch of candidates, scores them all
// with Belady on a pebble::Simulator (one per parallel chunk), and
// accepts the best strictly improving one; the search stops at the
// first round with no improvement (or after max_rounds). Accepted
// moves therefore never increase the Belady cost — the invariant
// tests/test_search.cpp pins.
//
// Determinism: candidates are generated serially from the seed
// (support::Xoshiro256) and scored on the deterministic parallel
// substrate with a chunk-ordered (cost, index) argmin fold, so the
// result is bit-identical at any PR_THREADS.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::search {

using cdag::Graph;
using cdag::VertexId;

struct LocalSearchOptions {
  std::uint64_t cache_size = 0;  // M, in values
  std::uint64_t seed = 1;
  std::uint64_t max_rounds = 32;
  /// Candidate perturbations attempted per round (invalid ones are
  /// discarded before scoring).
  std::uint64_t moves_per_round = 128;
};

struct LocalSearchResult {
  std::vector<VertexId> schedule;
  std::uint64_t io = 0;          // Belady I/O of `schedule`
  std::uint64_t initial_io = 0;  // Belady I/O of the seed schedule
  std::uint64_t rounds_run = 0;
  std::uint64_t moves_evaluated = 0;
  std::uint64_t moves_accepted = 0;
};

/// Improves `initial` (a valid topological order of the non-input
/// vertices) under Belady eviction with cache size
/// options.cache_size. The result's schedule is always a valid
/// topological order with io <= initial_io.
LocalSearchResult improve_schedule(
    const Graph& graph, std::span<const VertexId> initial,
    const LocalSearchOptions& options,
    const std::function<bool(VertexId)>& is_output);

}  // namespace pathrouting::search
