#include "pathrouting/search/local_search.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "pathrouting/obs/obs.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/support/check.hpp"
#include "pathrouting/support/parallel.hpp"
#include "pathrouting/support/prng.hpp"

namespace pathrouting::search {

namespace {

/// Dependence check over a permutation of a known-complete schedule:
/// every non-input predecessor must appear strictly earlier. `pos` is
/// scratch of size num_vertices (contents overwritten).
bool is_topological(const Graph& graph, std::span<const VertexId> order,
                    std::vector<std::uint32_t>& pos) {
  constexpr std::uint32_t kUnset = UINT32_MAX;
  pos.assign(graph.num_vertices(), kUnset);
  for (std::uint32_t s = 0; s < order.size(); ++s) pos[order[s]] = s;
  for (std::uint32_t s = 0; s < order.size(); ++s) {
    for (const VertexId p : graph.in(order[s])) {
      if (graph.in_degree(p) == 0) continue;
      if (pos[p] == kUnset || pos[p] >= s) return false;
    }
  }
  return true;
}

/// One seeded perturbation of `current`; returns an empty vector when
/// the sampled move is a no-op or breaks a dependence.
std::vector<VertexId> perturb(const Graph& graph,
                              const std::vector<VertexId>& current,
                              support::Xoshiro256& rng,
                              std::vector<std::uint32_t>& pos_scratch) {
  const std::uint64_t len = current.size();
  std::vector<VertexId> candidate;
  if (len < 2) return candidate;
  if (rng.below(2) == 0) {
    // Adjacent transposition: valid iff no edge order[i] -> order[i+1].
    const std::uint64_t i = rng.below(len - 1);
    if (graph.has_edge(current[i], current[i + 1])) return candidate;
    candidate = current;
    std::swap(candidate[i], candidate[i + 1]);
    return candidate;
  }
  // Block move: lift order[i, i+block) and reinsert at j.
  const std::uint64_t block = 1 + rng.below(std::min<std::uint64_t>(4, len));
  if (block >= len) return candidate;
  const std::uint64_t i = rng.below(len - block + 1);
  const std::uint64_t j = rng.below(len - block + 1);
  if (i == j) return candidate;
  candidate = current;
  const auto first = candidate.begin() + static_cast<std::ptrdiff_t>(i);
  const auto last = first + static_cast<std::ptrdiff_t>(block);
  if (j < i) {
    std::rotate(candidate.begin() + static_cast<std::ptrdiff_t>(j), first,
                last);
  } else {
    std::rotate(first, last,
                candidate.begin() + static_cast<std::ptrdiff_t>(j + block));
  }
  if (!is_topological(graph, candidate, pos_scratch)) candidate.clear();
  return candidate;
}

}  // namespace

LocalSearchResult improve_schedule(
    const Graph& graph, std::span<const VertexId> initial,
    const LocalSearchOptions& options,
    const std::function<bool(VertexId)>& is_output) {
  obs::TraceSpan span("search.local_search");
  static obs::Counter moves_counter("search.moves_evaluated");
  PR_REQUIRE_MSG(!initial.empty(), "local search needs a non-empty schedule");

  const pebble::PebbleOptions pebble_options{.cache_size = options.cache_size};

  LocalSearchResult result;
  result.schedule.assign(initial.begin(), initial.end());
  result.initial_io =
      pebble::Simulator(graph, is_output).run(initial, pebble_options).io();
  result.io = result.initial_io;

  support::Xoshiro256 rng(options.seed);
  std::vector<std::uint32_t> pos_scratch;
  for (std::uint64_t round = 0; round < options.max_rounds; ++round) {
    ++result.rounds_run;
    // Candidates are generated serially from the seed: the batch is a
    // pure function of (options.seed, accepted history).
    std::vector<std::vector<VertexId>> candidates;
    candidates.reserve(options.moves_per_round);
    for (std::uint64_t t = 0; t < options.moves_per_round; ++t) {
      std::vector<VertexId> candidate =
          perturb(graph, result.schedule, rng, pos_scratch);
      if (!candidate.empty()) candidates.push_back(std::move(candidate));
    }
    result.moves_evaluated += candidates.size();
    moves_counter.add(candidates.size());
    if (candidates.empty()) break;

    // Chunk-ordered (cost, index) argmin: bit-identical at any
    // PR_THREADS (see support/parallel.hpp).
    using Best = std::pair<std::uint64_t, std::uint64_t>;  // (io, index)
    constexpr Best kNoBest{std::numeric_limits<std::uint64_t>::max(),
                           std::numeric_limits<std::uint64_t>::max()};
    const std::uint64_t grain = support::parallel::work_grain(
        candidates.size(), 64 * initial.size());
    const Best best = support::parallel::parallel_reduce<Best>(
        0, candidates.size(), grain, kNoBest,
        [&](std::uint64_t lo, std::uint64_t hi) {
          pebble::Simulator simulator(graph, is_output);
          Best local = kNoBest;
          for (std::uint64_t c = lo; c < hi; ++c) {
            const std::uint64_t io =
                simulator.run(candidates[c], pebble_options).io();
            local = std::min(local, Best{io, c});
          }
          return local;
        },
        [](Best& acc, const Best& chunk) { acc = std::min(acc, chunk); });

    if (best.first >= result.io) break;  // round without improvement
    result.io = best.first;
    result.schedule = std::move(candidates[best.second]);
    ++result.moves_accepted;
  }
  return result;
}

}  // namespace pathrouting::search
