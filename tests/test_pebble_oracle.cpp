// Differential test of pebble::simulate against an independent
// reference simulator. The reference keeps the resident set as a plain
// list, finds the victim by a linear scan and each next use by scanning
// the schedule forward; it shares only the rules and the documented
// tie rule (larger eviction key first, then the lowest VertexId) with
// the production heap. Each graph's runs share one pebble::Simulator,
// so reuse of its buffers is checked too. Seeded and replayable:
// PR_PROPERTY_SEED / PR_PROPERTY_ITERS, part of the nightly property
// job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/prng.hpp"

namespace {

using namespace pathrouting;          // NOLINT
using namespace pathrouting::pebble;  // NOLINT
using cdag::Graph;
using cdag::VertexId;

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260806ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 5;
  return n > 0 ? n : 5;
}

constexpr std::uint64_t kDead = std::numeric_limits<std::uint64_t>::max();

/// The reference pebble game (same rules as cache_sim.hpp).
PebbleResult reference_simulate(const Graph& graph,
                                std::span<const VertexId> schedule,
                                const PebbleOptions& options,
                                const std::function<bool(VertexId)>& output) {
  const VertexId n = graph.num_vertices();
  const std::uint64_t m = options.cache_size;
  std::vector<VertexId> cached;
  std::vector<std::uint8_t> dirty(n, 0), written(n, 0);
  std::vector<std::uint64_t> last_access(n, 0);
  std::vector<std::uint32_t> birth(n, 0);
  for (VertexId v = 0; v < n; ++v) written[v] = graph.in(v).empty();
  PebbleResult res;
  res.steps = schedule.size();
  const auto& ends = options.segment_ends;
  res.segment_reads.assign(ends.size(), 0);
  res.segment_writes.assign(ends.size(), 0);
  if (options.record_step_io) res.step_io.assign(schedule.size(), 0);

  // First step after `s` whose vertex reads `u`, kDead if none.
  const auto next_use = [&](VertexId u, std::size_t s) {
    for (std::size_t t = s + 1; t < schedule.size(); ++t) {
      const auto in = graph.in(schedule[t]);
      if (std::find(in.begin(), in.end(), u) != in.end()) return t;
    }
    return static_cast<std::size_t>(kDead);
  };
  const auto is_cached = [&](VertexId u) {
    return std::find(cached.begin(), cached.end(), u) != cached.end();
  };
  std::size_t segment = 0;
  std::size_t step = 0;
  std::uint64_t clock = 0;
  const auto write = [&](VertexId u) {
    ++res.writes;
    written[u] = 1;
    if (options.record_step_io) ++res.step_io[step];
    if (!ends.empty()) ++res.segment_writes[birth[u]];
  };
  // Frees one slot during step `step`: the victim is the unpinned value
  // with the largest key, ties to the lowest VertexId.
  const auto evict = [&] {
    const VertexId v = schedule[step];
    const auto pins = graph.in(v);
    std::size_t best = cached.size();
    std::uint64_t best_key = 0;
    for (std::size_t i = 0; i < cached.size(); ++i) {
      const VertexId u = cached[i];
      if (u == v || std::find(pins.begin(), pins.end(), u) != pins.end()) {
        continue;
      }
      const std::uint64_t key = options.eviction == Eviction::Belady
                                    ? next_use(u, step)
                                    : kDead - last_access[u];
      if (best == cached.size() || key > best_key ||
          (key == best_key && u < cached[best])) {
        best = i;
        best_key = key;
      }
    }
    EXPECT_LT(best, cached.size()) << "no evictable value";
    const VertexId u = cached[best];
    if (dirty[u] &&
        (next_use(u, step) != kDead || (output(u) && !written[u]))) {
      ++res.evictions_dirty;
      write(u);
    } else {
      ++res.evictions_clean;
    }
    dirty[u] = 0;
    cached.erase(cached.begin() + static_cast<std::ptrdiff_t>(best));
  };

  for (step = 0; step < schedule.size(); ++step) {
    while (!ends.empty() && step >= ends[segment]) ++segment;
    const VertexId v = schedule[step];
    for (const VertexId p : graph.in(v)) {
      if (!is_cached(p)) {
        EXPECT_TRUE(written[p]) << "operand lost";
        if (cached.size() == m) evict();
        ++res.reads;
        if (options.record_step_io) ++res.step_io[step];
        if (!ends.empty()) ++res.segment_reads[segment];
        cached.push_back(p);
      }
      last_access[p] = ++clock;
    }
    if (cached.size() == m) evict();
    cached.push_back(v);
    dirty[v] = 1;
    birth[v] = static_cast<std::uint32_t>(segment);
    last_access[v] = ++clock;
    res.peak_cached = std::max<std::uint64_t>(res.peak_cached, cached.size());
  }
  step = schedule.empty() ? 0 : schedule.size() - 1;
  for (VertexId v = 0; v < n; ++v) {
    if (output(v) && !written[v]) write(v);
  }
  return res;
}

/// A random DAG of 3..5 inputs and 4..23 computed vertices of in-degree
/// 1..4 (distinct predecessors).
Graph random_dag(support::Xoshiro256& rng) {
  const std::uint64_t inputs = 3 + rng.below(3);
  const std::uint64_t n = inputs + 4 + rng.below(20);
  std::vector<std::uint32_t> off = {0};
  std::vector<VertexId> adj;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (v >= inputs) {
      const std::uint64_t deg = 1 + rng.below(std::min<std::uint64_t>(4, v));
      const std::size_t begin = adj.size();
      while (adj.size() - begin < deg) {
        const auto cand = static_cast<VertexId>(rng.below(v));
        if (std::find(adj.begin() + static_cast<std::ptrdiff_t>(begin),
                      adj.end(), cand) == adj.end()) {
          adj.push_back(cand);
        }
      }
    }
    off.push_back(static_cast<std::uint32_t>(adj.size()));
  }
  return Graph(std::move(off), std::move(adj));
}

/// 0..4 random segment ends (empty segments included) closed by `len`.
std::vector<std::uint32_t> random_segment_ends(support::Xoshiro256& rng,
                                               std::uint32_t len) {
  std::vector<std::uint32_t> ends;
  const std::uint64_t cuts = rng.below(5);
  if (cuts == 0) return ends;
  for (std::uint64_t i = 1; i < cuts; ++i) {
    ends.push_back(static_cast<std::uint32_t>(rng.below(len + 1)));
  }
  std::sort(ends.begin(), ends.end());
  ends.push_back(len);
  return ends;
}

TEST(PebbleOracle, SimulatorMatchesReferenceOnRandomDags) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    for (int g = 0; g < 8; ++g) {
      const Graph graph = random_dag(rng);
      const VertexId n = graph.num_vertices();
      // Outputs: every sink plus some computed interior values.
      std::vector<std::uint8_t> out(n, 0);
      std::uint32_t max_in = 0;
      for (VertexId v = 0; v < n; ++v) {
        max_in = std::max(max_in, graph.in_degree(v));
        out[v] = !graph.in(v).empty() &&
                 (graph.out(v).empty() || rng.below(4) == 0);
      }
      const auto is_output = [&](VertexId v) { return out[v] != 0; };
      // One Simulator per graph, reused across orders, M and policies:
      // a run must not depend on the runs before it.
      Simulator simulator(graph, is_output);
      for (int o = 0; o < 3; ++o) {
        const std::vector<VertexId> order =
            schedule::random_topological_schedule(graph, rng());
        for (std::uint64_t m = max_in + 1; m <= n; ++m) {
          for (const Eviction policy : {Eviction::Belady, Eviction::Lru}) {
            PebbleOptions options{.cache_size = m, .eviction = policy};
            options.segment_ends = random_segment_ends(
                rng, static_cast<std::uint32_t>(order.size()));
            options.record_step_io = rng.below(2) == 1;
            SCOPED_TRACE("graph " + std::to_string(g) + ", order " +
                         std::to_string(o) + ", M=" + std::to_string(m) +
                         (policy == Eviction::Lru ? ", LRU" : ", Belady"));
            const PebbleResult got = simulator.run(order, options);
            const PebbleResult want =
                reference_simulate(graph, order, options, is_output);
            EXPECT_EQ(got.reads, want.reads);
            EXPECT_EQ(got.writes, want.writes);
            EXPECT_EQ(got.steps, want.steps);
            EXPECT_EQ(got.evictions_dirty, want.evictions_dirty);
            EXPECT_EQ(got.evictions_clean, want.evictions_clean);
            EXPECT_EQ(got.peak_cached, want.peak_cached);
            EXPECT_EQ(got.segment_reads, want.segment_reads);
            EXPECT_EQ(got.segment_writes, want.segment_writes);
            EXPECT_EQ(got.step_io, want.step_io);
          }
        }
      }
    }
  }
}

}  // namespace
