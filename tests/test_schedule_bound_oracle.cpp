// Differential test of bounds::PrefixBound against a from-scratch
// replay of the same bound. The replay builds the prefix's use lists,
// runs Belady (furthest next use, ties to the lowest id) over the
// prefix access string with a linear victim scan, and recounts the
// suffix terms over the whole graph; it shares only the definition in
// bounds/schedule_bound.hpp with the interval-packing engine. Every
// PartialBound field must agree on every prefix reached by pushes, and
// pop() must restore the bound exactly. Seeded and replayable:
// PR_PROPERTY_SEED / PR_PROPERTY_ITERS, part of the nightly property
// job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/support/check.hpp"
#include "pathrouting/support/prng.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using bounds::PartialBound;
using bounds::PrefixBound;
using cdag::Graph;
using cdag::VertexId;

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20261019ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 5;
  return n > 0 ? n : 5;
}

/// Next-use sentinel of the replay: no further consumption inside the
/// prefix. As a u32 it sorts above every real step index.
constexpr std::uint32_t kDead = UINT32_MAX;

/// The reference: the bound of schedule_bound.hpp computed from
/// scratch for one prefix.
PartialBound replay_bound(const Graph& graph,
                          std::span<const VertexId> prefix,
                          std::uint64_t m,
                          const std::function<bool(VertexId)>& is_output) {
  const VertexId n = graph.num_vertices();

  // Consumption steps of each vertex within the prefix, CSR layout.
  std::vector<std::uint32_t> off(static_cast<std::size_t>(n) + 1, 0);
  for (const VertexId v : prefix) {
    for (const VertexId p : graph.in(v)) ++off[p + 1];
  }
  for (VertexId v = 0; v < n; ++v) off[v + 1] += off[v];
  std::vector<std::uint32_t> steps(off.back());
  std::vector<std::uint32_t> cursor(off.begin(), off.end() - 1);
  for (std::uint32_t s = 0; s < prefix.size(); ++s) {
    for (const VertexId p : graph.in(prefix[s])) steps[cursor[p]++] = s;
  }
  cursor.assign(off.begin(), off.end() - 1);

  PartialBound bound;

  // MIN-fetches: demand fetching, furthest-next-use eviction.
  std::vector<std::uint8_t> in_cache(n, 0), scheduled(n, 0), touched(n, 0);
  std::vector<std::uint32_t> next_use(n, kDead), pin(n, 0);
  std::vector<VertexId> cached;

  const auto advance_next_use = [&](VertexId v, std::uint32_t s) {
    std::uint32_t& ptr = cursor[v];
    while (ptr < off[v + 1] && steps[ptr] <= s) ++ptr;
    return ptr < off[v + 1] ? steps[ptr] : kDead;
  };
  const auto evict_one = [&](std::uint32_t stamp) {
    std::size_t best = cached.size();
    for (std::size_t i = 0; i < cached.size(); ++i) {
      const VertexId u = cached[i];
      if (pin[u] == stamp) continue;
      if (best == cached.size()) {
        best = i;
        continue;
      }
      const VertexId w = cached[best];
      if (next_use[u] > next_use[w] ||
          (next_use[u] == next_use[w] && u < w)) {
        best = i;
      }
    }
    PR_ASSERT_MSG(best < cached.size(), "no evictable entry in MIN replay");
    in_cache[cached[best]] = 0;
    cached[best] = cached.back();
    cached.pop_back();
  };
  const auto insert = [&](VertexId v) {
    in_cache[v] = 1;
    cached.push_back(v);
  };

  for (std::uint32_t s = 0; s < prefix.size(); ++s) {
    const VertexId v = prefix[s];
    const auto preds = graph.in(v);
    PR_REQUIRE_MSG(!preds.empty(), "inputs are not scheduled");
    PR_REQUIRE_MSG(preds.size() + 1 <= m, "cache too small for this vertex");
    const std::uint32_t stamp = s + 1;
    for (const VertexId p : preds) pin[p] = stamp;
    for (const VertexId p : preds) {
      touched[p] = 1;
      if (!in_cache[p]) {
        while (cached.size() >= m) evict_one(stamp);
        ++bound.prefix_reads;
        insert(p);
      }
      next_use[p] = advance_next_use(p, s);
    }
    pin[v] = stamp;
    while (cached.size() >= m) evict_one(stamp);
    insert(v);
    scheduled[v] = 1;
    touched[v] = 1;
    next_use[v] = advance_next_use(v, s);
  }

  // Compulsory suffix reads.
  std::vector<std::uint8_t> needed(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (graph.in_degree(v) == 0 || scheduled[v]) continue;
    for (const VertexId p : graph.in(v)) needed[p] = 1;
  }
  std::uint64_t untouched_inputs = 0, live = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!needed[v]) continue;
    if (touched[v]) {
      ++live;
    } else if (graph.in_degree(v) == 0) {
      ++untouched_inputs;
    }
  }
  bound.suffix_reads = untouched_inputs + (live > m ? live - m : 0);

  for (VertexId v = 0; v < n; ++v) {
    if (graph.in_degree(v) > 0 && is_output(v)) ++bound.output_writes;
  }
  return bound;
}

void expect_same(const PartialBound& engine, const PartialBound& reference,
                 const std::string& where) {
  EXPECT_EQ(engine.prefix_reads, reference.prefix_reads) << where;
  EXPECT_EQ(engine.suffix_reads, reference.suffix_reads) << where;
  EXPECT_EQ(engine.output_writes, reference.output_writes) << where;
}

/// A random DAG of 2..5 inputs and 3..26 computed vertices of in-degree
/// 1..5. One edge list in eight repeats a predecessor, which the bound
/// must stage once.
Graph random_dag(support::Xoshiro256& rng) {
  const std::uint64_t inputs = 2 + rng.below(4);
  const std::uint64_t n = inputs + 3 + rng.below(24);
  std::vector<std::uint32_t> off = {0};
  std::vector<VertexId> adj;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (v >= inputs) {
      const std::uint64_t deg = 1 + rng.below(std::min<std::uint64_t>(5, v));
      const std::size_t begin = adj.size();
      while (adj.size() - begin < deg) {
        const auto cand = static_cast<VertexId>(rng.below(v));
        if (std::find(adj.begin() + static_cast<std::ptrdiff_t>(begin),
                      adj.end(), cand) == adj.end()) {
          adj.push_back(cand);
        }
      }
      if (rng.below(8) == 0) adj.push_back(adj[begin]);
    }
    off.push_back(static_cast<std::uint32_t>(adj.size()));
  }
  return Graph(std::move(off), std::move(adj));
}

std::uint64_t cache_floor(const Graph& graph) {
  std::uint64_t floor = 2;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    floor = std::max<std::uint64_t>(floor, graph.in_degree(v) + 1);
  }
  return floor;
}

/// A random subset of the vertices as outputs (sinks always).
std::vector<std::uint8_t> random_outputs(const Graph& graph,
                                         support::Xoshiro256& rng) {
  std::vector<std::uint8_t> mask(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    mask[v] = graph.out(v).empty() || rng.below(4) == 0 ? 1 : 0;
  }
  return mask;
}

/// Pushes `order` one vertex at a time and compares every prefix, the
/// empty one included, with the replay.
void check_every_prefix(const Graph& graph, std::span<const VertexId> order,
                        std::uint64_t m,
                        const std::function<bool(VertexId)>& is_output,
                        const std::string& where) {
  PrefixBound engine(graph, m, is_output);
  expect_same(engine.bound(), replay_bound(graph, {}, m, is_output),
              where + " len=0");
  for (std::size_t len = 1; len <= order.size(); ++len) {
    engine.push(order[len - 1]);
    expect_same(engine.bound(),
                replay_bound(graph, order.first(len), m, is_output),
                where + " len=" + std::to_string(len));
  }
  EXPECT_EQ(engine.bound().total(),
            bounds::partial_schedule_lower_bound(graph, order, m, is_output)
                .total())
      << where;
}

// Random DAGs, random topological orders, every prefix, every M from
// the feasibility floor up to n.
TEST(ScheduleBoundOracle, MatchesReplayOnRandomOrders) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    for (int g = 0; g < 20; ++g) {
      const Graph graph = random_dag(rng);
      const std::vector<std::uint8_t> mask = random_outputs(graph, rng);
      const auto is_output = [&](VertexId v) { return mask[v] != 0; };
      const std::vector<VertexId> order =
          schedule::random_topological_schedule(graph, rng());
      for (std::uint64_t m = cache_floor(graph); m <= graph.num_vertices();
           ++m) {
        check_every_prefix(graph, order, m, is_output,
                           "graph " + std::to_string(g) +
                               " M=" + std::to_string(m));
      }
    }
  }
}

// Random push/pop walks over the ready set: every state matches the
// replay, and pop() restores the bound recorded before the push.
TEST(ScheduleBoundOracle, PopReversesPushExactly) {
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (int g = 0; g < 20; ++g) {
      const Graph graph = random_dag(rng);
      const VertexId n = graph.num_vertices();
      const std::vector<std::uint8_t> mask = random_outputs(graph, rng);
      const auto is_output = [&](VertexId v) { return mask[v] != 0; };
      for (std::uint64_t m = cache_floor(graph); m <= n; ++m) {
        const std::string where =
            "graph " + std::to_string(g) + " M=" + std::to_string(m);
        PrefixBound engine(graph, m, is_output);
        std::vector<VertexId> prefix;
        std::vector<PartialBound> before;  // bound before each push
        std::vector<std::uint32_t> missing(n, 0);
        for (VertexId v = 0; v < n; ++v) {
          for (const VertexId p : graph.in(v)) {
            if (graph.in_degree(p) > 0) ++missing[v];
          }
        }
        const auto ready = [&](VertexId v) {
          return graph.in_degree(v) > 0 && missing[v] == 0 &&
                 std::find(prefix.begin(), prefix.end(), v) == prefix.end();
        };
        for (int move = 0; move < 4 * static_cast<int>(n); ++move) {
          std::vector<VertexId> candidates;
          for (VertexId v = 0; v < n; ++v) {
            if (ready(v)) candidates.push_back(v);
          }
          const bool push = !candidates.empty() &&
                            (prefix.empty() || rng.below(3) != 0);
          if (push) {
            const VertexId v = candidates[rng.below(candidates.size())];
            before.push_back(engine.bound());
            engine.push(v);
            prefix.push_back(v);
            for (const VertexId c : graph.out(v)) --missing[c];
          } else if (!prefix.empty()) {
            const VertexId v = prefix.back();
            engine.pop();
            prefix.pop_back();
            for (const VertexId c : graph.out(v)) ++missing[c];
            expect_same(engine.bound(), before.back(), where + " after pop");
            before.pop_back();
          }
          ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(),
                                 engine.prefix().begin(),
                                 engine.prefix().end()));
          expect_same(engine.bound(),
                      replay_bound(graph, prefix, m, is_output),
                      where + " move=" + std::to_string(move));
        }
      }
    }
  }
}

// DFS and random prefixes of catalog CDAGs: every M at r = 1, a spread
// of M (floor to n) at r = 2.
TEST(ScheduleBoundOracle, MatchesReplayOnCatalogPrefixes) {
  const std::uint64_t seed = property_seed();
  for (const char* name : {"strassen", "winograd", "classical2"}) {
    for (const int r : {1, 2}) {
      const cdag::Cdag cdag(bilinear::by_name(name), r,
                            {.with_coefficients = false});
      const Graph& graph = cdag.graph();
      const auto is_output = [&](VertexId v) {
        return cdag.layout().is_output(v);
      };
      const std::uint64_t floor = cache_floor(graph);
      std::vector<std::uint64_t> ms;
      if (r == 1) {
        for (std::uint64_t m = floor; m <= graph.num_vertices(); ++m) {
          ms.push_back(m);
        }
      } else {
        ms = {floor, floor + 1, 16, 32, 64, 128, graph.num_vertices()};
      }
      const std::vector<VertexId> dfs = schedule::dfs_schedule(cdag);
      const std::vector<VertexId> random =
          schedule::random_topological_schedule(graph, seed);
      for (const std::uint64_t m : ms) {
        const std::string where = std::string(name) + " r=" +
                                  std::to_string(r) +
                                  " M=" + std::to_string(m);
        check_every_prefix(graph, dfs, m, is_output, where + " dfs");
        check_every_prefix(graph, random, m, is_output, where + " random");
      }
    }
  }
}

}  // namespace
