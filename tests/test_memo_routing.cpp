#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/routing/path_store.hpp"
#include "pathrouting/routing/workload.hpp"

namespace {

using namespace pathrouting;           // NOLINT
using namespace pathrouting::routing;  // NOLINT
using cdag::Cdag;
using cdag::CopyBlock;
using cdag::CopyTranslation;
using cdag::SubComputation;
using cdag::VertexId;

// Feasibility caps for the brute-force oracle side of the cross-checks.
constexpr std::uint64_t kMaxChains = 300'000;
constexpr std::uint64_t kMaxVertices = 2'000'000;
constexpr std::uint64_t kMaxDecodePaths = 300'000;

std::uint64_t num_chains(const cdag::Layout& layout, int k) {
  return 2 * layout.pow_a()(k) * guaranteed_fanout(layout, k);
}

// --- The memoized engine against the enumerating oracle, full catalog. ---

TEST(MemoRoutingTest, ChainHitsBitIdenticalToBruteAcrossCatalog) {
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    const ChainRouter router(alg);
    const MemoRoutingEngine engine(router);
    for (int k = 1; k <= 3; ++k) {
      const cdag::Layout probe(alg.n0(), alg.b(), k);
      if (num_chains(probe, k) > kMaxChains ||
          probe.num_vertices() > kMaxVertices) {
        break;
      }
      const Cdag cdag(alg, k);
      const SubComputation sub(cdag, k, 0);
      const ChainHitCounts brute = count_chain_hits(router, sub);
      const ChainHitCounts memo = engine.chain_hits(sub);
      EXPECT_EQ(memo.hits, brute.hits) << name << " k=" << k;
      EXPECT_EQ(memo.num_chains, brute.num_chains) << name << " k=" << k;
      EXPECT_EQ(memo.max_hits, brute.max_hits) << name << " k=" << k;
      EXPECT_EQ(memo.argmax, brute.argmax) << name << " k=" << k;
      // The closed-form total is the certificate the audit layer
      // checks; it must match what the enumeration actually deposited.
      const std::uint64_t total =
          std::accumulate(brute.hits.begin(), brute.hits.end(),
                          std::uint64_t{0});
      EXPECT_EQ(engine.expected_chain_total_hits(k), total)
          << name << " k=" << k;
      EXPECT_EQ(engine.expected_num_chains(k), brute.num_chains)
          << name << " k=" << k;
    }
  }
}

/// Every Fact-1 copy G_k^p of G_r for r in {k, k+1}: the whole graph
/// and all b copies one level down, so the verdicts are checked against
/// the oracle off the canonical copy too. Stops at the first r past the
/// vertex cap.
template <typename Fn>
void for_each_copy(const bilinear::BilinearAlgorithm& alg, int k,
                   const Fn& fn) {
  for (int r = k; r <= k + 1; ++r) {
    const cdag::Layout probe(alg.n0(), alg.b(), r);
    if (probe.num_vertices() > kMaxVertices) return;
    const Cdag cdag(alg, r);
    for (std::uint64_t prefix = 0; prefix < probe.pow_b()(r - k); ++prefix) {
      SCOPED_TRACE(alg.name() + " k=" + std::to_string(k) +
                   " r=" + std::to_string(r) +
                   " prefix=" + std::to_string(prefix));
      fn(SubComputation(cdag, k, prefix));
    }
  }
}

TEST(MemoRoutingTest, VerifyStatsMatchBruteAcrossCatalog) {
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    const ChainRouter router(alg);
    const MemoRoutingEngine engine(router);
    for (int k = 1; k <= 2; ++k) {
      const cdag::Layout probe(alg.n0(), alg.b(), k);
      if (num_chains(probe, k) > kMaxChains) break;
      for_each_copy(alg, k, [&](const SubComputation& sub) {
        const HitStats brute = verify_chain_routing(router, sub);
        const HitStats memo = engine.verify_chain_routing(sub);
        EXPECT_EQ(memo.num_paths, brute.num_paths);
        EXPECT_EQ(memo.max_hits, brute.max_hits);
        EXPECT_EQ(memo.bound, brute.bound);
        EXPECT_EQ(memo.argmax, brute.argmax);
        EXPECT_TRUE(memo.ok());

        const FullRoutingStats bfull =
            verify_full_routing_aggregated(router, sub);
        const FullRoutingStats mfull = engine.verify_full_routing(sub);
        EXPECT_EQ(mfull.num_paths, bfull.num_paths);
        EXPECT_EQ(mfull.max_vertex_hits, bfull.max_vertex_hits);
        EXPECT_EQ(mfull.argmax_vertex, bfull.argmax_vertex);
        EXPECT_EQ(mfull.max_meta_hits, bfull.max_meta_hits);
        EXPECT_EQ(mfull.bound, bfull.bound);
        EXPECT_EQ(mfull.root_hit_property, bfull.root_hit_property);
        // A copy whose last prefix digit is a trivial row hangs its
        // inputs off a zero-hit parent outside it, which fails the
        // root-hit property (a known copy-boundary defect, matched
        // above); the congestion bounds hold on every copy.
        EXPECT_LE(mfull.max_vertex_hits, mfull.bound);
        EXPECT_LE(mfull.max_meta_hits, mfull.bound);
        if (sub.k() == sub.cdag().r()) {
          EXPECT_TRUE(mfull.ok());
        }

        // Lemma 4's multiplicity accounting: digit-level decision vs
        // the enumerating counter.
        EXPECT_EQ(engine.verify_chain_multiplicities(sub),
                  verify_chain_multiplicities(router, sub));
      });
    }
  }
}

TEST(MemoRoutingTest, DecodeHitsBitIdenticalToBrute) {
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    if (bilinear::decoding_components(alg) != 1) continue;  // Claim 1 only
    const ChainRouter router(alg);
    const DecodeRouter decoder(alg);
    const MemoRoutingEngine engine(router, decoder);
    ASSERT_TRUE(engine.has_decoder());
    for (int k = 1; k <= 3; ++k) {
      const cdag::Layout probe(alg.n0(), alg.b(), k);
      const std::uint64_t paths = probe.pow_a()(k) * probe.pow_b()(k);
      if (paths > kMaxDecodePaths) break;
      EXPECT_EQ(engine.expected_num_decode_paths(k), paths);
      for_each_copy(alg, k, [&](const SubComputation& sub) {
        const std::vector<std::uint64_t> brute =
            count_decode_hits(decoder, sub);
        EXPECT_EQ(engine.decode_hits(sub), brute);
        const HitStats bstats = verify_decode_routing(decoder, sub);
        const HitStats mstats = engine.verify_decode_routing(sub);
        EXPECT_EQ(mstats.num_paths, bstats.num_paths);
        EXPECT_EQ(mstats.max_hits, bstats.max_hits);
        EXPECT_EQ(mstats.bound, bstats.bound);
        EXPECT_EQ(mstats.argmax, bstats.argmax);
        EXPECT_TRUE(mstats.ok());
        const std::uint64_t total =
            std::accumulate(brute.begin(), brute.end(), std::uint64_t{0});
        EXPECT_EQ(engine.expected_decode_total_hits(k), total);
      });
    }
  }
}

// --- Fact-1 copy translation. ---

TEST(CopyTranslationTest, RoundTripAndBlockStructure) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const Cdag cdag(alg, 3);
  const cdag::Layout& layout = cdag.layout();
  for (int k = 1; k <= 2; ++k) {
    const std::uint64_t copies = layout.pow_b()(3 - k);
    for (std::uint64_t prefix = 0; prefix < copies; ++prefix) {
      const CopyTranslation map(layout, k, prefix);
      const SubComputation sub(cdag, k, prefix);
      ASSERT_EQ(map.blocks().size(), static_cast<std::size_t>(3 * (k + 1)));
      // Blocks tile the local id space without gaps.
      VertexId next_local = 0;
      for (const CopyBlock& blk : map.blocks()) {
        EXPECT_EQ(blk.local_base, next_local);
        next_local += static_cast<VertexId>(blk.length);
      }
      EXPECT_EQ(next_local, map.local().num_vertices());
      // The translated ids are exactly the subcomputation's vertices,
      // in order, and the round trip is the identity.
      const std::vector<VertexId> expected = sub.vertices();
      std::vector<VertexId> translated;
      for (VertexId v = 0; v < map.local().num_vertices(); ++v) {
        const VertexId global = map.to_global(v);
        EXPECT_EQ(map.to_local(global), v);
        translated.push_back(global);
      }
      EXPECT_EQ(translated, expected) << "k=" << k << " prefix=" << prefix;
    }
  }
}

TEST(CopyTranslationTest, MatchesSubcomputationAddresses) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const Cdag cdag(alg, 3);
  const cdag::Layout& layout = cdag.layout();
  const int k = 2;
  const std::uint64_t prefix = 4;
  const CopyTranslation map(layout, k, prefix);
  const SubComputation sub(cdag, k, prefix);
  const cdag::Layout& local = map.local();
  for (const Side side : {Side::A, Side::B}) {
    for (int t = 0; t <= k; ++t) {
      for (std::uint64_t q = 0; q < local.pow_b()(t); ++q) {
        for (std::uint64_t p = 0; p < local.pow_a()(k - t); ++p) {
          EXPECT_EQ(map.to_global(local.enc(side, t, q, p)),
                    sub.enc(side, t, q, p));
        }
      }
    }
  }
  for (int t = 0; t <= k; ++t) {
    for (std::uint64_t q = 0; q < local.pow_b()(k - t); ++q) {
      for (std::uint64_t p = 0; p < local.pow_a()(t); ++p) {
        EXPECT_EQ(map.to_global(local.dec(t, q, p)), sub.dec(t, q, p));
      }
    }
  }
}

TEST(CopyTranslationTest, CopiesAreDisjoint) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const Cdag cdag(alg, 3);
  const cdag::Layout& layout = cdag.layout();
  const int k = 2;
  std::set<VertexId> seen;
  for (std::uint64_t prefix = 0; prefix < layout.pow_b()(1); ++prefix) {
    const CopyTranslation map(layout, k, prefix);
    for (const CopyBlock& blk : map.blocks()) {
      for (std::uint64_t i = 0; i < blk.length; ++i) {
        EXPECT_TRUE(seen.insert(blk.global_base + i).second)
            << "copies overlap at global id " << blk.global_base + i;
      }
    }
  }
}

TEST(MemoRoutingTest, NonZeroPrefixCopiesMatchBrute) {
  // The same canonical array serves every Fact-1 copy; spot-check the
  // translation on interior copies against the oracle run directly on
  // those copies.
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const ChainRouter router(alg);
  const DecodeRouter decoder(alg);
  const MemoRoutingEngine engine(router, decoder);
  const Cdag cdag(alg, 3);
  const int k = 2;
  for (const std::uint64_t prefix : {std::uint64_t{1}, std::uint64_t{6}}) {
    const SubComputation sub(cdag, k, prefix);
    EXPECT_EQ(engine.chain_hits(sub).hits, count_chain_hits(router, sub).hits)
        << "prefix=" << prefix;
    EXPECT_EQ(engine.decode_hits(sub), count_decode_hits(decoder, sub))
        << "prefix=" << prefix;
  }
}

// --- PathStore. ---

TEST(PathStoreTest, ArenaLayoutAndHitAccumulation) {
  PathStore store;
  store.reserve(2, 8);
  const std::uint64_t i0 =
      store.add_path(3, 5, [](std::vector<VertexId>& arena) {
        arena.insert(arena.end(), {3, 4, 5});
      });
  const std::uint64_t i1 =
      store.add_path(5, 2, [](std::vector<VertexId>& arena) {
        arena.insert(arena.end(), {5, 4, 3, 2});
      });
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(store.num_paths(), 2u);
  EXPECT_EQ(store.total_vertices(), 7u);
  EXPECT_EQ(std::vector<VertexId>(store.path(0).begin(), store.path(0).end()),
            (std::vector<VertexId>{3, 4, 5}));
  EXPECT_EQ(std::vector<VertexId>(store.path(1).begin(), store.path(1).end()),
            (std::vector<VertexId>{5, 4, 3, 2}));
  EXPECT_EQ(store.sources()[1], 5u);
  EXPECT_EQ(store.sinks()[1], 2u);
  std::vector<std::uint64_t> hits(6, 0);
  accumulate_hits(store, hits);
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{0, 0, 1, 2, 2, 2}));
  store.clear();
  EXPECT_EQ(store.num_paths(), 0u);
  EXPECT_EQ(store.total_vertices(), 0u);
}

TEST(PathStoreTest, DotExportListsEveryChainVertex) {
  const bilinear::BilinearAlgorithm alg = bilinear::strassen();
  const ChainRouter router(alg);
  const Cdag cdag(alg, 1);
  const SubComputation sub(cdag, 1, 0);
  PathStore store;
  const std::uint64_t wpos = guaranteed_output(cdag.layout(), 1, Side::A, 0, 0);
  store.add_path([&](std::vector<VertexId>& arena) {
    router.append_chain(sub, Side::A, 0, wpos, arena);
  });
  const std::string dot =
      paths_to_dot(cdag.layout(), store, "chain");
  EXPECT_NE(dot.find("digraph \"chain\""), std::string::npos);
  for (const VertexId v : store.path(0)) {
    std::string node = "v";
    node += std::to_string(v);
    EXPECT_NE(dot.find(node), std::string::npos);
  }
}

/// A routing record with `key` overridden by `value`.
template <typename Value>
obs::BenchRecord routing_record(const std::string& key, Value value) {
  obs::BenchRecord rec;
  rec.set("experiment", "chain_routing")
      .set("algorithm", "strassen")
      .set("k", 2)
      .set("engine", "memo");
  rec.set(key, value);
  return rec;
}

template <typename Value>
std::string routing_reject(const std::string& key, Value value) {
  const obs::FromRecord<RoutingSpec> read =
      routing_spec_from_record(routing_record(key, value));
  EXPECT_FALSE(read.value.has_value()) << key;
  return read.error;
}

TEST(RoutingWorkload, RecordRoundTripsSpecAndRederivesExactly) {
  for (const bool decode : {false, true}) {
    for (const EngineKind engine : {EngineKind::kMemo, EngineKind::kImplicit}) {
      const RoutingSpec spec{decode, "winograd", 3, engine};
      const RoutingPoint point = run_routing_point(spec);
      EXPECT_TRUE(point.ok());
      EXPECT_EQ(point.hits.empty(), engine == EngineKind::kImplicit);
      obs::BenchRecord rec;
      fill_routing_record(point, rec);
      const obs::FromRecord<RoutingSpec> read = routing_spec_from_record(rec);
      ASSERT_TRUE(read.value.has_value()) << read.error;
      EXPECT_EQ(read.value->decode, decode);
      EXPECT_EQ(read.value->algorithm, "winograd");
      EXPECT_EQ(read.value->k, 3);
      EXPECT_EQ(read.value->engine, engine);
      const obs::FromRecord<obs::BenchRecord> fresh =
          rederive_routing_record(rec);
      ASSERT_TRUE(fresh.value.has_value()) << fresh.error;
      for (const auto& [key, value] : rec.fields()) {
        const obs::BenchValue* again = fresh.value->find(key);
        ASSERT_NE(again, nullptr) << key;
        EXPECT_EQ(again->json(), value.json()) << key;
      }
    }
  }
}

TEST(RoutingWorkload, MemoAndImplicitRecordsAgree) {
  for (const bool decode : {false, true}) {
    obs::BenchRecord memo, implicit;
    fill_routing_record(
        run_routing_point({decode, "strassen", 3, EngineKind::kMemo}), memo);
    fill_routing_record(
        run_routing_point({decode, "strassen", 3, EngineKind::kImplicit}),
        implicit);
    ASSERT_EQ(memo.fields().size(), implicit.fields().size());
    for (const auto& [key, value] : memo.fields()) {
      if (key == "engine") continue;
      EXPECT_EQ(implicit.find(key)->json(), value.json()) << key;
    }
  }
}

TEST(RoutingWorkload, SpecReaderRejectsHostileRecords) {
  EXPECT_EQ(routing_reject("experiment", "nosuch"),
            "experiment 'nosuch' is not a routing workload");
  EXPECT_EQ(routing_reject("engine", "brute"),
            "engine 'brute' is not re-derivable");
  EXPECT_EQ(routing_reject("algorithm", "nosuch"),
            "unknown algorithm 'nosuch'");
  EXPECT_EQ(routing_reject("k", 0), "k must be >= 1 (got 0)");
  EXPECT_EQ(routing_reject("k", -3), "k must be >= 1 (got -3)");
  EXPECT_EQ(routing_reject("k", 11),
            "k 11 exceeds the id-space limit 10 for 'strassen'");
  obs::BenchRecord past_edges = routing_record("algorithm",
                                               "classical2_x_strassen");
  past_edges.set("k", 5);
  EXPECT_EQ(routing_spec_from_record(past_edges).error,
            "G_5 of 'classical2_x_strassen' has too many edges for the "
            "32-bit edge offsets (largest k 4)");
  // The implicit engine has no edge arrays: only the id space limits it.
  past_edges.set("engine", "implicit");
  EXPECT_TRUE(routing_spec_from_record(past_edges).value.has_value());
  obs::BenchRecord disconnected = routing_record("experiment",
                                                 "decode_routing");
  disconnected.set("algorithm", "classical2_x_strassen");
  EXPECT_EQ(routing_spec_from_record(disconnected).error,
            "the decoding graph of 'classical2_x_strassen' is disconnected; "
            "Claim 1 does not apply");
}

}  // namespace
