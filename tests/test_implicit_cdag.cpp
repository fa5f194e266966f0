// The implicit CDAG view (cdag/implicit.hpp) must be observationally
// identical to the explicit CSR builder on every query: the audit
// layer, the memoized engine, and the segment certifier all accept a
// cdag::CdagView, so any divergence here silently corrupts every
// consumer downstream.
//
// Three tiers:
//   * exhaustive bit-identity against the explicit graph for every
//     catalog algorithm at k <= 4 (capped by a vertex budget — the
//     widest tensor bases exceed memory long before k = 4, exactly the
//     regime the implicit view exists for);
//   * a property sweep at k = 7 (PR_PROPERTY_SEED / PR_PROPERTY_ITERS,
//     same replay contract as test_properties) sampling random
//     vertices of the 5.7M-vertex Strassen graph;
//   * engine level: the cdag.* audit reports the same findings through
//     either view, and the routing verifiers certify Strassen k = 10
//     (their agreement with the brute-force oracle is
//     tests/test_memo_routing's job).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/routing/decode_routing.hpp"
#include "pathrouting/routing/memo_routing.hpp"
#include "pathrouting/support/parallel.hpp"
#include "pathrouting/support/prng.hpp"

namespace {

using namespace pathrouting;  // NOLINT
using cdag::VertexId;
using support::parallel::ThreadOverride;

/// Explicit graphs larger than this are skipped (the k <= 4 sweep
/// covers every catalog algorithm only up to what fits).
constexpr std::uint64_t kVertexBudget = 2000000;

std::uint64_t property_seed() {
  const char* env = std::getenv("PR_PROPERTY_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 20260806ull;
}

int property_iters() {
  const char* env = std::getenv("PR_PROPERTY_ITERS");
  const int n = env != nullptr ? std::atoi(env) : 3;
  return n > 0 ? n : 3;
}

/// Every virtual query of `view` against the CSR graph for one vertex.
void expect_vertex_identical(const cdag::ImplicitCdag& view,
                             const cdag::ExplicitView& ref, VertexId v) {
  std::vector<VertexId> scratch_a;
  std::vector<VertexId> scratch_b;
  ASSERT_EQ(view.in_degree(v), ref.in_degree(v)) << "vertex " << v;
  ASSERT_EQ(view.out_degree(v), ref.out_degree(v)) << "vertex " << v;
  const auto in_view = view.in(v, scratch_a);
  const auto in_ref = ref.in(v, scratch_b);
  ASSERT_TRUE(std::equal(in_view.begin(), in_view.end(), in_ref.begin(),
                         in_ref.end()))
      << "in-list of vertex " << v;
  const auto out_view = view.out(v, scratch_a);
  const auto out_ref = ref.out(v, scratch_b);
  ASSERT_TRUE(std::equal(out_view.begin(), out_view.end(), out_ref.begin(),
                         out_ref.end()))
      << "out-list of vertex " << v;
  ASSERT_EQ(view.copy_parent(v), ref.copy_parent(v)) << "vertex " << v;
  ASSERT_EQ(view.meta_root(v), ref.meta_root(v)) << "vertex " << v;
  ASSERT_EQ(view.meta_size(v), ref.meta_size(v)) << "vertex " << v;
  ASSERT_EQ(view.is_duplicated(v), ref.is_duplicated(v)) << "vertex " << v;
  for (const VertexId u : out_view) {
    ASSERT_TRUE(view.has_edge(v, u)) << v << " -> " << u;
  }
}

class CatalogViewTest : public ::testing::TestWithParam<std::string> {};

// Exhaustive k <= 4 sweep: the audit comparator checks every vertex's
// degrees, neighbor lists (with edge order), copy parent, and meta
// table against the CSR reference, and the direct probes below cover
// the interface the comparator does not exercise (has_edge, layer
// refs, is_duplicated).
TEST_P(CatalogViewTest, BitIdenticalToExplicitUpToK4) {
  const auto alg = bilinear::by_name(GetParam());
  for (int k = 1; k <= 4; ++k) {
    const cdag::ImplicitCdag view(alg, k);
    if (view.num_vertices() > kVertexBudget) break;
    SCOPED_TRACE(GetParam() + " k=" + std::to_string(k));
    const cdag::Cdag graph(alg, k, {.with_coefficients = false});
    const cdag::ExplicitView ref(graph);
    ASSERT_EQ(view.num_vertices(), ref.num_vertices());
    ASSERT_EQ(view.num_edges(), ref.num_edges());

    const audit::AuditReport report =
        audit::audit_view_consistency(view, graph);
    EXPECT_TRUE(report.ok()) << report.to_text();

    // Layer/rank structure: the view's layout is the same object kind
    // the builder used, so VertexRef round-trips must agree.
    const cdag::Layout& layout = view.layout();
    ASSERT_EQ(layout.num_vertices(), graph.layout().num_vertices());
    const std::uint64_t n = view.num_vertices();
    const std::uint64_t stride = n > 4096 ? n / 4096 : 1;
    for (std::uint64_t v = 0; v < n; v += stride) {
      const auto id = static_cast<VertexId>(v);
      const cdag::VertexRef mine = layout.ref(id);
      const cdag::VertexRef theirs = graph.layout().ref(id);
      ASSERT_EQ(mine.layer, theirs.layer);
      ASSERT_EQ(mine.rank, theirs.rank);
      ASSERT_EQ(mine.q, theirs.q);
      ASSERT_EQ(mine.p, theirs.p);
      expect_vertex_identical(view, ref, id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, CatalogViewTest,
                         ::testing::ValuesIn(bilinear::catalog_names()),
                         [](const auto& info) { return info.param; });

// Property sweep at k = 7: the explicit Strassen graph still fits
// (5.7M vertices), so random vertices can be checked query-for-query
// in the regime where the exhaustive sweep is too slow. Failures
// replay with PR_PROPERTY_SEED=<seed> PR_PROPERTY_ITERS=1.
TEST(ImplicitViewProperty, RandomVerticesMatchExplicitAtK7) {
  const auto alg = bilinear::by_name("strassen");
  const int k = 7;
  const cdag::ImplicitCdag view(alg, k);
  const cdag::Cdag graph(alg, k, {.with_coefficients = false});
  const cdag::ExplicitView ref(graph);
  ASSERT_EQ(view.num_edges(), ref.num_edges());
  const std::uint64_t base_seed = property_seed();
  const int iters = property_iters();
  const std::uint64_t n = view.num_vertices();
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("PR_PROPERTY_SEED=" + std::to_string(seed));
    support::Xoshiro256 rng(seed);
    for (int sample = 0; sample < 1000; ++sample) {
      const auto v = static_cast<VertexId>(rng.below(n));
      expect_vertex_identical(view, ref, v);
    }
  }
}

// The cdag.* suite is one per-vertex scan over any view, so an
// implicit graph must audit exactly like the explicit graph it models
// (the explicit side also checks copy coefficients and reports edge
// indices, neither of which shows on a clean graph), at every thread
// count.
TEST(ImplicitAudit, CdagSuiteMatchesExplicitView) {
  const auto expect_same_audit = [](const std::string& name, int r) {
    SCOPED_TRACE(name + " r=" + std::to_string(r));
    const auto alg = bilinear::by_name(name);
    const cdag::Cdag graph(alg, r);
    const cdag::ImplicitCdag view(alg, r);
    for (const int threads : {1, 2, 7}) {
      const ThreadOverride guard(threads);
      const audit::AuditReport implicit_report = audit::audit_cdag(view);
      const audit::AuditReport explicit_report =
          audit::audit_cdag(cdag::ExplicitView(graph));
      EXPECT_TRUE(implicit_report == explicit_report)
          << "threads=" << threads << "\nimplicit:\n"
          << implicit_report.to_text() << "explicit:\n"
          << explicit_report.to_text();
      EXPECT_TRUE(implicit_report.ok()) << implicit_report.to_text();
      EXPECT_EQ(implicit_report.rules_run().size(), 7u);
    }
  };
  for (const std::string& name : bilinear::catalog_names()) {
    for (int r = 1; r <= 2; ++r) expect_same_audit(name, r);
  }
  expect_same_audit("strassen", 4);
}

// Past 2^20 vertices an implicit view is audited on a stride sample;
// the report must say so (once) rather than pass silently.
TEST(ImplicitAudit, StrassenR10SampledAuditIsClean) {
  const cdag::ImplicitCdag view(bilinear::by_name("strassen"), 10);
  const audit::AuditReport report = audit::audit_cdag(view);
  EXPECT_TRUE(report.ok()) << report.to_text();
  EXPECT_EQ(report.rules_run().size(), 7u);
  ASSERT_EQ(report.diagnostics().size(), 1u) << report.to_text();
  const audit::Diagnostic& note = report.diagnostics().front();
  EXPECT_EQ(note.severity, audit::Severity::kNote);
  EXPECT_NE(note.message.find("stride sample"), std::string::npos)
      << note.message;
}

// The implicit engine keeps working far past the explicit budget; pin
// the headline k = 10 run (Strassen, n = 1024) to its Lemma-3 /
// Theorem-2 verdicts so a regression cannot hide behind "too big to
// test".
TEST(ImplicitEngine, StrassenK10CertificatesHold) {
  const auto alg = bilinear::by_name("strassen");
  const routing::ChainRouter router(alg);
  const routing::DecodeRouter decoder(alg);
  const routing::MemoRoutingEngine engine(router, decoder);
  const int k = 10;
  const cdag::ImplicitCdag view(alg, k);
  EXPECT_EQ(view.num_vertices(), 1973132439u);
  const routing::HitStats l3 = engine.verify_chain_routing(view, k, 0);
  EXPECT_EQ(l3.num_paths, 2147483648ull);  // 2 * a^k * n0^k = 2 * 4^10 * 2^10
  EXPECT_EQ(l3.max_hits, 2048u);           // exactly 2 * n0^k
  EXPECT_TRUE(l3.ok());
  EXPECT_TRUE(engine.verify_chain_multiplicities(view, k, 0));
  const routing::FullRoutingStats t2 = engine.verify_full_routing(view, k, 0);
  EXPECT_TRUE(t2.ok());
  EXPECT_TRUE(t2.root_hit_property);
  const routing::HitStats d = engine.verify_decode_routing(view, k, 0);
  EXPECT_EQ(d.num_paths, 296196766695424ull);  // b^k * a^k = 7^10 * 4^10
  EXPECT_TRUE(d.ok());
}

}  // namespace
