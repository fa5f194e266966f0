// The cdag.* rule suite: structural invariants of the recursive CDAG
// G_r (Section 3, Lemma 2, Fact 1), evaluated through a cdag::CdagView
// so one implementation audits explicit graphs, implicit graphs, and
// the deliberately corrupted fakes of the mutation tests.
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::audit {

namespace {

namespace parallel = support::parallel;
using cdag::kInvalidVertex;
using cdag::LayerKind;
using cdag::Layout;
using cdag::VertexRef;
using internal::error;
using internal::error_counts;
using internal::Findings;
using internal::flush;

constexpr std::string_view kTopo = "cdag.topological-ids";
constexpr std::string_view kRank = "cdag.rank-structure";
constexpr std::string_view kDegree = "cdag.degree-bounds";
constexpr std::string_view kCopy = "cdag.copy-structure";
constexpr std::string_view kMetaRoot = "cdag.meta-root";
constexpr std::string_view kMetaSubtree = "cdag.meta-subtree";
constexpr std::string_view kFact1 = "cdag.fact1-prefix";

/// Vertex budget of a scan without explicit edges: exhaustive below it,
/// a deterministic stride sample above (an implicit G_10 has ~2e9
/// vertices; a fixed sample keeps the audit O(1) in r while still
/// touching every rank).
constexpr std::uint64_t kViewSampleCap = 1 << 20;

/// One Findings buffer per rule, filled in a single pass and folded in
/// chunk order.
struct RuleFindings {
  Findings topo;
  Findings rank;
  Findings degree;
  Findings copy;
  Findings meta_root;
  Findings meta_subtree;
  Findings fact1;

  void merge(RuleFindings& other) {
    topo.merge(other.topo);
    rank.merge(other.rank);
    degree.merge(other.degree);
    copy.merge(other.copy);
    meta_root.merge(other.meta_root);
    meta_subtree.merge(other.meta_subtree);
    fact1.merge(other.fact1);
  }
};

/// What an explicit graph adds to the view: global in-edge indices for
/// the findings, and the per-edge coefficients of copy edges.
struct EdgeTables {
  const cdag::Graph* graph = nullptr;  // null: findings carry no edge
  std::span<const support::Rational> in_coeff;  // empty: not checked
};

void check_vertex(const cdag::CdagView& view, const EdgeTables& edges,
                  const VertexId v, std::vector<VertexId>& in_scratch,
                  std::vector<VertexId>& out_scratch, RuleFindings& out) {
  const Layout& layout = view.layout();
  const std::uint64_t n = view.num_vertices();
  const auto a = static_cast<std::uint64_t>(layout.a());
  const auto b = static_cast<std::uint64_t>(layout.b());
  const int r = layout.r();
  const auto& pow_a = layout.pow_a();
  const VertexRef ref = layout.ref(v);
  const int level = layout.level(v);
  const auto preds = view.in(v, in_scratch);
  const std::uint64_t edge_base =
      edges.graph != nullptr ? edges.graph->in_edge_base(v) : kNoId;
  const auto edge = [&](std::size_t i) {
    return edge_base == kNoId ? kNoId : edge_base + i;
  };

  // Degree bounds, plus self-consistency of the in/out lists against
  // the degree queries.
  const std::uint64_t deg = preds.size();
  if (deg != view.in_degree(v)) {
    out.degree.add(error_counts(
        kDegree, "synthesized in-list length disagrees with in_degree",
        /*expected=*/view.in_degree(v), /*actual=*/deg, v));
  }
  {
    const auto succs = view.out(v, out_scratch);
    if (succs.size() != view.out_degree(v)) {
      out.degree.add(error_counts(
          kDegree, "synthesized out-list length disagrees with out_degree",
          /*expected=*/view.out_degree(v), /*actual=*/succs.size(), v));
    }
  }
  if (ref.layer != LayerKind::Dec) {
    if (ref.rank == 0) {
      if (deg != 0) {
        out.degree.add(error_counts(kDegree, "input vertex has in-edges",
                                    /*expected=*/0, deg, v));
      }
    } else if (deg < 1 || deg > a) {
      out.degree.add(error_counts(
          kDegree, "encoding vertex in-degree outside 1..a (Section 3)",
          /*expected=*/a, deg, v));
    }
  } else if (ref.rank == 0) {
    if (deg != 2) {
      out.degree.add(error_counts(
          kDegree, "product vertex must have exactly two operands",
          /*expected=*/2, deg, v));
    }
  } else if (deg < 1 || deg > b) {
    out.degree.add(error_counts(
        kDegree, "decoding vertex in-degree outside 1..b (Section 3)",
        /*expected=*/b, deg, v));
  }

  for (std::size_t i = 0; i < preds.size(); ++i) {
    const VertexId p = preds[i];
    if (p >= v) {
      out.topo.add(error_counts(
          kTopo,
          "in-edge predecessor " + std::to_string(p) +
              " does not precede its successor in the id order",
          /*expected=*/v, /*actual=*/p, v, edge(i)));
    }
    if (p >= n) continue;  // topological-ids
    const int pred_level = layout.level(p);
    if (pred_level + 1 != level) {
      out.rank.add(error_counts(
          kRank,
          "edge from " + std::to_string(p) + " (level " +
              std::to_string(pred_level) +
              ") does not connect consecutive levels",
          /*expected=*/static_cast<std::uint64_t>(pred_level + 1),
          /*actual=*/static_cast<std::uint64_t>(level), v, edge(i)));
    }

    // Fact-1 prefix discipline, per in-edge. The shared recursion-path
    // prefix of every edge is what makes the middle 2(k+1) ranks fall
    // apart into b^{r-k} vertex-disjoint copies of G_k: an edge
    // crossing prefixes would weld two subcomputations together.
    const VertexRef pred = layout.ref(p);
    if (ref.layer != LayerKind::Dec) {
      if (pred.layer != ref.layer || pred.rank != ref.rank - 1) {
        out.fact1.add(error(kFact1,
                            "encoding in-edge does not come from the "
                            "previous rank of the same side",
                            v, edge(i)));
      } else if (pred.q != ref.q / b ||
                 pred.p % pow_a(r - ref.rank) != ref.p) {
        out.fact1.add(error(kFact1,
                            "encoding edge changes the recursion-path "
                            "prefix or block position (Fact 1)",
                            v, edge(i)));
      }
    } else if (ref.rank == 0) {
      if (pred.layer == LayerKind::Dec || pred.rank != r) {
        out.fact1.add(
            error(kFact1, "product in-edge does not come from encoding rank r",
                  v, edge(i)));
      } else if (pred.q != ref.q) {
        out.fact1.add(error(kFact1,
                            "multiplication edge joins different "
                            "recursion paths (Fact 1)",
                            v, edge(i)));
      }
    } else {
      if (pred.layer != LayerKind::Dec || pred.rank != ref.rank - 1) {
        out.fact1.add(error(kFact1,
                            "decoding in-edge does not come from the "
                            "previous decoding rank",
                            v, edge(i)));
      } else if (pred.q / b != ref.q ||
                 pred.p != ref.p % pow_a(ref.rank - 1)) {
        out.fact1.add(error(kFact1,
                            "decoding edge changes the recursion-path "
                            "prefix or block position (Fact 1)",
                            v, edge(i)));
      }
    }
  }
  // A product must multiply one operand from each side.
  if (ref.layer == LayerKind::Dec && ref.rank == 0 && preds.size() == 2 &&
      preds[0] < n && preds[1] < n) {
    const VertexRef p0 = layout.ref(preds[0]);
    const VertexRef p1 = layout.ref(preds[1]);
    if (p0.layer == p1.layer && p0.layer != LayerKind::Dec) {
      out.fact1.add(error(
          kFact1, "product multiplies two operands from the same side", v));
    }
  }

  // Copy and meta bookkeeping (the per-vertex clauses; audit_cdag adds
  // the meta-size membership recount).
  const VertexId parent = view.copy_parent(v);
  const VertexId root = view.meta_root(v);
  if (parent != kInvalidVertex) {
    if (parent >= n) {
      out.copy.add(error(kCopy, "recorded copy-parent is not a vertex", v));
    } else {
      if (parent >= v) {
        out.copy.add(error_counts(
            kCopy, "copy-parent id must be smaller than the copy's",
            /*expected=*/v, /*actual=*/parent, v));
      }
      if (preds.size() != 1) {
        out.copy.add(error_counts(kCopy, "copy vertex must have in-degree 1",
                                  /*expected=*/1, preds.size(), v));
      } else {
        if (preds[0] != parent) {
          out.copy.add(error_counts(
              kCopy,
              "copy vertex's unique in-edge is not from its copy-parent",
              /*expected=*/parent, /*actual=*/preds[0], v, edge(0)));
        }
        if (!edges.in_coeff.empty() && !edges.in_coeff[edge_base].is_one()) {
          out.copy.add(error(
              kCopy, "copy edge coefficient is not 1 (a copy is verbatim)", v,
              edge(0)));
        }
      }
    }
  }
  if (root >= n) {
    out.meta_root.add(
        error(kMetaRoot, "recorded meta-root is not a vertex", v));
    return;
  }
  if (root > v) {
    out.meta_root.add(
        error_counts(kMetaRoot, "meta-root id must not exceed the member's",
                     /*expected=*/v, /*actual=*/root, v));
  }
  if (view.meta_root(root) != root) {
    out.meta_root.add(error_counts(
        kMetaRoot, "recorded meta-root is not itself a root",
        /*expected=*/root, /*actual=*/view.meta_root(root), v));
  }
  if (!view.capabilities().grouped_duplicates && parent == kInvalidVertex &&
      root != v) {
    out.meta_root.add(error_counts(
        kMetaRoot,
        "non-copy vertex is not its own meta-root (same-value grouping "
        "is off)",
        /*expected=*/v, /*actual=*/root, v));
  }
  if (parent == kInvalidVertex) {
    // Lemma 2: the root of an upward subtree is its unique non-copy.
    if (root == v && view.copy_parent(root) != kInvalidVertex) {
      out.meta_subtree.add(error(kMetaSubtree,
                                 "meta-root is a copy vertex (Lemma 2 roots "
                                 "carry a non-copy definition)",
                                 v));
    }
  } else if (parent < n && view.meta_root(parent) != root) {
    out.meta_subtree.add(error_counts(
        kMetaSubtree,
        "copy vertex does not inherit its copy-parent's meta-root, so "
        "the meta-vertex is not an upward subtree (Lemma 2)",
        /*expected=*/view.meta_root(parent), /*actual=*/root, v));
  }
}

}  // namespace

AuditReport audit_cdag(const cdag::CdagView& view,
                       const RuleSelection& selection) {
  static constexpr std::string_view kRules[] = {
      kTopo, kRank, kDegree, kCopy, kMetaRoot, kMetaSubtree, kFact1};
  std::string_view first_enabled;
  for (const std::string_view rule : kRules) {
    if (selection.enabled(rule)) {
      first_enabled = rule;
      break;
    }
  }
  AuditReport report;
  if (first_enabled.empty()) return report;

  const std::uint64_t n = view.num_vertices();
  const cdag::ViewCapabilities caps = view.capabilities();
  const bool exhaustive = caps.explicit_edges || n <= kViewSampleCap;
  const std::uint64_t stride =
      exhaustive ? 1 : (n + kViewSampleCap - 1) / kViewSampleCap;
  const std::uint64_t samples = (n + stride - 1) / stride;

  EdgeTables edges;
  if (const cdag::Cdag* cdag = view.explicit_cdag()) {
    edges.graph = &cdag->graph();
    if (caps.coefficients) edges.in_coeff = cdag->in_coeffs();
  }

  RuleFindings findings = parallel::parallel_reduce<RuleFindings>(
      0, samples, internal::kScanGrain, RuleFindings{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        RuleFindings chunk;
        std::vector<VertexId> in_scratch;
        std::vector<VertexId> out_scratch;
        for (std::uint64_t i = lo; i < hi; ++i) {
          check_vertex(view, edges, static_cast<VertexId>(i * stride),
                       in_scratch, out_scratch, chunk);
        }
        return chunk;
      },
      [](RuleFindings& acc, RuleFindings& chunk) { acc.merge(chunk); });

  if (exhaustive) {
    // Size-table reconciliation: recount membership per root. Serial
    // O(n) — the scatter is cheap next to the scan above.
    std::vector<std::uint32_t> count(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      const VertexId root = view.meta_root(v);
      if (root < n) ++count[root];
    }
    for (VertexId v = 0; v < n; ++v) {
      if (view.meta_root(v) != v || view.meta_size(v) == count[v]) continue;
      findings.meta_root.add(error_counts(kMetaRoot,
                                          "recorded meta-vertex size does not "
                                          "match its membership count",
                                          /*expected=*/count[v],
                                          /*actual=*/view.meta_size(v), v));
    }
  }

  flush(report, selection, kTopo, std::move(findings.topo));
  flush(report, selection, kRank, std::move(findings.rank));
  flush(report, selection, kDegree, std::move(findings.degree));
  flush(report, selection, kCopy, std::move(findings.copy));
  flush(report, selection, kMetaRoot, std::move(findings.meta_root));
  flush(report, selection, kMetaSubtree, std::move(findings.meta_subtree));
  flush(report, selection, kFact1, std::move(findings.fact1));
  if (!exhaustive) {
    Diagnostic note;
    note.rule = std::string(first_enabled);
    note.severity = Severity::kNote;
    note.message = "implicit view: per-vertex rules evaluated on a "
                   "deterministic stride sample of " +
                   std::to_string(samples) + " of " + std::to_string(n) +
                   " vertices; the meta-root membership recount needs "
                   "every vertex and is skipped";
    report.add(note);
  }
  return report;
}

}  // namespace pathrouting::audit
