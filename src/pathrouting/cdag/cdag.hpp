// The recursive computation DAG G_r of a Strassen-like algorithm,
// together with per-edge coefficients and the copy/meta-vertex
// structure (Section 3 of the paper).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pathrouting/bilinear/bilinear.hpp"
#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/cdag/layout.hpp"

namespace pathrouting::cdag {

using bilinear::BilinearAlgorithm;
using support::Rational;

struct CdagOptions {
  /// Store per-edge coefficients (needed for numeric evaluation; the
  /// pebble game and routings only need the structure).
  bool with_coefficients = true;
  /// Extend meta-vertices to group encoding vertices whose defining
  /// rows are identical *nontrivial* combinations (the value-level
  /// equivalence for algorithms that use one combination in several
  /// multiplications — the regime of Section 8, where the paper's
  /// single-use assumption fails and it conjectures the bound still
  /// holds). With this on, meta-vertices are general same-value
  /// classes, no longer upward subtrees; the routing-theorem meta
  /// claims do not apply, but the segment certifier does and is how
  /// the conjecture is probed empirically (bench_extension).
  bool group_duplicate_rows = false;
};

/// Edge count of G_r (`layout`) for `alg` in closed form, without
/// building anything: an encoding vertex of rank t >= 1 has one in-edge
/// per nonzero of the U (resp. V) row of its last recursion digit, a
/// decoding vertex of rank t >= 1 one per nonzero of the W row of its
/// leading position digit, and a product two. Cdag requires it below
/// kInvalidVertex (32-bit edge offsets), so callers that must not abort
/// check it first.
[[nodiscard]] std::uint64_t edge_count(const BilinearAlgorithm& alg,
                                       const Layout& layout);

class Cdag {
 public:
  /// Builds G_r for the given base algorithm. Aborts if any encoding
  /// row of the base is identically zero (a product of nothing) or any
  /// decoding row is trivial (an output that IS a product would extend
  /// meta-vertices into the decoding graph, which Lemma 2 rules out for
  /// the algorithms in scope).
  Cdag(BilinearAlgorithm alg, int r, CdagOptions options = {});

  [[nodiscard]] const BilinearAlgorithm& algorithm() const { return alg_; }
  [[nodiscard]] const Layout& layout() const { return layout_; }
  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] int r() const { return layout_.r(); }

  [[nodiscard]] bool has_coefficients() const { return !in_coeff_.empty(); }
  /// Coefficient of global in-edge `e` (index into the in-adjacency
  /// array; see Graph::in_edge_base). Product vertices have coefficient
  /// 1 on both in-edges (they multiply, not combine).
  [[nodiscard]] const Rational& in_coeff(std::uint64_t e) const {
    PR_DCHECK_MSG(e < in_coeff_.size(), "global in-edge index out of range");
    return in_coeff_[e];
  }

  /// The unique predecessor v is a verbatim copy of, or kInvalidVertex
  /// if v is not a copy vertex. Copies arise exactly at encoding
  /// vertices whose base row is trivial (single coefficient 1).
  [[nodiscard]] VertexId copy_parent(VertexId v) const {
    return copy_parent_[v];
  }
  /// Root of v's meta-vertex (v itself when v is not a copy). All
  /// vertices with the same root carry the same value; the root is the
  /// unique vertex of the meta-vertex with a non-copy definition
  /// ("rooted at one of the input vertices" under the paper's
  /// single-use assumption).
  [[nodiscard]] VertexId meta_root(VertexId v) const { return meta_root_[v]; }
  /// Number of vertices in v's meta-vertex (queried on any member).
  [[nodiscard]] std::uint32_t meta_size(VertexId v) const {
    return meta_size_[meta_root_[v]];
  }
  /// True iff v's meta-vertex has more than one vertex ("duplicated
  /// vertex" in Section 6).
  [[nodiscard]] bool is_duplicated(VertexId v) const {
    return meta_size(v) > 1;
  }

  /// True when built with group_duplicate_rows (meta-vertices are
  /// same-value classes rather than copy subtrees).
  [[nodiscard]] bool grouped_duplicates() const {
    return grouped_duplicates_;
  }

  /// Whole-table views of the per-vertex copy/meta structure and
  /// per-edge coefficients (empty when built without coefficients).
  /// The audit layer scans these wholesale; per-vertex accessors above
  /// remain the API for point queries.
  [[nodiscard]] std::span<const VertexId> copy_parents() const {
    return copy_parent_;
  }
  [[nodiscard]] std::span<const VertexId> meta_roots() const {
    return meta_root_;
  }
  [[nodiscard]] std::span<const std::uint32_t> meta_sizes() const {
    return meta_size_;
  }
  [[nodiscard]] std::span<const Rational> in_coeffs() const {
    return in_coeff_;
  }

 private:
  BilinearAlgorithm alg_;
  Layout layout_;
  Graph graph_;
  std::vector<Rational> in_coeff_;
  std::vector<VertexId> copy_parent_;
  std::vector<VertexId> meta_root_;
  std::vector<std::uint32_t> meta_size_;
  bool grouped_duplicates_ = false;
};

}  // namespace pathrouting::cdag
