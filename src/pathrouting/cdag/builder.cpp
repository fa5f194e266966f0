// Construction of G_r. Vertices are emitted in id order (encA ranks
// 0..r, encB ranks 0..r, dec ranks 0..r), which is topological. The
// in-adjacency CSR offsets are known in closed form — within a rank,
// vertex (q_hi, q, p) starts at
//     rank_edge_base + q_hi * (Σ_q' nnz(q')) * plen + prefix_nnz(q) * plen
//                    + p * nnz(q)
// — so every row block writes its in_off / in_adj / in_coeff slice
// independently and the fill parallelizes over fixed blocks
// (support/parallel.hpp; bit-identical to the serial emission at any
// thread count because each slot has exactly one writer at a fixed
// offset). The Section-8 grouping and the meta-root pass are serial:
// class interning and duplicate detection are order-dependent by
// design.
#include <unordered_map>
#include <utility>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/support/debug_hooks.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::cdag {

namespace {

namespace parallel = support::parallel;

struct SparseTerm {
  std::uint64_t index;  // entry d for U/V rows, product q for W rows
  Rational coeff;
};

/// Row q of U or V as sparse terms over entries d.
std::vector<std::vector<SparseTerm>> sparse_uv(const BilinearAlgorithm& alg,
                                               Side side) {
  std::vector<std::vector<SparseTerm>> rows(
      static_cast<std::size_t>(alg.b()));
  for (int q = 0; q < alg.b(); ++q) {
    for (int d = 0; d < alg.a(); ++d) {
      const Rational& c = side == Side::A ? alg.u(q, d) : alg.v(q, d);
      if (!c.is_zero()) {
        rows[static_cast<std::size_t>(q)].push_back(
            {static_cast<std::uint64_t>(d), c});
      }
    }
    PR_REQUIRE_MSG(!rows[static_cast<std::size_t>(q)].empty(),
                   "base algorithm has an identically-zero encoding row");
  }
  return rows;
}

/// Row d of W as sparse terms over products q.
std::vector<std::vector<SparseTerm>> sparse_w(const BilinearAlgorithm& alg) {
  std::vector<std::vector<SparseTerm>> rows(static_cast<std::size_t>(alg.a()));
  for (int d = 0; d < alg.a(); ++d) {
    for (int q = 0; q < alg.b(); ++q) {
      const Rational& c = alg.w(d, q);
      if (!c.is_zero()) {
        rows[static_cast<std::size_t>(d)].push_back(
            {static_cast<std::uint64_t>(q), c});
      }
    }
    PR_REQUIRE_MSG(!rows[static_cast<std::size_t>(d)].empty(),
                   "base algorithm has an identically-zero output row");
  }
  return rows;
}

/// Prefix sums of nnz over a row set: pre[q] = Σ_{q'<q} nnz(q'),
/// pre[rows.size()] = total.
std::vector<std::uint64_t> nnz_prefix(
    const std::vector<std::vector<SparseTerm>>& rows) {
  std::vector<std::uint64_t> pre(rows.size() + 1, 0);
  for (std::size_t q = 0; q < rows.size(); ++q) {
    pre[q + 1] = pre[q] + rows[q].size();
  }
  return pre;
}

/// Fixed block grain targeting ~16k edges per chunk; depends only on
/// the rank's structure, never on the thread count.
std::uint64_t block_grain(std::uint64_t edges_per_block_times_rows,
                          std::uint64_t rows_per_group) {
  const std::uint64_t avg =
      edges_per_block_times_rows / (rows_per_group == 0 ? 1 : rows_per_group);
  const std::uint64_t target = 16384;
  return avg == 0 ? target : (target + avg - 1) / avg;
}

}  // namespace

std::uint64_t edge_count(const BilinearAlgorithm& alg, const Layout& layout) {
  std::uint64_t uv_nnz = 0, w_nnz = 0;
  for (int q = 0; q < alg.b(); ++q) {
    for (int d = 0; d < alg.a(); ++d) {
      if (!alg.u(q, d).is_zero()) ++uv_nnz;
      if (!alg.v(q, d).is_zero()) ++uv_nnz;
      if (!alg.w(d, q).is_zero()) ++w_nnz;
    }
  }
  const auto& pa = layout.pow_a();
  const auto& pb = layout.pow_b();
  const int r = layout.r();
  std::uint64_t num_edges = 2 * pb(r);
  for (int t = 1; t <= r; ++t) {
    num_edges += pb(t - 1) * pa(r - t) * uv_nnz;
    num_edges += pb(r - t) * pa(t - 1) * w_nnz;
  }
  return num_edges;
}

Cdag::Cdag(BilinearAlgorithm alg, int r, CdagOptions options)
    : alg_(std::move(alg)), layout_(alg_.n0(), alg_.b(), r) {
  const obs::TraceSpan span("cdag.build");
  const auto u_rows = sparse_uv(alg_, Side::A);
  const auto v_rows = sparse_uv(alg_, Side::B);
  const auto w_rows = sparse_w(alg_);
  // Lemma 2 precondition: no decoding copies. A trivial W row would
  // make an output a verbatim copy of a product and meta-vertices would
  // grow upward into the decoding graph; the paper (and this library)
  // excludes such degenerate bases.
  for (const auto& row : w_rows) {
    PR_REQUIRE_MSG(!(row.size() == 1 && row.front().coeff.is_one()),
                   "decoding row is a verbatim copy (violates Lemma 2 setup)");
  }

  const auto& pa = layout_.pow_a();
  const auto& pb = layout_.pow_b();
  const std::uint64_t n = layout_.num_vertices();
  const std::uint64_t b_dim = static_cast<std::uint64_t>(alg_.b());
  const std::uint64_t a_dim = static_cast<std::uint64_t>(alg_.a());
  const auto u_pre = nnz_prefix(u_rows);
  const auto v_pre = nnz_prefix(v_rows);
  const auto w_pre = nnz_prefix(w_rows);

  const std::uint64_t num_edges = edge_count(alg_, layout_);
  PR_REQUIRE_MSG(num_edges < kInvalidVertex,
                 "CDAG too large for 32-bit edge offsets");

  std::vector<std::uint32_t> in_off(n + 1);
  in_off[0] = 0;
  std::vector<VertexId> in_adj(num_edges);
  const bool coeffs = options.with_coefficients;
  if (coeffs) in_coeff_.assign(num_edges, Rational());
  copy_parent_.assign(n, kInvalidVertex);

  std::uint64_t edge_base = 0;

  // Encoding layers. Rank 0 vertices (inputs) have no in-edges.
  for (const Side side : {Side::A, Side::B}) {
    const auto& rows = side == Side::A ? u_rows : v_rows;
    const auto& pre = side == Side::A ? u_pre : v_pre;
    const VertexId rank0_base = layout_.enc(side, 0, 0, 0);
    parallel::parallel_for(0, pa(r), 1 << 16,
                           [&](std::uint64_t lo, std::uint64_t hi) {
                             for (std::uint64_t p = lo; p < hi; ++p) {
                               in_off[rank0_base + p + 1] =
                                   static_cast<std::uint32_t>(edge_base);
                             }
                           });
    for (int t = 1; t <= r; ++t) {
      const std::uint64_t plen = pa(r - t);
      const std::uint64_t num_blocks = pb(t);  // (q_hi, q) row blocks
      const VertexId rank_vbase = layout_.enc(side, t, 0, 0);
      const std::uint64_t group_edges = pre.back() * plen;  // per q_hi
      const std::uint64_t grain = block_grain(group_edges, b_dim);
      parallel::parallel_for(
          0, num_blocks, grain, [&](std::uint64_t blo, std::uint64_t bhi) {
            for (std::uint64_t j = blo; j < bhi; ++j) {
              const std::uint64_t q_hi = j / b_dim;
              const std::uint64_t q = j % b_dim;
              const auto& row = rows[static_cast<std::size_t>(q)];
              const bool trivial =
                  row.size() == 1 && row.front().coeff.is_one();
              const std::uint64_t vbase = rank_vbase + j * plen;
              const std::uint64_t ebase =
                  edge_base + q_hi * group_edges + pre[q] * plen;
              for (std::uint64_t p = 0; p < plen; ++p) {
                const VertexId self = static_cast<VertexId>(vbase + p);
                std::uint64_t e = ebase + p * row.size();
                for (const SparseTerm& term : row) {
                  in_adj[e] = layout_.enc(side, t - 1, q_hi,
                                          term.index * plen + p);
                  if (coeffs) in_coeff_[e] = term.coeff;
                  ++e;
                }
                if (trivial) copy_parent_[self] = in_adj[e - 1];
                in_off[self + 1] = static_cast<std::uint32_t>(e);
              }
            }
          });
      edge_base += pb(t - 1) * group_edges;
    }
  }

  // Multiplication layer (= decoding rank 0).
  {
    const VertexId mult_base = layout_.dec(0, 0, 0);
    parallel::parallel_for(
        0, pb(r), 1 << 14, [&](std::uint64_t lo, std::uint64_t hi) {
          for (std::uint64_t q = lo; q < hi; ++q) {
            const std::uint64_t e = edge_base + 2 * q;
            in_adj[e] = layout_.enc(Side::A, r, q, 0);
            in_adj[e + 1] = layout_.enc(Side::B, r, q, 0);
            if (coeffs) {
              in_coeff_[e] = Rational(1);
              in_coeff_[e + 1] = Rational(1);
            }
            in_off[mult_base + q + 1] = static_cast<std::uint32_t>(e + 2);
          }
        });
    edge_base += 2 * pb(r);
  }

  // Decoding layers.
  for (int t = 1; t <= r; ++t) {
    const std::uint64_t plen = pa(t - 1);
    const std::uint64_t num_blocks = pb(r - t) * a_dim;  // (q_hi, d)
    const VertexId rank_vbase = layout_.dec(t, 0, 0);
    const std::uint64_t group_edges = w_pre.back() * plen;  // per q_hi
    const std::uint64_t grain = block_grain(group_edges, a_dim);
    parallel::parallel_for(
        0, num_blocks, grain, [&](std::uint64_t blo, std::uint64_t bhi) {
          for (std::uint64_t j = blo; j < bhi; ++j) {
            const std::uint64_t q_hi = j / a_dim;
            const std::uint64_t d = j % a_dim;
            const auto& row = w_rows[static_cast<std::size_t>(d)];
            const std::uint64_t vbase = rank_vbase + j * plen;
            const std::uint64_t ebase =
                edge_base + q_hi * group_edges + w_pre[d] * plen;
            for (std::uint64_t p_lo = 0; p_lo < plen; ++p_lo) {
              const VertexId self = static_cast<VertexId>(vbase + p_lo);
              std::uint64_t e = ebase + p_lo * row.size();
              for (const SparseTerm& term : row) {
                in_adj[e] = layout_.dec(t - 1, q_hi * b_dim + term.index,
                                        p_lo);
                if (coeffs) in_coeff_[e] = term.coeff;
                ++e;
              }
              in_off[self + 1] = static_cast<std::uint32_t>(e);
            }
          }
        });
    edge_base += pb(r - t) * group_edges;
  }

  PR_ASSERT(edge_base == num_edges);
  graph_ = Graph(std::move(in_off), std::move(in_adj));

  // Section-8 grouping: canonical operand classes. Two encoding
  // vertices carry the same (generic) value iff their operands were
  // built by the same canonical sequence of nontrivial rows applied to
  // the same input side — trivial rows merely select a sub-block and
  // fold into the position via the copy chain. Each operand q⃗ at rank
  // t gets a class id interned on (parent class, representative row);
  // the meta-root of a nontrivial vertex is then the first vertex seen
  // with its (class, position) pair. Interning is order-dependent, so
  // this pass stays serial.
  grouped_duplicates_ = options.group_duplicate_rows;
  // dup_ref[v]: the same-value vertex with smaller id that v merges
  // with (kInvalidVertex if none).
  std::vector<VertexId> dup_ref;
  if (options.group_duplicate_rows) {
    std::vector<int> rep_a(static_cast<std::size_t>(alg_.b()));
    std::vector<int> rep_b(static_cast<std::size_t>(alg_.b()));
    const auto fill_reps = [&](Side side, std::vector<int>& rep) {
      for (int q = 0; q < alg_.b(); ++q) {
        rep[static_cast<std::size_t>(q)] = q;
        for (int q2 = 0; q2 < q; ++q2) {
          bool equal = true;
          for (int d = 0; d < alg_.a() && equal; ++d) {
            const Rational& x = side == Side::A ? alg_.u(q, d) : alg_.v(q, d);
            const Rational& y =
                side == Side::A ? alg_.u(q2, d) : alg_.v(q2, d);
            equal = x == y;
          }
          if (equal) {
            rep[static_cast<std::size_t>(q)] = q2;
            break;
          }
        }
      }
    };
    fill_reps(Side::A, rep_a);
    fill_reps(Side::B, rep_b);

    dup_ref.assign(n, kInvalidVertex);
    std::unordered_map<std::uint64_t, std::uint32_t> class_intern;
    std::unordered_map<std::uint64_t, VertexId> value_root;
    std::uint32_t next_class = 2;  // 0 = operand A, 1 = operand B
    class_intern.reserve(1 << 12);
    value_root.reserve(static_cast<std::size_t>(n) / 2);
    // Class of operand q⃗ at the PREVIOUS rank (parent classes) and the
    // one being built. Trivial rows keep the parent class but tag the
    // selected block so distinct sub-blocks stay distinct.
    std::vector<std::uint32_t> parent_classes, current_classes;
    const auto intern_class = [&](std::uint32_t parent, bool trivial,
                                  std::uint32_t value) {
      const std::uint64_t key = (static_cast<std::uint64_t>(parent) << 24) |
                                (static_cast<std::uint64_t>(trivial) << 23) |
                                value;
      const auto [it, inserted] = class_intern.try_emplace(key, next_class);
      if (inserted) {
        ++next_class;
        PR_ASSERT_MSG(next_class < (1u << 22), "too many operand classes");
      }
      return it->second;
    };

    for (const Side side : {Side::A, Side::B}) {
      const auto& rows = side == Side::A ? u_rows : v_rows;
      const auto& rep = side == Side::A ? rep_a : rep_b;
      parent_classes.assign(1, side == Side::A ? 0u : 1u);
      for (int t = 1; t <= r; ++t) {
        const std::uint64_t plen = pa(r - t);
        current_classes.resize(pb(t));
        for (std::uint64_t q_hi = 0; q_hi < pb(t - 1); ++q_hi) {
          for (int q = 0; q < alg_.b(); ++q) {
            const auto& row = rows[static_cast<std::size_t>(q)];
            const bool trivial =
                row.size() == 1 && row.front().coeff.is_one();
            const std::uint32_t op_class = intern_class(
                parent_classes[q_hi], trivial,
                trivial ? static_cast<std::uint32_t>(row.front().index)
                        : static_cast<std::uint32_t>(
                              rep[static_cast<std::size_t>(q)]));
            const std::uint64_t q_word =
                q_hi * b_dim + static_cast<std::uint64_t>(q);
            current_classes[q_word] = op_class;
            if (trivial) continue;
            for (std::uint64_t p = 0; p < plen; ++p) {
              const VertexId self = layout_.enc(side, t, q_word, p);
              PR_ASSERT(p < (std::uint64_t{1} << 40));
              const std::uint64_t key =
                  (static_cast<std::uint64_t>(op_class) << 40) | p;
              const auto [it, inserted] = value_root.try_emplace(key, self);
              if (!inserted) dup_ref[self] = it->second;
            }
          }
        }
        parent_classes.swap(current_classes);
      }
    }
  }

  // Meta-vertex roots: follow copy parents (and duplicate-row
  // references, when grouping) downward. Both point to smaller ids, so
  // one forward pass suffices.
  meta_root_.resize(n);
  meta_size_.assign(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (copy_parent_[v] != kInvalidVertex) {
      meta_root_[v] = meta_root_[copy_parent_[v]];
    } else if (options.group_duplicate_rows &&
               dup_ref[v] != kInvalidVertex) {
      PR_ASSERT(dup_ref[v] < v);
      meta_root_[v] = meta_root_[dup_ref[v]];
    } else {
      meta_root_[v] = v;
    }
    ++meta_size_[meta_root_[v]];
  }

  static obs::Counter obs_builds("cdag.builds");
  static obs::Counter obs_edges("cdag.edges");
  obs_builds.add();
  obs_edges.add(num_edges);

  // Debug-check builds re-audit every freshly constructed CDAG; the
  // hook is installed by the audit layer (see audit::install_debug_hooks)
  // and is a single null-pointer load otherwise.
  support::run_debug_hook(support::DebugHookPoint::kCdagBuilt, this);
}

}  // namespace pathrouting::cdag
