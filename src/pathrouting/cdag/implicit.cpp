#include "pathrouting/cdag/implicit.hpp"

#include <algorithm>

namespace pathrouting::cdag {

namespace {

/// Sparse nonzero positions of the b x a (or a x b) coefficient table,
/// row-major, ascending within each row — the same order the explicit
/// builder emits edges in.
template <typename CoeffAt>
void fill_sparse(std::uint64_t rows, std::uint64_t cols,
                 const CoeffAt& coeff_at, std::vector<std::uint32_t>& off,
                 std::vector<std::uint32_t>& indices) {
  off.assign(rows + 1, 0);
  indices.clear();
  for (std::uint64_t i = 0; i < rows; ++i) {
    for (std::uint64_t j = 0; j < cols; ++j) {
      if (!coeff_at(i, j).is_zero()) {
        indices.push_back(static_cast<std::uint32_t>(j));
      }
    }
    off[i + 1] = static_cast<std::uint32_t>(indices.size());
  }
}

}  // namespace

ImplicitCdag::ImplicitCdag(BilinearAlgorithm alg, int r)
    : alg_(std::move(alg)), layout_(alg_.n0(), alg_.b(), r) {
  const std::uint64_t a = static_cast<std::uint64_t>(alg_.a());
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  const auto u = [&](std::uint64_t q, std::uint64_t d) -> const Rational& {
    return alg_.u(static_cast<int>(q), static_cast<int>(d));
  };
  const auto v = [&](std::uint64_t q, std::uint64_t d) -> const Rational& {
    return alg_.v(static_cast<int>(q), static_cast<int>(d));
  };
  const auto w = [&](std::uint64_t d, std::uint64_t q) -> const Rational& {
    return alg_.w(static_cast<int>(d), static_cast<int>(q));
  };
  fill_sparse(b, a, u, u_rows_.off, u_rows_.indices);
  fill_sparse(b, a, v, v_rows_.off, v_rows_.indices);
  fill_sparse(a, b, w, w_rows_.off, w_rows_.indices);
  const auto ut = [&](std::uint64_t d, std::uint64_t q) -> const Rational& {
    return u(q, d);
  };
  const auto vt = [&](std::uint64_t d, std::uint64_t q) -> const Rational& {
    return v(q, d);
  };
  const auto wt = [&](std::uint64_t q, std::uint64_t d) -> const Rational& {
    return w(d, q);
  };
  fill_sparse(a, b, ut, u_cols_.off, u_cols_.indices);
  fill_sparse(a, b, vt, v_cols_.off, v_cols_.indices);
  fill_sparse(b, a, wt, w_cols_.off, w_cols_.indices);

  // Same base-graph preconditions as the explicit builder.
  for (std::uint64_t q = 0; q < b; ++q) {
    PR_REQUIRE_MSG(u_rows_.nnz(q) > 0 && v_rows_.nnz(q) > 0,
                   "base algorithm has an identically-zero encoding row");
  }
  for (std::uint64_t d = 0; d < a; ++d) {
    PR_REQUIRE_MSG(
        !(w_rows_.nnz(d) == 1 &&
          w(d, w_rows_.row(d).front()).is_one()),
        "decoding row is a verbatim copy (violates Lemma 2 setup)");
    PR_REQUIRE_MSG(w_rows_.nnz(d) > 0,
                   "base algorithm has an identically-zero output row");
  }

  triv_a_.assign(b, 0);
  triv_b_.assign(b, 0);
  copy_src_a_.assign(b, 0);
  copy_src_b_.assign(b, 0);
  fan_a_.assign(a, 0);
  fan_b_.assign(a, 0);
  for (std::uint64_t q = 0; q < b; ++q) {
    if (u_rows_.nnz(q) == 1 && u(q, u_rows_.row(q).front()).is_one()) {
      triv_a_[q] = 1;
      copy_src_a_[q] = u_rows_.row(q).front();
      ++fan_a_[copy_src_a_[q]];
    }
    if (v_rows_.nnz(q) == 1 && v(q, v_rows_.row(q).front()).is_one()) {
      triv_b_[q] = 1;
      copy_src_b_[q] = v_rows_.row(q).front();
      ++fan_b_[copy_src_b_[q]];
    }
  }

  // The builder's edge count (no 32-bit offset limit: the implicit graph
  // stores no offsets).
  num_edges_ = edge_count(alg_, layout_);
}

std::uint32_t ImplicitCdag::in_degree(VertexId v) const {
  const VertexRef ref = layout_.ref(v);
  if (ref.layer != LayerKind::Dec) {
    if (ref.rank == 0) return 0;
    const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
    return enc_rows(side).nnz(ref.q % static_cast<std::uint64_t>(alg_.b()));
  }
  if (ref.rank == 0) return 2;
  return w_rows_.nnz(ref.p / layout_.pow_a()(ref.rank - 1));
}

std::uint32_t ImplicitCdag::out_degree(VertexId v) const {
  const VertexRef ref = layout_.ref(v);
  const int r = layout_.r();
  if (ref.layer != LayerKind::Dec) {
    if (ref.rank == r) return 1;
    const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
    return enc_cols(side).nnz(ref.p / layout_.pow_a()(r - ref.rank - 1));
  }
  if (ref.rank == r) return 0;
  return w_cols_.nnz(ref.q % static_cast<std::uint64_t>(alg_.b()));
}

std::span<const VertexId> ImplicitCdag::in(
    VertexId v, std::vector<VertexId>& scratch) const {
  const VertexRef ref = layout_.ref(v);
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  scratch.clear();
  if (ref.layer != LayerKind::Dec) {
    if (ref.rank == 0) return {};
    const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
    const std::uint64_t plen = layout_.pow_a()(layout_.r() - ref.rank);
    const std::uint64_t q_hi = ref.q / b;
    for (const std::uint32_t d : enc_rows(side).row(ref.q % b)) {
      scratch.push_back(
          layout_.enc(side, ref.rank - 1, q_hi, d * plen + ref.p));
    }
  } else if (ref.rank == 0) {
    scratch.push_back(layout_.enc(Side::A, layout_.r(), ref.q, 0));
    scratch.push_back(layout_.enc(Side::B, layout_.r(), ref.q, 0));
  } else {
    const std::uint64_t plen = layout_.pow_a()(ref.rank - 1);
    const std::uint64_t p_lo = ref.p % plen;
    for (const std::uint32_t q_term : w_rows_.row(ref.p / plen)) {
      scratch.push_back(layout_.dec(ref.rank - 1, ref.q * b + q_term, p_lo));
    }
  }
  return {scratch.data(), scratch.size()};
}

std::span<const VertexId> ImplicitCdag::out(
    VertexId v, std::vector<VertexId>& scratch) const {
  const VertexRef ref = layout_.ref(v);
  const int r = layout_.r();
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  scratch.clear();
  if (ref.layer != LayerKind::Dec) {
    const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
    if (ref.rank == r) {
      scratch.push_back(layout_.dec(0, ref.q, 0));
    } else {
      const std::uint64_t plen = layout_.pow_a()(r - ref.rank - 1);
      const std::uint64_t p_rest = ref.p % plen;
      for (const std::uint32_t q_next : enc_cols(side).row(ref.p / plen)) {
        scratch.push_back(
            layout_.enc(side, ref.rank + 1, ref.q * b + q_next, p_rest));
      }
    }
  } else if (ref.rank < r) {
    const std::uint64_t plen = layout_.pow_a()(ref.rank);
    const std::uint64_t q_hi = ref.q / b;
    for (const std::uint32_t d : w_cols_.row(ref.q % b)) {
      scratch.push_back(layout_.dec(ref.rank + 1, q_hi, d * plen + ref.p));
    }
  }
  return {scratch.data(), scratch.size()};
}

bool ImplicitCdag::has_edge(VertexId from, VertexId to) const {
  if (from >= to) return false;  // ids are topological
  std::vector<VertexId> buf;
  const std::span<const VertexId> preds = in(to, buf);
  return std::find(preds.begin(), preds.end(), from) != preds.end();
}

VertexId ImplicitCdag::enc_copy_parent(Side side, int t, std::uint64_t q,
                                       std::uint64_t p) const {
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  const std::uint64_t q_last = q % b;
  if (!trivial_row(side, static_cast<int>(q_last))) return kInvalidVertex;
  const auto& src = side == Side::A ? copy_src_a_ : copy_src_b_;
  const std::uint64_t plen = layout_.pow_a()(layout_.r() - t);
  return layout_.enc(side, t - 1, q / b, src[q_last] * plen + p);
}

VertexId ImplicitCdag::copy_parent(VertexId v) const {
  const VertexRef ref = layout_.ref(v);
  if (ref.layer == LayerKind::Dec || ref.rank == 0) return kInvalidVertex;
  const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
  return enc_copy_parent(side, ref.rank, ref.q, ref.p);
}

VertexId ImplicitCdag::meta_root(VertexId v) const {
  const VertexRef ref = layout_.ref(v);
  if (ref.layer == LayerKind::Dec) return v;
  const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  const auto& triv = side == Side::A ? triv_a_ : triv_b_;
  const auto& src = side == Side::A ? copy_src_a_ : copy_src_b_;
  int t = ref.rank;
  std::uint64_t q = ref.q;
  std::uint64_t p = ref.p;
  while (t >= 1 && triv[q % b] != 0) {
    p = src[q % b] * layout_.pow_a()(layout_.r() - t) + p;
    q /= b;
    --t;
  }
  return layout_.enc(side, t, q, p);
}

std::uint32_t ImplicitCdag::meta_size(VertexId v) const {
  const VertexRef ref = layout_.ref(v);
  if (ref.layer == LayerKind::Dec) return 1;
  const Side side = ref.layer == LayerKind::EncA ? Side::A : Side::B;
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  const std::uint64_t a = static_cast<std::uint64_t>(alg_.a());
  const auto& triv = side == Side::A ? triv_a_ : triv_b_;
  const auto& src = side == Side::A ? copy_src_a_ : copy_src_b_;
  const auto& fan = side == Side::A ? fan_a_ : fan_b_;
  // Walk down to the root, then count the root's copy subtree: a root
  // at position p = d_1..d_len spawns T_side[d_1] copies whose
  // positions are d_2..d_len, recursively —
  //   size(d_1..d_len) = 1 + T_side[d_1] * size(d_2..d_len).
  int t = ref.rank;
  std::uint64_t q = ref.q;
  std::uint64_t p = ref.p;
  while (t >= 1 && triv[q % b] != 0) {
    p = src[q % b] * layout_.pow_a()(layout_.r() - t) + p;
    q /= b;
    --t;
  }
  std::uint64_t size = 1;
  for (int len = layout_.r() - t; len > 0; --len) {
    size = 1 + fan[p % a] * size;  // innermost position digit first
    p /= a;
  }
  PR_ASSERT(size <= kInvalidVertex);
  return static_cast<std::uint32_t>(size);
}

}  // namespace pathrouting::cdag
