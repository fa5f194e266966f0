#include "pathrouting/routing/memo_routing.hpp"

#include <algorithm>
#include <mutex>

#include "pathrouting/obs/obs.hpp"

namespace pathrouting::routing {

namespace {

using cdag::CopyBlock;
using cdag::CopyTranslation;
using cdag::Layout;
using cdag::SubComputation;

/// n0^0 .. n0^k as plain uint64 (layout pow tables cover a and b only).
std::vector<std::uint64_t> pow_n0_table(int n0, int k) {
  std::vector<std::uint64_t> pow(static_cast<std::size_t>(k) + 1, 1);
  for (int t = 1; t <= k; ++t) {
    pow[static_cast<std::size_t>(t)] =
        pow[static_cast<std::size_t>(t) - 1] * static_cast<std::uint64_t>(n0);
  }
  return pow;
}

/// M_side[q] = #{guaranteed digit pairs (d, e) matched to product q}.
std::vector<std::uint64_t> matched_pair_counts(const BilinearAlgorithm& alg,
                                               Side side,
                                               const BaseMatching& mu) {
  std::vector<std::uint64_t> m(static_cast<std::size_t>(alg.b()), 0);
  for (int d = 0; d < alg.a(); ++d) {
    for (int e = 0; e < alg.a(); ++e) {
      if (is_guaranteed_digit_pair(alg.n0(), side, d, e)) {
        ++m[static_cast<std::size_t>(mu.product(d, e))];
      }
    }
  }
  return m;
}

/// Prefix products P_t[q_1..q_t] = prod_i M[q_i] for t = 0..k; the
/// level-t table is indexed by the base-b word q_1..q_t.
std::vector<std::vector<std::uint64_t>> prefix_products(
    const std::vector<std::uint64_t>& m, int b, int k) {
  std::vector<std::vector<std::uint64_t>> p(static_cast<std::size_t>(k) + 1);
  p[0] = {1};
  for (int t = 1; t <= k; ++t) {
    const auto& prev = p[static_cast<std::size_t>(t) - 1];
    auto& cur = p[static_cast<std::size_t>(t)];
    cur.resize(prev.size() * static_cast<std::size_t>(b));
    for (std::size_t qw = 0; qw < cur.size(); ++qw) {
      cur[qw] = prev[qw / static_cast<std::size_t>(b)] *
                m[qw % static_cast<std::size_t>(b)];
    }
  }
  return p;
}

/// One equivalence class of recursion-path words of a fixed length:
/// all words sharing the (wrapped) prefix products of M_A and M_B have
/// identical hit counts on every rank they index, so per class only the
/// products and the smallest representative word (for smallest-id
/// argmax tie-breaks) are needed. Keyed std::map for a deterministic
/// iteration order.
using DigitStates = std::map<std::pair<std::uint64_t, std::uint64_t>,
                             std::uint64_t>;

/// The class sets for word lengths 0..k. Multiplication composes per
/// digit, so level t refines level t-1 by one ascending digit — exactly
/// the left-fold the canonical prefix_products tables wrap under, which
/// keeps every class product bit-identical to the table entries.
std::vector<DigitStates> wrapped_state_levels(
    const std::vector<std::uint64_t>& m_a,
    const std::vector<std::uint64_t>& m_b, int b, int k) {
  std::vector<DigitStates> levels(static_cast<std::size_t>(k) + 1);
  levels[0].emplace(std::make_pair(std::uint64_t{1}, std::uint64_t{1}), 0);
  for (int t = 1; t <= k; ++t) {
    DigitStates& next = levels[static_cast<std::size_t>(t)];
    for (const auto& [key, word] : levels[static_cast<std::size_t>(t) - 1]) {
      for (int d = 0; d < b; ++d) {
        const std::pair<std::uint64_t, std::uint64_t> nk{
            key.first * m_a[static_cast<std::size_t>(d)],
            key.second * m_b[static_cast<std::size_t>(d)]};
        const std::uint64_t nw =
            word * static_cast<std::uint64_t>(b) + static_cast<std::uint64_t>(d);
        const auto [it, inserted] = next.emplace(nk, nw);
        if (!inserted && nw < it->second) it->second = nw;
      }
    }
    PR_REQUIRE_MSG(next.size() <= (std::size_t{1} << 20),
                   "digit-state classes exploded; implicit engine assumes "
                   "few distinct matched-pair products");
  }
  return levels;
}

/// The canonical-G_k chain-hit extremum (max and FIRST local vertex id
/// attaining it), scaled by `mult`, without the array: ranks are walked
/// in local id order (encA 0..k, encB 0..k, dec 0..k) and within a rank
/// the count is constant in the position word, so per rank the winner
/// is the best class (largest value, then smallest word) at position 0.
/// Strict > across ranks keeps the earliest id, matching the explicit
/// v = 0..n scan even when wraparound reorders values.
struct LocalExtremum {
  std::uint64_t max = 0;
  VertexId argmax = 0;
};

LocalExtremum scan_copy_extremum(const Layout& local,
                                 const std::vector<DigitStates>& levels,
                                 const std::vector<std::uint64_t>& pow_n0,
                                 std::uint64_t mult) {
  const int k = local.r();
  LocalExtremum ext;
  const auto rank_best = [&](int len,
                             const auto& value) -> std::pair<std::uint64_t,
                                                             std::uint64_t> {
    std::uint64_t best_val = 0, best_word = 0;
    bool have = false;
    for (const auto& [key, word] : levels[static_cast<std::size_t>(len)]) {
      const std::uint64_t val = value(key);
      if (!have || val > best_val || (val == best_val && word < best_word)) {
        have = true;
        best_val = val;
        best_word = word;
      }
    }
    return {best_val, best_word};
  };
  for (const Side side : {Side::A, Side::B}) {
    for (int t = 0; t <= k; ++t) {
      const auto [val, word] = rank_best(t, [&](const auto& key) {
        const std::uint64_t p = side == Side::A ? key.first : key.second;
        return mult * (p * pow_n0[static_cast<std::size_t>(k - t)]);
      });
      if (val > ext.max) {
        ext.max = val;
        ext.argmax = local.enc(side, t, word, 0);
      }
    }
  }
  for (int t = 0; t <= k; ++t) {
    const auto [val, word] = rank_best(k - t, [&](const auto& key) {
      return mult *
             ((key.first + key.second) * pow_n0[static_cast<std::size_t>(t)]);
    });
    if (val > ext.max) {
      ext.max = val;
      ext.argmax = local.dec(t, word, 0);
    }
  }
  return ext;
}

}  // namespace

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kBrute:
      return "brute";
    case EngineKind::kMemo:
      return "memo";
    case EngineKind::kImplicit:
      return "implicit";
  }
  PR_UNREACHABLE();
}

struct MemoRoutingEngine::CanonicalCounts {
  explicit CanonicalCounts(Layout layout) : layout(std::move(layout)) {}
  Layout layout;  // the standalone canonical G_k
  std::vector<std::uint64_t> chain_hits;
  std::vector<std::uint64_t> decode_hits;  // empty without a decoder
};

MemoRoutingEngine::~MemoRoutingEngine() = default;

MemoRoutingEngine::MemoRoutingEngine(const ChainRouter& router)
    : alg_(router.algorithm()),
      mu_a_(router.matching(Side::A)),
      mu_b_(router.matching(Side::B)),
      m_a_(matched_pair_counts(alg_, Side::A, mu_a_)),
      m_b_(matched_pair_counts(alg_, Side::B, mu_b_)) {
  // Trivial (single-coefficient-1) encoding rows, i.e. the builder's
  // copy vertices: the implicit Theorem-2 accounting needs them for the
  // root-hit and meta-root conditions.
  triv_a_.assign(static_cast<std::size_t>(alg_.b()), 0);
  triv_b_.assign(static_cast<std::size_t>(alg_.b()), 0);
  for (int q = 0; q < alg_.b(); ++q) {
    for (const Side side : {Side::A, Side::B}) {
      int nnz = 0, entry = 0;
      for (int d = 0; d < alg_.a(); ++d) {
        const auto& c = side == Side::A ? alg_.u(q, d) : alg_.v(q, d);
        if (!c.is_zero()) {
          ++nnz;
          entry = d;
        }
      }
      const bool trivial =
          nnz == 1 && (side == Side::A ? alg_.u(q, entry).is_one()
                                       : alg_.v(q, entry).is_one());
      auto& triv = side == Side::A ? triv_a_ : triv_b_;
      triv[static_cast<std::size_t>(q)] = trivial ? 1 : 0;
    }
  }
}

MemoRoutingEngine::MemoRoutingEngine(const ChainRouter& router,
                                     const DecodeRouter& decoder)
    : MemoRoutingEngine(router) {
  PR_REQUIRE_MSG(decoder.d1_size() == alg_.a() + alg_.b(),
                 "decoder built from a different base algorithm");
  decoder_ = decoder;
  // CPint[x]: strictly-interior product visits (even path index >= 2);
  // CO[y]: output visits (odd index, terminal included). Index 0 is the
  // path's starting product, whose D_k vertex is accounted for by the
  // previous recursion level (or by the initial path vertex).
  cpint_.assign(static_cast<std::size_t>(alg_.b()), 0);
  co_.assign(static_cast<std::size_t>(alg_.a()), 0);
  for (int q = 0; q < alg_.b(); ++q) {
    for (int e = 0; e < alg_.a(); ++e) {
      const std::vector<int>& path = decoder_->d1_path(q, e);
      for (std::size_t i = 1; i < path.size(); ++i) {
        auto& table = i % 2 == 1 ? co_ : cpint_;
        ++table[static_cast<std::size_t>(path[i])];
      }
    }
  }
  for (const std::uint64_t c : cpint_) cpint_sum_ += c;
  for (const std::uint64_t c : co_) co_sum_ += c;
}

const MemoRoutingEngine::CanonicalCounts& MemoRoutingEngine::canonical(
    int k) const {
  static obs::Counter obs_hits("memo.canonical_cache_hits");
  static obs::Counter obs_misses("memo.canonical_cache_misses");
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = cache_.find(k);
    if (it != cache_.end()) {
      obs_hits.add();
      return *it->second;
    }
  }
  obs_misses.add();
  const obs::TraceSpan span("memo.canonical_fill");

  auto cc = std::make_unique<CanonicalCounts>(Layout(alg_.n0(), alg_.b(), k));
  const Layout& local = cc->layout;
  const auto& pow_a = local.pow_a();
  const auto& pow_b = local.pow_b();
  const std::vector<std::uint64_t> pow_n0 = pow_n0_table(alg_.n0(), k);
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());

  // --- Lemma-3 chain hits, closed form (see header). ---
  cc->chain_hits.assign(local.num_vertices(), 0);
  const auto pa = prefix_products(m_a_, alg_.b(), k);
  const auto pb = prefix_products(m_b_, alg_.b(), k);
  for (const Side side : {Side::A, Side::B}) {
    const auto& pp = side == Side::A ? pa : pb;
    for (int t = 0; t <= k; ++t) {
      for (std::uint64_t qw = 0; qw < pow_b(t); ++qw) {
        const std::uint64_t val =
            pp[static_cast<std::size_t>(t)][qw] *
            pow_n0[static_cast<std::size_t>(k - t)];
        const VertexId base = local.enc(side, t, qw, 0);
        for (std::uint64_t p = 0; p < pow_a(k - t); ++p) {
          cc->chain_hits[base + p] = val;
        }
      }
    }
  }
  for (int t = 0; t <= k; ++t) {
    for (std::uint64_t qw = 0; qw < pow_b(k - t); ++qw) {
      const std::uint64_t val =
          (pa[static_cast<std::size_t>(k - t)][qw] +
           pb[static_cast<std::size_t>(k - t)][qw]) *
          pow_n0[static_cast<std::size_t>(t)];
      const VertexId base = local.dec(t, qw, 0);
      for (std::uint64_t p = 0; p < pow_a(t); ++p) {
        cc->chain_hits[base + p] = val;
      }
    }
  }

  // --- Claim-1 decode hits, closed form (see header). ---
  if (decoder_.has_value()) {
    const std::uint64_t a = static_cast<std::uint64_t>(alg_.a());
    cc->decode_hits.assign(local.num_vertices(), 0);
    // Rank 0: once per path starting here, plus interior revisits.
    for (std::uint64_t q = 0; q < pow_b(k); ++q) {
      cc->decode_hits[local.dec(0, q, 0)] =
          (a + cpint_[q % b]) * pow_a(k - 1);
    }
    for (int t = 1; t < k; ++t) {
      for (std::uint64_t q = 0; q < pow_b(k - t); ++q) {
        const std::uint64_t down = cpint_[q % b] * pow_b(t) * pow_a(k - t - 1);
        const VertexId base = local.dec(t, q, 0);
        for (std::uint64_t p = 0; p < pow_a(t); ++p) {
          cc->decode_hits[base + p] =
              down + co_[p / pow_a(t - 1)] * pow_b(t - 1) * pow_a(k - t);
        }
      }
    }
    for (std::uint64_t p = 0; p < pow_a(k); ++p) {
      cc->decode_hits[local.dec(k, 0, p)] =
          co_[p / pow_a(k - 1)] * pow_b(k - 1);
    }
  }

  // The fill above ran outside the lock so concurrent readers of other
  // ranks were never blocked; a racing thread may have inserted the
  // same k first, in which case its (bit-identical) entry wins and this
  // candidate is dropped.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  return *cache_.emplace(k, std::move(cc)).first->second;
}

std::span<const std::uint64_t> MemoRoutingEngine::canonical_chain_hit_array(
    int k) const {
  PR_REQUIRE_MSG(k >= 1, "canonical arrays exist for k >= 1");
  return canonical(k).chain_hits;
}

std::span<const std::uint64_t> MemoRoutingEngine::canonical_decode_hit_array(
    int k) const {
  PR_REQUIRE_MSG(k >= 1, "canonical arrays exist for k >= 1");
  PR_REQUIRE_MSG(has_decoder(),
                 "engine was constructed without a DecodeRouter");
  return canonical(k).decode_hits;
}

ChainHitCounts MemoRoutingEngine::chain_hits(const SubComputation& sub) const {
  const obs::TraceSpan span("memo.chain_hits");
  const HitStats stats = verify_chain_routing(sub);
  const Layout& global = sub.cdag().layout();
  const int k = sub.k();
  const CanonicalCounts& cc = canonical(k);
  const CopyTranslation map(global, k, sub.prefix());
  ChainHitCounts counts;
  counts.hits.assign(global.num_vertices(), 0);
  for (const CopyBlock& blk : map.blocks()) {
    std::copy_n(cc.chain_hits.begin() + blk.local_base, blk.length,
                counts.hits.begin() + blk.global_base);
  }
  static obs::Counter obs_blocks("memo.copy_blocks");
  obs_blocks.add(map.blocks().size());
  counts.num_chains = stats.num_paths;
  counts.max_hits = stats.max_hits;
  counts.argmax = stats.argmax;
  return counts;
}

HitStats MemoRoutingEngine::verify_chain_routing(
    const SubComputation& sub) const {
  return verify_chain_routing(cdag::ExplicitView(sub.cdag()), sub.k(),
                              sub.prefix());
}

bool MemoRoutingEngine::verify_chain_multiplicities(
    const SubComputation& sub) const {
  return verify_chain_multiplicities(cdag::ExplicitView(sub.cdag()), sub.k(),
                                     sub.prefix());
}

bool MemoRoutingEngine::chain_multiplicities_ok() const {
  const int n0 = alg_.n0();
  const int a = alg_.a();
  // Role-resolved use counters of the 2*a*n0 guaranteed digit chains:
  // chain key = (side, input digit, free digit of the output), role =
  // position in the Lemma-4 three-chain sequence.
  std::vector<std::uint64_t> uses(
      static_cast<std::size_t>(2 * a * n0 * 3), 0);
  bool all_guaranteed = true;
  const auto use = [&](Side side, int d_in, int d_out, int role) {
    if (!is_guaranteed_digit_pair(n0, side, d_in, d_out)) {
      all_guaranteed = false;
      return;
    }
    const int f = side == Side::A ? d_out % n0 : d_out / n0;
    const int s = side == Side::A ? 0 : 1;
    ++uses[static_cast<std::size_t>(((s * a + d_in) * n0 + f) * 3 + role)];
  };
  // The k = 1 specs of Lemma 4's sequences (make_spec, digit level).
  for (int v = 0; v < a; ++v) {
    const int vr = v / n0, vc = v % n0;
    for (int w = 0; w < a; ++w) {
      const int wr = w / n0, wc = w % n0;
      {  // A-side input: a_ij -> c_ij' <- b_jj' -> c_i'j'
        const int x = vr * n0 + wc, y = vc * n0 + wc;
        use(Side::A, v, x, 0);
        use(Side::B, y, x, 1);
        use(Side::B, y, w, 2);
      }
      {  // B-side input: b_ij -> c_i'j <- a_i'i -> c_i'j'
        const int x = wr * n0 + vc, y = wr * n0 + vr;
        use(Side::B, v, x, 0);
        use(Side::A, y, x, 1);
        use(Side::A, y, w, 2);
      }
    }
  }
  if (!all_guaranteed) return false;
  // Each digit chain carrying each role exactly n0 times at k = 1
  // factorizes to exactly 3 * n0^k uses of every chain of sub.
  return std::all_of(uses.begin(), uses.end(), [&](std::uint64_t u) {
    return u == static_cast<std::uint64_t>(n0);
  });
}

FullRoutingStats MemoRoutingEngine::verify_full_routing(
    const SubComputation& sub) const {
  return verify_full_routing(cdag::ExplicitView(sub.cdag()), sub.k(),
                             sub.prefix());
}

std::vector<std::uint64_t> MemoRoutingEngine::decode_hits(
    const SubComputation& sub) const {
  check_view(cdag::ExplicitView(sub.cdag()), sub.k(), sub.prefix());
  PR_REQUIRE_MSG(has_decoder(),
                 "engine was constructed without a DecodeRouter");
  const obs::TraceSpan span("memo.decode_hits");
  const Layout& global = sub.cdag().layout();
  const CanonicalCounts& cc = canonical(sub.k());
  const CopyTranslation map(global, sub.k(), sub.prefix());
  std::vector<std::uint64_t> hits(global.num_vertices(), 0);
  for (const CopyBlock& blk : map.blocks()) {
    std::copy_n(cc.decode_hits.begin() + blk.local_base, blk.length,
                hits.begin() + blk.global_base);
  }
  static obs::Counter obs_blocks("memo.copy_blocks");
  obs_blocks.add(map.blocks().size());
  return hits;
}

HitStats MemoRoutingEngine::verify_decode_routing(
    const SubComputation& sub) const {
  return verify_decode_routing(cdag::ExplicitView(sub.cdag()), sub.k(),
                               sub.prefix());
}

void MemoRoutingEngine::check_view(const cdag::CdagView& view, int k,
                                   std::uint64_t prefix) const {
  const Layout& layout = view.layout();
  PR_REQUIRE_MSG(layout.n0() == alg_.n0() && layout.b() == alg_.b(),
                 "view belongs to a different base algorithm");
  PR_REQUIRE_MSG(k >= 1 && k <= layout.r(),
                 "implicit engine routes G_k copies with 1 <= k <= r");
  PR_REQUIRE_MSG(prefix < layout.pow_b()(layout.r() - k),
                 "copy prefix out of range");
}

HitStats MemoRoutingEngine::verify_chain_routing(const cdag::CdagView& view,
                                                 int k,
                                                 std::uint64_t prefix) const {
  check_view(view, k, prefix);
  const obs::TraceSpan span("memo.implicit_chain");
  const Layout& global = view.layout();
  const Layout local(alg_.n0(), alg_.b(), k);
  const auto levels = wrapped_state_levels(m_a_, m_b_, alg_.b(), k);
  const auto pow_n0 = pow_n0_table(alg_.n0(), k);
  const LocalExtremum ext = scan_copy_extremum(local, levels, pow_n0, 1);
  HitStats stats;
  stats.num_paths = 2 * global.pow_a()(k) * guaranteed_fanout(global, k);
  stats.bound = 2 * guaranteed_fanout(global, k);
  stats.max_hits = ext.max;
  // Copy blocks are monotone in both id spaces and counts vanish
  // outside the copy, so the local smallest-id argmax translates.
  stats.argmax = CopyTranslation(global, k, prefix).to_global(ext.argmax);
  return stats;
}

bool MemoRoutingEngine::verify_chain_multiplicities(
    const cdag::CdagView& view, int k, std::uint64_t prefix) const {
  check_view(view, k, prefix);
  return chain_multiplicities_ok();
}

FullRoutingStats MemoRoutingEngine::verify_full_routing(
    const cdag::CdagView& view, int k, std::uint64_t prefix) const {
  check_view(view, k, prefix);
  const obs::TraceSpan span("memo.implicit_full");
  const Layout& global = view.layout();
  const int r = global.r();
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  const Layout local(alg_.n0(), alg_.b(), k);
  const auto levels = wrapped_state_levels(m_a_, m_b_, alg_.b(), k);
  const auto pow_n0 = pow_n0_table(alg_.n0(), k);
  const std::uint64_t mult = 3 * guaranteed_fanout(global, k);  // 3 * n0^k

  FullRoutingStats stats;
  stats.bound = 6 * global.pow_a()(k);
  stats.num_paths = 2 * global.pow_a()(k) * global.pow_a()(k);

  const LocalExtremum ext = scan_copy_extremum(local, levels, pow_n0, mult);
  stats.max_vertex_hits = ext.max;
  // The explicit path scans the whole global hit array; counts are zero
  // outside the copy, so a positive max is first attained at the
  // translated local argmax (and a zero max leaves argmax at vertex 0).
  stats.argmax_vertex =
      ext.max == 0 ? 0
                   : CopyTranslation(global, k, prefix).to_global(ext.argmax);

  // Root-hit monotonicity along copy edges. Inside the copy, the edge
  // enc(t, q_hi*b + q_c, p) -> enc(t-1, q_hi, ...) with trivial row q_c
  // compares P_{t-1}*M[q_c]*n0^(k-t) against P_{t-1}*n0^(k-t+1) for
  // every realizable prefix-product class. At the copy boundary
  // (local rank 0, r > k), a trivial last prefix digit hangs the copy's
  // inputs (n0^k hits) off a zero-hit parent outside the copy — a
  // guaranteed violation the explicit global scan also reports.
  if (r > k && (triv_a_[prefix % b] != 0 || triv_b_[prefix % b] != 0)) {
    stats.root_hit_property = false;
  }
  for (const Side side : {Side::A, Side::B}) {
    const auto& m = side == Side::A ? m_a_ : m_b_;
    const auto& triv = side == Side::A ? triv_a_ : triv_b_;
    for (int t = 1; t <= k; ++t) {
      for (std::uint64_t q_c = 0; q_c < b; ++q_c) {
        if (triv[q_c] == 0) continue;
        for (const auto& entry : levels[static_cast<std::size_t>(t) - 1]) {
          const auto& key = entry.first;
          const std::uint64_t p = side == Side::A ? key.first : key.second;
          const std::uint64_t child =
              (p * m[q_c]) * pow_n0[static_cast<std::size_t>(k - t)];
          const std::uint64_t parent =
              p * pow_n0[static_cast<std::size_t>(k - t) + 1];
          if (child > parent) stats.root_hit_property = false;
        }
      }
    }
  }

  // Meta-vertex hits: the duplicated meta-roots with nonzero counts are
  // encoding vertices of the copy whose last path digit is nontrivial
  // (or local inputs, roots unless the copy boundary continues their
  // row chain) and whose position word can pick up a fanned digit —
  // possible iff the side has a trivial row and the word is nonempty
  // (local rank < k). Counts are position-independent, so classes again
  // suffice; everything outside the copy contributes zero, like in the
  // explicit scan.
  for (const Side side : {Side::A, Side::B}) {
    const auto& m = side == Side::A ? m_a_ : m_b_;
    const auto& triv = side == Side::A ? triv_a_ : triv_b_;
    const bool has_trivial =
        std::find(triv.begin(), triv.end(), std::uint8_t{1}) != triv.end();
    if (!has_trivial) continue;
    if (r == k || triv[prefix % b] == 0) {
      stats.max_meta_hits =
          std::max(stats.max_meta_hits,
                   mult * pow_n0[static_cast<std::size_t>(k)]);
    }
    for (int t = 1; t < k; ++t) {
      for (std::uint64_t q = 0; q < b; ++q) {
        if (triv[q] != 0) continue;
        for (const auto& entry : levels[static_cast<std::size_t>(t) - 1]) {
          const auto& key = entry.first;
          const std::uint64_t p = side == Side::A ? key.first : key.second;
          stats.max_meta_hits = std::max(
              stats.max_meta_hits,
              mult * ((p * m[q]) * pow_n0[static_cast<std::size_t>(k - t)]));
        }
      }
    }
  }
  return stats;
}

HitStats MemoRoutingEngine::verify_decode_routing(const cdag::CdagView& view,
                                                  int k,
                                                  std::uint64_t prefix) const {
  check_view(view, k, prefix);
  PR_REQUIRE_MSG(has_decoder(),
                 "engine was constructed without a DecodeRouter");
  const obs::TraceSpan span("memo.implicit_decode");
  const Layout& global = view.layout();
  const Layout local(alg_.n0(), alg_.b(), k);
  const auto& pa = local.pow_a();
  const auto& pb = local.pow_b();
  const std::uint64_t a = static_cast<std::uint64_t>(alg_.a());
  const std::uint64_t b = static_cast<std::uint64_t>(alg_.b());
  // Decode counts depend only on (rank, last path digit, leading
  // position digit); scanning those residues in id order of their
  // smallest representatives reproduces the canonical array scan.
  std::uint64_t max = 0;
  VertexId argmax = 0;
  const auto consider = [&](std::uint64_t val, VertexId id) {
    if (val > max) {
      max = val;
      argmax = id;
    }
  };
  for (std::uint64_t x = 0; x < b; ++x) {
    consider((a + cpint_[x]) * pa(k - 1), local.dec(0, x, 0));
  }
  for (int t = 1; t < k; ++t) {
    for (std::uint64_t x = 0; x < b; ++x) {
      const std::uint64_t down = cpint_[x] * pb(t) * pa(k - t - 1);
      for (std::uint64_t y = 0; y < a; ++y) {
        consider(down + co_[y] * pb(t - 1) * pa(k - t),
                 local.dec(t, x, y * pa(t - 1)));
      }
    }
  }
  for (std::uint64_t y = 0; y < a; ++y) {
    consider(co_[y] * pb(k - 1), local.dec(k, 0, y * pa(k - 1)));
  }
  HitStats stats;
  stats.num_paths = global.pow_b()(k) * global.pow_a()(k);
  stats.bound = static_cast<std::uint64_t>(decoder_->d1_size()) *
                std::max(global.pow_a()(k), global.pow_b()(k));
  stats.max_hits = max;
  stats.argmax = CopyTranslation(global, k, prefix).to_global(argmax);
  return stats;
}

std::uint64_t MemoRoutingEngine::expected_num_chains(int k) const {
  std::uint64_t n = 2;
  for (int t = 0; t < k; ++t) {
    n *= static_cast<std::uint64_t>(alg_.a()) *
         static_cast<std::uint64_t>(alg_.n0());
  }
  return n;  // 2 * a^k * n0^k
}

std::uint64_t MemoRoutingEngine::expected_chain_total_hits(int k) const {
  // Chains have exactly 2k+2 distinct vertices.
  return expected_num_chains(k) * static_cast<std::uint64_t>(2 * k + 2);
}

std::uint64_t MemoRoutingEngine::expected_num_decode_paths(int k) const {
  std::uint64_t n = 1;
  for (int t = 0; t < k; ++t) {
    n *= static_cast<std::uint64_t>(alg_.a()) *
         static_cast<std::uint64_t>(alg_.b());
  }
  return n;  // b^k * a^k
}

std::uint64_t MemoRoutingEngine::expected_decode_total_hits(int k) const {
  PR_REQUIRE_MSG(has_decoder(),
                 "engine was constructed without a DecodeRouter");
  // Every path has 1 + sum_l (|d1_path(q_l, e_l)| - 1) vertices; summed
  // over all b^k * a^k paths the level sums telescope to the D_1 visit
  // totals with the other k-1 digit pairs free.
  std::uint64_t lower = 1;  // a^(k-1) * b^(k-1)
  for (int t = 0; t + 1 < k; ++t) {
    lower *= static_cast<std::uint64_t>(alg_.a()) *
             static_cast<std::uint64_t>(alg_.b());
  }
  return expected_num_decode_paths(k) +
         static_cast<std::uint64_t>(k) * lower * (cpint_sum_ + co_sum_);
}

}  // namespace pathrouting::routing
