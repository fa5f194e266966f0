#include "pathrouting/bounds/schedule_bound.hpp"

#include <algorithm>

#include "pathrouting/support/check.hpp"

namespace pathrouting::bounds {

namespace {

/// VertexRecord::last_access of a value the prefix has not accessed.
constexpr std::uint32_t kNever = UINT32_MAX;

}  // namespace

PrefixBound::PrefixBound(const Graph& graph, std::uint64_t cache_size,
                         const std::function<bool(VertexId)>& is_output)
    : graph_(graph), cache_size_(cache_size) {
  PR_REQUIRE(cache_size >= 2);
  const VertexId n = graph.num_vertices();
  records_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    // Every consumer is a non-input and, at the empty prefix,
    // unscheduled: a value is needed iff it has an out-edge.
    records_[v] = {graph.out_degree(v), 0, kNever};
    if (graph.in_degree(v) > 0) {
      if (is_output(v)) ++output_writes_;
    } else if (graph.out_degree(v) > 0) {
      ++untouched_inputs_;
    }
  }
}

void PrefixBound::count(VertexId x, bool add) {
  const VertexRecord& r = records_[x];
  if (r.consumers == 0) return;  // not needed by the suffix
  std::uint64_t* term = nullptr;
  if (r.touches > 0) {
    term = &live_;
  } else if (graph_.in_degree(x) == 0) {
    term = &untouched_inputs_;
  } else {
    return;  // computed in the suffix: no read
  }
  if (add) {
    ++*term;
  } else {
    --*term;
  }
}

void PrefixBound::push(VertexId v) {
  const auto preds = graph_.in(v);
  PR_REQUIRE_MSG(!preds.empty(), "inputs are not scheduled");
  PR_REQUIRE_MSG(preds.size() + 1 <= cache_size_,
                 "cache too small for this vertex");
  PR_REQUIRE_MSG(records_[v].last_access == kNever,
                 "prefix is not topological");
  const auto s = static_cast<std::uint32_t>(steps_.size());

  // Suffix terms: each operand loses an unscheduled consumer and gains
  // a touch; v is touched (its consumers are all still unscheduled).
  for (const VertexId p : preds) {
    PR_REQUIRE_MSG(graph_.in_degree(p) == 0 ||
                       records_[p].last_access != kNever,
                   "prefix is not topological");
    count(p, false);
    --records_[p].consumers;
    ++records_[p].touches;
    count(p, true);
  }
  count(v, false);
  ++records_[v].touches;
  count(v, true);

  // MIN term: close each operand's reuse interval, shortest gap first.
  // A repeated operand is staged once; its later copies are hits.
  order_.assign(preds.begin(), preds.end());
  std::sort(order_.begin(), order_.end(), [&](VertexId a, VertexId b) {
    const std::uint32_t ta = records_[a].last_access;
    const std::uint32_t tb = records_[b].last_access;
    return ta != tb ? ta + 1 > tb + 1 : a < b;  // kNever sorts last
  });
  undo_begin_.push_back(static_cast<std::uint32_t>(undo_.size()));
  std::uint32_t staged = 0;
  for (const VertexId p : order_) {
    const std::uint32_t t = records_[p].last_access;
    if (t == s) continue;
    ++staged;
    bool kept = t != kNever;
    for (std::uint32_t u = s; kept && u-- > t + 1;) {
      kept = load_[u] < cache_size_;
    }
    if (kept) {
      for (std::uint32_t u = t + 1; u < s; ++u) ++load_[u];
    } else {
      ++prefix_reads_;
    }
    undo_.push_back({p, t, kept});
    records_[p].last_access = s;
  }
  records_[v].last_access = s;
  load_.push_back(staged + 1);
  steps_.push_back(v);
}

void PrefixBound::pop() {
  PR_REQUIRE_MSG(!steps_.empty(), "pop() on an empty prefix");
  const VertexId v = steps_.back();
  const auto s = static_cast<std::uint32_t>(steps_.size() - 1);
  steps_.pop_back();
  load_.pop_back();
  records_[v].last_access = kNever;
  for (std::size_t i = undo_begin_.back(); i < undo_.size(); ++i) {
    const Undo& e = undo_[i];
    if (e.kept) {
      for (std::uint32_t u = e.previous + 1; u < s; ++u) --load_[u];
    } else {
      --prefix_reads_;
    }
    records_[e.vertex].last_access = e.previous;
  }
  undo_.resize(undo_begin_.back());
  undo_begin_.pop_back();

  count(v, false);
  --records_[v].touches;
  count(v, true);
  for (const VertexId p : graph_.in(v)) {
    count(p, false);
    ++records_[p].consumers;
    --records_[p].touches;
    count(p, true);
  }
}

PartialBound PrefixBound::bound() const {
  PartialBound bound;
  bound.prefix_reads = prefix_reads_;
  bound.suffix_reads =
      untouched_inputs_ + (live_ > cache_size_ ? live_ - cache_size_ : 0);
  bound.output_writes = output_writes_;
  return bound;
}

PartialBound partial_schedule_lower_bound(
    const Graph& graph, std::span<const VertexId> prefix,
    std::uint64_t cache_size,
    const std::function<bool(VertexId)>& is_output) {
  PrefixBound state(graph, cache_size, is_output);
  for (const VertexId v : prefix) state.push(v);
  return state.bound();
}

}  // namespace pathrouting::bounds
