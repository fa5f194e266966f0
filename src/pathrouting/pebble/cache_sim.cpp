#include "pathrouting/pebble/cache_sim.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "pathrouting/obs/obs.hpp"

namespace pathrouting::pebble {

namespace {

/// Next-use step of a value that no later step reads (a dead value).
/// The largest possible step, so Belady prefers dead victims.
constexpr std::uint32_t kNeverUsed = std::numeric_limits<std::uint32_t>::max();
/// VertexState::slot of a value that is not in cache.
constexpr std::uint32_t kNotCached = std::numeric_limits<std::uint32_t>::max();
/// How many accesses ahead the main loop prefetches vertex state. On a
/// large graph in random order those loads are the main cost.
constexpr std::size_t kPrefetchAhead = 32;

using detail::Access;
using detail::Slot;
using detail::VertexState;

/// Indexed binary max-heap over the cached values: the top is the
/// largest key, ties to the lowest VertexId (the documented tie rule
/// for both policies). Every move records the value's position in its
/// VertexState::slot, so a cached value is re-keyed in place. It
/// borrows the Simulator's buffers for one run.
class ResidentHeap {
 public:
  ResidentHeap(std::span<VertexState> state, std::vector<Slot> slots,
               std::vector<std::size_t> frontier)
      : state_(state), slots_(std::move(slots)),
        frontier_(std::move(frontier)) {}

  /// Empties the heap and hands its buffers back.
  void release(std::vector<Slot>& slots, std::vector<std::size_t>& frontier) {
    slots_.clear();
    slots = std::move(slots_);
    frontier = std::move(frontier_);
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] Slot& at(std::uint32_t pos) { return slots_[pos]; }

  void push(const Slot& slot) {
    slots_.push_back(slot);
    sift_up(slots_.size() - 1, slot);
  }

  /// A cached value was read again: new next use, new key.
  void touch(std::uint32_t pos, std::uint64_t key, std::uint32_t next_use) {
    Slot slot = slots_[pos];
    slot.key = key;
    slot.next_use = next_use;
    settle(pos, slot);
  }

  /// Removes and returns the top value whose pin is not `stamp`. Pinned
  /// values (at most in-degree + 1) are not moved: the victim is the
  /// best unpinned value whose ancestors are all pinned.
  Slot pop_unpinned(std::uint32_t stamp) {
    std::size_t best = slots_.size();
    frontier_.assign(1, 0);
    while (!frontier_.empty()) {
      const std::size_t i = frontier_.back();
      frontier_.pop_back();
      if (i >= slots_.size()) continue;
      if (slots_[i].pin != stamp) {
        if (best == slots_.size() || above(slots_[i], slots_[best])) best = i;
        continue;
      }
      frontier_.push_back(2 * i + 1);
      frontier_.push_back(2 * i + 2);
    }
    PR_ASSERT_MSG(best < slots_.size(), "no evictable cache entry");
    const Slot victim = slots_[best];
    state_[victim.vertex].slot = kNotCached;
    const Slot last = slots_.back();
    slots_.pop_back();
    if (best < slots_.size()) settle(best, last);
    return victim;
  }

 private:
  static bool above(const Slot& a, const Slot& b) {
    return a.key != b.key ? a.key > b.key : a.vertex < b.vertex;
  }

  void place(std::size_t pos, const Slot& slot) {
    slots_[pos] = slot;
    state_[slot.vertex].slot = static_cast<std::uint32_t>(pos);
  }

  /// Puts `slot` at `pos`, moving it up or down to restore the order.
  void settle(std::size_t pos, const Slot& slot) {
    if (pos > 0 && above(slot, slots_[(pos - 1) / 2])) {
      sift_up(pos, slot);
    } else {
      sift_down(pos, slot);
    }
  }

  void sift_up(std::size_t pos, const Slot& slot) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!above(slot, slots_[parent])) break;
      place(pos, slots_[parent]);
      pos = parent;
    }
    place(pos, slot);
  }

  void sift_down(std::size_t pos, const Slot& slot) {
    const std::size_t n = slots_.size();
    while (true) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && above(slots_[child + 1], slots_[child])) ++child;
      if (!above(slots_[child], slot)) break;
      place(pos, slots_[child]);
      pos = child;
    }
    place(pos, slot);
  }

  std::span<VertexState> state_;
  std::vector<Slot> slots_;
  std::vector<std::size_t> frontier_;
};

}  // namespace

Simulator::Simulator(const Graph& graph,
                     const std::function<bool(VertexId)>& is_output)
    : graph_(graph),
      state_(graph.num_vertices()),
      next_(graph.num_vertices()) {
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    // Inputs have a slow-memory copy from the start.
    const bool input = graph.in_degree(v) == 0;
    state_[v] = {kNotCached, input, is_output(v), input};
  }
}

/// Every access of the schedule in order, from one backward pass: for
/// each step, its operands (graph.in order), then the vertex it
/// computes. A step's operand run ends at that vertex, which is never
/// its own operand. Checks what each step needs of the cache.
void Simulator::build_access_stream(std::span<const VertexId> schedule,
                                    std::uint64_t cache_size) {
  std::size_t len = schedule.size();
  for (const VertexId v : schedule) len += graph_.in_degree(v);
  accesses_.resize(len);
  std::fill(next_.begin(), next_.end(), kNeverUsed);
  const std::span<Access> stream(accesses_);
  const std::span<std::uint32_t> next(next_);
  std::size_t pos = len;
  for (auto s = static_cast<std::uint32_t>(schedule.size()); s-- > 0;) {
    const VertexId v = schedule[s];
    const auto preds = graph_.in(v);
    PR_REQUIRE_MSG(!preds.empty(), "inputs are not scheduled");
    PR_REQUIRE_MSG(preds.size() + 1 <= cache_size,
                   "cache too small for this vertex");
    stream[--pos] = {v, next[v]};
    pos -= preds.size();
    for (std::size_t i = 0; i < preds.size(); ++i) {
      PR_ASSERT_MSG(preds[i] != v, "self-loop: schedule is not topological");
      stream[pos + i] = {preds[i], next[preds[i]]};
    }
    for (const VertexId p : preds) next[p] = s;
  }
}

PebbleResult Simulator::run(std::span<const VertexId> schedule,
                            const PebbleOptions& options) {
  const obs::TraceSpan span("pebble.simulate");
  static obs::Counter obs_steps("pebble.sim_steps");
  static obs::Counter obs_io("pebble.sim_io");
  PR_REQUIRE(options.cache_size >= 2);
  const std::uint64_t m = options.cache_size;
  const bool lru = options.eviction == Eviction::Lru;
  build_access_stream(schedule, m);
  const std::span<VertexState> state(state_);
  const std::span<const Access> accesses(accesses_);
  ResidentHeap heap(state, std::move(slots_), std::move(frontier_));
  PebbleResult result;
  result.steps = schedule.size();

  // Segment attribution (optional): reads are charged to the segment
  // issuing them and writes to the written value's birth segment.
  const auto& ends = options.segment_ends;
  const bool segmented = !ends.empty();
  std::uint32_t current_segment = 0;
  if (segmented) {
    PR_REQUIRE(std::is_sorted(ends.begin(), ends.end()));
    PR_REQUIRE(ends.back() == schedule.size());
    result.segment_reads.assign(ends.size(), 0);
    result.segment_writes.assign(ends.size(), 0);
  }
  if (options.record_step_io) result.step_io.assign(schedule.size(), 0);
  std::uint32_t current_step = 0;
  const auto charge_write = [&](std::uint32_t segment) {
    ++result.writes;
    if (options.record_step_io) ++result.step_io[current_step];
    if (segmented) ++result.segment_writes[segment];
  };

  // The policy is the key alone: Belady evicts the furthest next use,
  // LRU the oldest access.
  std::uint64_t clock = 0;
  const auto key_of = [&](std::uint32_t next_use) -> std::uint64_t {
    ++clock;
    return lru ? std::numeric_limits<std::uint64_t>::max() - clock
               : next_use;
  };

  // Evicts the top value not pinned by this step (its operands and
  // result), writing it back first if it is needed later.
  const auto evict_one = [&](std::uint32_t stamp) {
    const Slot victim = heap.pop_unpinned(stamp);
    VertexState& vs = state[victim.vertex];
    if (victim.dirty &&
        (victim.next_use != kNeverUsed || (vs.output && !vs.written))) {
      ++result.evictions_dirty;
      charge_write(victim.segment);
      vs.written = true;
    } else {
      ++result.evictions_clean;
    }
  };

  std::size_t at = 0;  // into accesses
  const auto next_access = [&]() -> const Access& {
    if (at + kPrefetchAhead < accesses.size()) {
      __builtin_prefetch(&state[accesses[at + kPrefetchAhead].vertex]);
    }
    return accesses[at++];
  };
  for (std::uint32_t s = 0; s < schedule.size(); ++s) {
    current_step = s;
    while (segmented && s >= ends[current_segment]) ++current_segment;
    const VertexId v = schedule[s];
    const std::uint32_t stamp = s + 1;
    for (std::size_t i = at; accesses[i].vertex != v; ++i) {
      const std::uint32_t pos = state[accesses[i].vertex].slot;
      if (pos != kNotCached) heap.at(pos).pin = stamp;
    }
    // Stage operands; each read needs a slow-memory copy to exist.
    while (accesses[at].vertex != v) {
      const Access& operand = next_access();
      const VertexId p = operand.vertex;
      const std::uint32_t pos = state[p].slot;
      if (pos == kNotCached) {
        PR_ASSERT_MSG(state[p].written,
                      "operand neither cached nor in slow memory: schedule "
                      "is not topological");
        if (heap.size() == m) evict_one(stamp);
        ++result.reads;
        if (options.record_step_io) ++result.step_io[s];
        if (segmented) ++result.segment_reads[current_segment];
        heap.push({key_of(operand.next_use), p, operand.next_use, stamp, 0,
                   false});
      } else {
        heap.touch(pos, key_of(operand.next_use), operand.next_use);
      }
    }
    // Compute v into cache.
    PR_ASSERT_MSG(state[v].slot == kNotCached, "vertex computed twice");
    const std::uint32_t first_use = next_access().next_use;
    if (heap.size() == m) evict_one(stamp);
    heap.push({key_of(first_use), v, first_use, stamp, current_segment, true});
    result.peak_cached = std::max<std::uint64_t>(result.peak_cached,
                                                 heap.size());
  }

  // Halt: flush outputs that never reached slow memory, and leave each
  // record as the constructor made it.
  for (VertexState& vs : state) {
    if (vs.output && !vs.written) {
      PR_ASSERT_MSG(vs.slot != kNotCached && heap.at(vs.slot).dirty,
                    "lost output value");
      charge_write(heap.at(vs.slot).segment);
    }
    vs.slot = kNotCached;
    vs.written = vs.input;
  }
  heap.release(slots_, frontier_);
  obs_steps.add(result.steps);
  obs_io.add(result.io());
  return result;
}

std::uint64_t min_cache_size(const Graph& graph) {
  std::uint64_t floor = 2;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    floor = std::max<std::uint64_t>(floor, graph.in_degree(v) + 1);
  }
  return floor;
}

PebbleResult simulate(const Graph& graph, std::span<const VertexId> schedule,
                      const PebbleOptions& options,
                      const std::function<bool(VertexId)>& is_output) {
  return Simulator(graph, is_output).run(schedule, options);
}

}  // namespace pathrouting::pebble
