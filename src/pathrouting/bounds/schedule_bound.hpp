// Admissible lower bounds for partial schedules — the pruning bound of
// the schedule-space search (search/optimizer.hpp) and the quantity the
// search.certified-optimal audit rule re-derives independently.
//
// A state of the search is a prefix P of a topological order of the
// non-input vertices. For ANY completion of P, executed by ANY
// replacement behavior on a capacity-M cache, the total I/O is at least
//
//   MIN-fetches(P, M) + untouched(P) + max(0, live(P) - M) + outputs
//
// where
//  * MIN-fetches(P, M): the offline-optimal (Belady/MIN) fetch count of
//    P's operand-access string on a capacity-M cache. The access string
//    (operands staged, results born into cache) is fixed by P, and
//    demand fetching with furthest-next-use eviction minimizes fetches
//    over every replacement and prefetch behavior on a fixed string, so
//    no execution can pay fewer reads during P's steps — holding values
//    for the suffix only costs capacity;
//  * untouched(P): inputs never accessed during P but consumed by at
//    least one unscheduled vertex — each costs a compulsory read in the
//    suffix;
//  * max(0, live(P) - M): live(P) counts values touched or computed
//    during P that still have an unscheduled consumer. At most M of
//    them can cross the prefix/suffix boundary inside the cache; every
//    other one must re-enter the cache by a read (recomputation is
//    forbidden). This is the capacity half of the Hong-Kung partition
//    argument (bounds/hong_kung.hpp): a suffix whose dominator set
//    exceeds the boundary cache state must pay the difference in I/O;
//  * outputs: every non-input output vertex is written to slow memory
//    at least once, and no write is counted by the read terms.
//
// The three read terms are disjoint in time and in value set, so the
// sum — not just the max — is admissible. With an empty prefix the
// bound degenerates to the compulsory traffic (consumed inputs +
// outputs); the search max-combines that root value with the paper's
// schedule-independent closed form (bounds::theorem1_io_lower_bound,
// the Section 6 segment inequality), which is also admissible for
// every topological order of G_r.
//
// MIN-fetches as interval packing. Step s of P must hold its operands
// and its result, a load of |in(v)| + 1 slots. An access of value p at
// step s whose previous access was at step t closes the reuse interval
// (t, s): the access is a hit iff p stays cached through every step
// strictly between t and s, taking one slot at each of them. Fewest
// fetches = first accesses of inputs + intervals not kept, where the
// kept intervals may load no step above M. Every schedule of cache
// contents gives such a set and every such set is a schedule, so the
// optimum of this packing is exactly the MIN count. Greedy by right
// endpoint — keep an interval iff no step it spans is already at M —
// is optimal for unit intervals under per-step capacities (an exchange
// argument; this is the OPTgen construction of Jain & Lin, ISCA 2016).
// Intervals arrive in right-endpoint order as steps are appended, so
// the decisions for step s never revisit earlier ones: PrefixBound
// decides each step once on push and reverses it exactly on pop.
//
// Cost per push of v: O(|in(v)| log |in(v)|) to order its operands
// (shortest gap first), plus per operand a backward scan of its gap
// that stops at the first saturated step and, when the interval is
// kept, one increment per spanned step. The suffix terms move in
// O(|in(v)|). bound() is O(1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::bounds {

using cdag::Graph;
using cdag::VertexId;

struct PartialBound {
  /// MIN-optimal fetch count over the prefix's access string.
  std::uint64_t prefix_reads = 0;
  /// Compulsory suffix reads: untouched needed inputs plus the
  /// boundary-capacity overflow max(0, live - M).
  std::uint64_t suffix_reads = 0;
  /// One write per non-input output vertex of the whole graph.
  std::uint64_t output_writes = 0;
  [[nodiscard]] std::uint64_t total() const {
    return prefix_reads + suffix_reads + output_writes;
  }
};

/// The bound above for a prefix that grows and shrinks at its end, as
/// branch-and-bound walks the tree: push(v) appends a step, pop()
/// removes the last one, and bound() equals
/// partial_schedule_lower_bound of the current prefix. Holds O(n)
/// per-vertex state plus O(|prefix| + pushed edges) undo state; it
/// keeps a reference to `graph`.
class PrefixBound {
 public:
  /// `cache_size` (M) must be at least 2. `is_output` is evaluated
  /// once per vertex, here.
  PrefixBound(const Graph& graph, std::uint64_t cache_size,
              const std::function<bool(VertexId)>& is_output);

  /// Appends v. Its operands must be inputs or already pushed, v must
  /// not be an input or already pushed, and in-degree(v) + 1 <= M.
  void push(VertexId v);
  /// Removes the last pushed vertex, restoring the state before it.
  void pop();
  [[nodiscard]] PartialBound bound() const;
  [[nodiscard]] std::span<const VertexId> prefix() const { return steps_; }

 private:
  struct VertexRecord {
    std::uint32_t consumers;    // out-edges to unscheduled vertices
    std::uint32_t touches;      // prefix steps that accessed the value
    std::uint32_t last_access;  // step of the latest access, or kNever
  };
  /// One operand access of a step, for pop(): the operand, its
  /// previous access step, and whether its reuse interval was kept
  /// (else the access was a fetch).
  struct Undo {
    VertexId vertex;
    std::uint32_t previous;
    bool kept;
  };

  void count(VertexId x, bool add);  // x's share of live / untouched

  const Graph& graph_;
  std::uint64_t cache_size_;
  std::uint64_t output_writes_ = 0;
  std::uint64_t prefix_reads_ = 0;
  std::uint64_t live_ = 0;
  std::uint64_t untouched_inputs_ = 0;
  std::vector<VertexRecord> records_;
  std::vector<VertexId> steps_;
  std::vector<std::uint32_t> load_;  // per step: slots taken, <= M
  std::vector<Undo> undo_;
  std::vector<std::uint32_t> undo_begin_;  // per step: into undo_
  std::vector<VertexId> order_;            // push() scratch
};

/// The admissible bound above for a whole prefix: a PrefixBound with
/// every vertex of `prefix` pushed. `prefix` must be a valid
/// topological prefix over non-input vertices (no vertex twice,
/// operands scheduled or inputs); `cache_size` must admit every prefix
/// step (in-degree + 1 <= M). An empty prefix yields the root bound.
PartialBound partial_schedule_lower_bound(
    const Graph& graph, std::span<const VertexId> prefix,
    std::uint64_t cache_size,
    const std::function<bool(VertexId)>& is_output);

}  // namespace pathrouting::bounds
