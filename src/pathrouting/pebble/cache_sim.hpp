// Red-blue pebble game (Hong-Kung) cache simulator — the paper's
// machine model, executed exactly.
//
// Rules (Section 1, "Machine model"):
//  * slow memory is unbounded, cache holds at most M values;
//  * initially all inputs are in slow memory and the cache is empty;
//  * moving one value between slow memory and cache costs one I/O;
//  * a vertex may be computed only when all its predecessors are in
//    cache; the result is placed in cache;
//  * no vertex is computed twice (a computed value evicted from cache
//    without a slow-memory copy would be lost, so such evictions first
//    pay a write);
//  * at halt every output resides in slow memory.
//
// The simulator takes an explicit schedule (a topological order of the
// computed vertices) and an eviction policy, and reports exact read /
// write counts. Belady's policy (evict the value used furthest in the
// future, preferring dead values) is the strong baseline; LRU is the
// practical comparison for the ablation experiments.
//
// Both policies evict from one indexed max-heap over the at most M
// cached values (cache_sim.cpp), so eviction state is O(M). Its one
// comparator, larger key first (Belady: next use; LRU: oldest access)
// and then the lowest VertexId, is the victim tie rule. Counts are
// therefore a pure function of (graph, schedule, M, policy) on every
// platform — the contract the golden corpus and the schedule-search
// certificates pin (tests/test_pebble.cpp).
//
// pebble::Simulator is the one engine; simulate() is a single run of a
// fresh one. Callers that score many schedules of one graph (search
// leaves, local-search candidates, sweep baselines) keep a Simulator,
// whose runs reuse the per-vertex records, the access stream and the
// heap, and leave them as the constructor made them, so a run's result
// never depends on the runs before it.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "pathrouting/cdag/graph.hpp"

namespace pathrouting::pebble {

using cdag::Graph;
using cdag::VertexId;

enum class Eviction { Belady, Lru };

struct PebbleOptions {
  std::uint64_t cache_size = 0;  // M, in values
  Eviction eviction = Eviction::Belady;
  /// Optional segment boundaries (exclusive end steps, non-decreasing,
  /// last one = schedule size; an empty segment gets zero I/O). When
  /// non-empty, the result carries per-segment I/O attribution: reads
  /// land in the segment whose steps issued them, writes in the segment
  /// that *computed* the written value — the attribution under which
  /// the paper's per-segment bound |delta'(S')| - 2M applies
  /// (Section 6).
  std::vector<std::uint32_t> segment_ends;
  /// Record the I/Os (reads + eviction/flush writes) issued while
  /// executing each step, for offline re-segmentation (the Hong-Kung
  /// partition lemma; see bounds/hong_kung.hpp).
  bool record_step_io = false;
};

struct PebbleResult {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t steps = 0;
  /// Evictions split by whether the victim still had a live use: dirty
  /// evictions paid a write, clean/dead ones were free. Useful for
  /// diagnosing where a schedule loses its I/O.
  std::uint64_t evictions_dirty = 0;
  std::uint64_t evictions_clean = 0;
  /// Peak number of simultaneously cached values (<= M; smaller when
  /// the schedule never fills the cache).
  std::uint64_t peak_cached = 0;
  [[nodiscard]] std::uint64_t io() const { return reads + writes; }
  /// Per-segment attribution (see PebbleOptions::segment_ends).
  std::vector<std::uint64_t> segment_reads;
  std::vector<std::uint64_t> segment_writes;  // by the value's birth segment
  /// I/Os issued per step (see PebbleOptions::record_step_io). Final
  /// output flushes land on the last step.
  std::vector<std::uint32_t> step_io;
};

/// The records a Simulator keeps between runs. They sit outside the
/// class so that cache_sim.cpp's resident heap, which works on them,
/// has internal linkage: GCC then inlines its push() into the main
/// loop (about 4% of a Strassen G_6 run).
namespace detail {

/// Per-vertex state of a Simulator: where the value sits in the
/// resident heap, and whether slow memory holds (or must hold at halt)
/// a copy.
struct VertexState {
  std::uint32_t slot;
  bool written;
  bool output;
  bool input;  // written before the first step
};

/// One cached value.
struct Slot {
  std::uint64_t key;       // eviction priority: the largest key goes first
  VertexId vertex;
  std::uint32_t next_use;  // step of the next read, kNeverUsed if dead
  std::uint32_t pin;       // 1 + the last step that needs it in cache
  std::uint32_t segment;   // segment that computed it (read while dirty)
  bool dirty;              // computed, no slow-memory copy yet
};

/// One value access of the schedule and the next step that reads the
/// value after it (kNeverUsed if none).
struct Access {
  VertexId vertex;
  std::uint32_t next_use;
};

}  // namespace detail

/// The pebble game on one graph, run as often as a caller likes. The
/// constructor evaluates `is_output(v)` (values that must be in slow
/// memory at halt) once per vertex; run() reuses the per-vertex
/// records, the access stream and the resident heap of earlier runs,
/// so scoring many schedules of one graph (search leaves, local-search
/// candidates) allocates nothing once the buffers have grown. A
/// Simulator keeps a reference to `graph` and is not thread-safe: hold
/// one per thread.
class Simulator {
 public:
  Simulator(const Graph& graph,
            const std::function<bool(VertexId)>& is_output);

  /// Runs `schedule`, the computation order over non-input vertices
  /// (checked topological and complete by
  /// schedule::schedule_diagnostics; the simulator only checks what it
  /// needs to stay safe). Aborts if M is too small to compute some
  /// vertex at all (max in-degree + 1). Leaves the Simulator as the
  /// constructor made it.
  PebbleResult run(std::span<const VertexId> schedule,
                   const PebbleOptions& options);

 private:
  void build_access_stream(std::span<const VertexId> schedule,
                           std::uint64_t cache_size);

  const Graph& graph_;
  std::vector<detail::VertexState> state_;
  std::vector<detail::Access> accesses_;
  std::vector<std::uint32_t> next_;  // backward-pass scratch
  std::vector<detail::Slot> slots_;  // the resident heap
  std::vector<std::size_t> frontier_;
};

/// The pebble game's floor on M for `graph`: max(2, max in-degree + 1),
/// the smallest cache in which every vertex can be computed.
std::uint64_t min_cache_size(const Graph& graph);

/// One run of a fresh Simulator: Simulator(graph, is_output).run(...).
PebbleResult simulate(const Graph& graph,
                      std::span<const VertexId> schedule,
                      const PebbleOptions& options,
                      const std::function<bool(VertexId)>& is_output);

}  // namespace pathrouting::pebble
