// Deterministic Zipf-ish request traces, a replay driver, and the
// service workloads of BENCH_service.json, shared by
// bench/bench_service.cpp and tools/pr_bench_gate.cpp: the records are
// written by fill_service_record and read back by
// service_spec_from_record, so the committed counts are re-derived
// exactly.
//
// The request space is a fixed catalog slice (per-algorithm kind/k
// ranges sized so a full cold sweep stays cheap); a seeded Xoshiro256
// permutation assigns Zipf ranks and requests are drawn with integer
// harmonic weights (weight of rank i proportional to 1/(i+1)) —
// integer arithmetic only, so the trace is bit-identical across
// platforms and libms.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/service/service.hpp"

namespace pathrouting::service {

struct TraceSpec {
  std::uint64_t seed = 20260807;
  std::uint64_t num_requests = 2048;

  bool operator==(const TraceSpec&) const = default;
};

/// The enumerated request space the trace draws from (deterministic
/// order, before the seeded rank permutation).
[[nodiscard]] std::vector<Request> request_space();

/// The trace: num_requests draws, Zipf-ish over request_space().
[[nodiscard]] std::vector<Request> zipf_trace(const TraceSpec& spec);

struct ReplayResult {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t cache_hits = 0;  // responses with from_cache
  std::uint64_t computed = 0;    // responses computed on the spot
  std::uint64_t unique_keys = 0;  // distinct requests in the trace
  double seconds = 0;             // wall clock for the whole replay
  /// Client-observed per-request latencies in microseconds, split by
  /// hit/miss. Ordered by (client thread, request order) — sort before
  /// taking percentiles.
  std::vector<double> hit_us;
  std::vector<double> miss_us;
};

/// Replays `trace` against `svc` from `client_threads` concurrent
/// clients (contiguous shards, each served in order). With one client
/// every count in the result is deterministic: the first occurrence of
/// each key in the trace is a miss, every later one a hit.
[[nodiscard]] ReplayResult replay_trace(CertificateService& svc,
                                        std::span<const Request> trace,
                                        int client_threads);

/// p in [0,100] percentile of `values` (nearest-rank; 0 when empty).
[[nodiscard]] double percentile_us(std::vector<double> values, double p);

/// One service workload. experiment is one of
///  * "service_cold_miss": a fresh service answers `request` from nothing;
///  * "service_trace": the trace replayed against an empty store;
///  * "service_warm": the same, answered by a second service that
///    reopens the populated store (every answer comes off mmap);
///  * "service_throughput": the warm replay from `client_threads`
///    clients — timing only, so it is written but never re-derived.
struct ServiceSpec {
  std::string experiment;
  Request request;  // service_cold_miss
  TraceSpec trace;  // the replay experiments
  int client_threads = 1;
};

struct ServiceRun {
  ServiceSpec spec;
  Response response;    // service_cold_miss
  ReplayResult replay;  // the replay experiments
  double seconds = 0;   // the serve() call, or the (second) replay
};

/// Runs a re-derivable workload (cold miss, trace or warm) against a
/// fresh service: the cold miss on a memory-only one, the replays on a
/// throwaway store directory that is removed afterwards.
[[nodiscard]] ServiceRun run_service_workload(const ServiceSpec& spec);

/// Serializes a run onto the unified bench-record schema, timing fields
/// ("seconds", latency percentiles, "rps") included.
void fill_service_record(const ServiceRun& run, obs::BenchRecord& rec);

/// Rebuilds the spec of a cold-miss, trace or warm record written by
/// fill_service_record (replays run one client, whose counts are
/// exact). Rejects a cdag::rank_error, a kind other than chain, and a
/// trace length outside 1..kMaxTraceRequests.
[[nodiscard]] obs::FromRecord<ServiceSpec> service_spec_from_record(
    const obs::BenchRecord& rec);

/// Read, run, fill: the fresh record for baseline record `ref`, or why
/// `ref` cannot be re-derived.
[[nodiscard]] obs::FromRecord<obs::BenchRecord> rederive_service_record(
    const obs::BenchRecord& ref);

/// The longest trace a record may ask to replay.
inline constexpr std::uint64_t kMaxTraceRequests = 1u << 24;

}  // namespace pathrouting::service
