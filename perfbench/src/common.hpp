// Shared machinery of the repository benchmark: run options, metric
// sets, layer timers (a steady-clock accumulator plus an obs::TraceSpan
// around each call the benchmark makes into a library layer), the
// correctness ledger behind `attempted`/`failed`, percentiles with the
// ten-samples-beyond rule, span self times, the seeded Zipf trace
// generator of cert-serve, and the hardware/build fingerprint.
//
// Nothing here reaches inside the library: every number is taken by
// timing or inspecting the results of public calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pathrouting/obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pass-loop condition of every workload: always run the first
/// pass, then another while it is expected to end within `seconds`
/// (elapsed time plus the mean time per pass so far).
[[nodiscard]] inline bool another_pass_fits(Clock::time_point phase_start,
                                            std::size_t passes_done,
                                            double seconds) {
  if (passes_done == 0) return true;
  const double elapsed = seconds_since(phase_start);
  return elapsed + elapsed / static_cast<double>(passes_done) <= seconds;
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Metrics in insertion order; set() overwrites a name already present.
class MetricSet {
 public:
  void set(const std::string& name, const std::string& unit, double value);
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Nearest-rank percentile p in (0, 100] of `samples`, reported only
/// when at least `min_beyond` samples lie strictly above its rank —
/// a tail figure resting on fewer samples is noise. nullopt otherwise.
[[nodiscard]] std::optional<double> supported_percentile(
    std::vector<double> samples, double p, std::size_t min_beyond = 10);

/// Median (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);

// ---------------------------------------------------------------------------
// Layer timing

/// Accumulated busy time and call count of one benchmark-side span name.
struct LayerTotals {
  double seconds = 0;
  std::uint64_t calls = 0;
  double last = 0;  // duration of the latest call
};

/// Times one call into a library layer: adds its steady-clock duration
/// to `totals` and, while obs is enabled (the traced run), records an
/// obs::TraceSpan named `span` (a string literal). Untraced, the span
/// costs one branch.
class LayerCall {
 public:
  LayerCall(const char* span, LayerTotals& totals)
      : span_(span), totals_(totals), start_(Clock::now()) {}
  ~LayerCall() {
    totals_.last = seconds_since(start_);
    totals_.seconds += totals_.last;
    ++totals_.calls;
  }
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  pathrouting::obs::TraceSpan span_;
  LayerTotals& totals_;
  Clock::time_point start_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval covered by its direct children (spans on the same logical
/// thread, one level deeper, nested inside it).
[[nodiscard]] std::map<std::string, double> span_self_seconds(
    const std::vector<pathrouting::obs::SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Correctness ledger

/// Counts checked operations. An operation fails when any check made
/// on it fails; the first few failure messages are kept for stderr.
class Ledger {
 public:
  /// Opens an operation; checks until the next begin() belong to it.
  void begin();
  /// Records one check of the open operation.
  void check(bool ok, const std::string& what);
  /// Folds another ledger in (per-pass or per-thread ledgers).
  void merge(const Ledger& other);

  /// Operations so far, the open one included.
  [[nodiscard]] std::uint64_t attempted() const {
    return attempted_ + (open_ ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t failed() const {
    return failed_ + (open_ && open_failed_ ? 1 : 0);
  }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  void close_open();
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool open_ = false;
  bool open_failed_ = false;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Run options and outcome

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // scratch and trace output, inside the checkout
  int threads = 1;      // PR_THREADS of the pool (the calling thread included)
  int clients = 0;      // closed-loop client threads (cert-serve)
  bool setup_only = false;
};

/// What one timed phase of a workload produced. `exact` holds the
/// deterministic counts of the phase's first pass and `pass_digests` a
/// digest of every pass's counts; pass i of a traced and an untraced
/// phase runs the same inputs, so they must agree bit for bit.
struct PhaseResult {
  std::vector<double> pass_seconds;  // timed work per pass, checks excluded
  /// Per named step of a pass, its time in every pass. When present,
  /// wall_s is the sum over steps of each step's median across passes:
  /// a pass of many steps then shrugs off a burst of interference that
  /// hits one step of one pass.
  std::map<std::string, std::vector<double>> step_seconds;
  double work_per_s = 0;  // the workload's unit of work per second
  MetricSet headline;  // the workload's own end-to-end figures
  MetricSet layers;    // per-layer metrics
  std::map<std::string, std::uint64_t> exact;
  std::vector<std::uint64_t> pass_digests;
  Ledger ledger;
  double audit_seconds = 0;  // correctness-check time, outside wall_s

  double first_pass_rss_mb = 0;  // peak RSS when the first pass ended

  /// Closes a pass: records its timed seconds, and after the first pass
  /// the process's peak RSS (later passes add only allocator drift).
  void end_pass(double seconds);
  /// wall_s: the step-median sum, or the median pass without steps.
  [[nodiscard]] double wall_seconds() const;
  /// Appends the digest of one pass's counts (and keeps the first
  /// pass's counts as `exact`).
  void record_pass_counts(const std::map<std::string, std::uint64_t>& counts);
  /// True when both phases' exact counts agree on every pass both ran.
  [[nodiscard]] bool counts_agree(const PhaseResult& other) const;
};

/// A workload: set-up once (timed several times), then timed phases.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs the phases run on; returns the median set-up
  /// seconds over its repetitions.
  virtual double setup(const RunOptions& options) = 0;
  /// Runs passes until `seconds` have elapsed (at least one).
  virtual PhaseResult run_phase(const RunOptions& options, double seconds) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_io_pipeline();
[[nodiscard]] std::unique_ptr<Workload> make_schedule_search();
[[nodiscard]] std::unique_ptr<Workload> make_cert_serve();

// ---------------------------------------------------------------------------
// Inputs

/// SplitMix64 step: the benchmark derives every per-pass and per-epoch
/// seed from the run seed through this mix.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// A seeded Zipf draw of `count` indices into [0, space): a seeded
/// permutation assigns ranks, rank i is drawn with weight 1/(i+1)
/// (integer harmonic weights, so the trace is platform-independent).
[[nodiscard]] std::vector<std::uint32_t> zipf_indices(std::uint64_t seed,
                                                      std::uint32_t space,
                                                      std::uint64_t count);

// ---------------------------------------------------------------------------
// Fingerprint and output

/// Hardware and build fingerprint as JSON members (no braces).
[[nodiscard]] std::string fingerprint_json(const RunOptions& options);

/// True when the binary was built with a sanitizer (perfbench refuses
/// to report timings from such a build).
[[nodiscard]] bool sanitizer_build();

[[nodiscard]] std::string json_escape(const std::string& text);

/// `{"name": {"value": v, "unit": u}, ...}` with full-precision values.
[[nodiscard]] std::string metrics_json(const MetricSet& metrics);

/// Peak RSS of the process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
