// pr_bench_gate — regression gate over committed BENCH_*.json files.
//
// Re-derives every record of a baseline from its recorded spec and
// fails when the fresh run regresses: count and verdict fields must
// match EXACTLY (they are deterministic functions of the spec, so drift
// is a correctness bug, not noise); "seconds" may grow up to
// --tolerance x the baseline, floored at --min-seconds (below it,
// timing is jitter).
//
// The gate knows no bench: kRegistry maps each (experiment, engine) to
// a library function of the layer that owns that record schema — a
// re-deriver (read the spec back, run it, write the fresh record
// through the fill_* the bench uses) or a roll-up over the fresh
// records. Gating a new baseline is one registry line. Records with no
// entry are listed as skipped; --kmax N skips records whose "k"
// exceeds N. Records equal on every compared field (runs at several
// thread counts) are one workload, timed against the fastest. A record
// its layer cannot re-derive exits 2 with "pr_bench_gate: <file>
// record <i>: <reason>" — a BENCH file is outside input.
//
// --report writes the verdicts as BENCH JSON; --trace / --metrics (or
// PR_TRACE_OUT / PR_METRICS_OUT) dump the fresh run's chrome trace and
// obs counters. --self-test-pessimize corrupts every fresh record
// (seconds x100, its last compared integer field +1): the gate must
// then print "pr_bench_gate: FAILED" — a gate that cannot fail gates
// nothing.
//
// Exit codes: 0 pass, 1 count/verdict mismatch (hard), 2 usage/parse
// error or a record that cannot be re-derived, 3 timing-only
// regression (soft: shared runners make wall clocks noisy). A run with
// both kinds of failure exits 1.
#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "pathrouting/obs/bench_record.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"
#include "pathrouting/parallel/scaling.hpp"
#include "pathrouting/routing/workload.hpp"
#include "pathrouting/search/sweep.hpp"
#include "pathrouting/service/replay.hpp"
#include "pathrouting/support/cli.hpp"
#include "pathrouting/support/parallel.hpp"

namespace {

using namespace pathrouting;  // NOLINT

const char* git_commit() {
#ifdef PR_GIT_COMMIT
  return PR_GIT_COMMIT;
#else
  return "unknown";
#endif
}

/// One registered (experiment, engine): exactly one of the two
/// functions is set.
struct Entry {
  const char* experiment;
  const char* engine;
  /// Re-runs one baseline record: the fresh record (with "seconds"),
  /// or why the record cannot be re-derived.
  obs::FromRecord<obs::BenchRecord> (*rederive)(const obs::BenchRecord&);
  /// Recomputes a roll-up record over every fresh record.
  obs::BenchRecord (*summarize)(std::span<const obs::BenchRecord>);
};

const Entry kRegistry[] = {
    {"chain_routing", "memo", routing::rederive_routing_record, nullptr},
    {"decode_routing", "memo", routing::rederive_routing_record, nullptr},
    {"chain_routing", "implicit", routing::rederive_routing_record, nullptr},
    {"decode_routing", "implicit", routing::rederive_routing_record, nullptr},
    {"service_cold_miss", "service", service::rederive_service_record,
     nullptr},
    {"service_trace", "service", service::rederive_service_record, nullptr},
    {"service_warm", "service", service::rederive_service_record, nullptr},
    {"distributed_scaling", "machine", parallel::rederive_scaling_record,
     nullptr},
    {"schedule_search", "search", search::rederive_search_record, nullptr},
    {"schedule_search_summary", "search", nullptr,
     search::summarize_search_records},
};

const Entry* find_entry(const std::string& experiment,
                        const std::string& engine) {
  for (const Entry& entry : kRegistry) {
    if (experiment == entry.experiment && engine == entry.engine) {
      return &entry;
    }
  }
  return nullptr;
}

/// Fields that are run-dependent or derived, never compared exactly.
/// Latency percentiles ("*_us") and throughput ("rps") are timing like
/// "seconds" — the service bench enforces its own budgets on them.
/// Derived doubles of the scaling sweep ("lb_*", "model_*", "omega0",
/// "ratio_vs_lb") follow the machine counters they are computed from
/// but go through libm, which the determinism contract does not cover.
bool ignored_field(const std::string& key) {
  if (key.size() > 3 && key.compare(key.size() - 3, 3, "_us") == 0) {
    return true;
  }
  if (key.compare(0, 3, "lb_") == 0 || key.compare(0, 6, "model_") == 0) {
    return true;
  }
  return key == "seconds" || key == "speedup" ||
         key == "counts_bit_identical" || key == "threads" ||
         key == "commit" || key == "max_rss_bytes" || key == "rps" ||
         key == "omega0" || key == "ratio_vs_lb";
}

double seconds_of(const obs::BenchRecord& rec) {
  const obs::BenchValue* v = rec.find("seconds");
  return v != nullptr && v->is_number() ? v->as_double() : 0.0;
}

/// One distinct baseline workload: the first of its identical records
/// (equal on every compared field) is the count reference, the fastest
/// one the timing reference.
struct Workload {
  std::size_t index = 0;  // of the reference record in the baseline
  const obs::BenchRecord* reference = nullptr;
  const Entry* entry = nullptr;
  double base_seconds = 0;
};

/// "experiment [algorithm] [k=K]" — how verdict lines name a record.
std::string label(const obs::BenchRecord& rec) {
  std::string out = rec.text_or("experiment", "");
  const std::string algorithm = rec.text_or("algorithm", "");
  if (!algorithm.empty()) out += " " + algorithm;
  if (rec.has("k")) out += " k=" + std::to_string(rec.int_or("k", 0));
  return out;
}

/// Corrupts the record (never the engines) so the diff must fire:
/// seconds x100 and the last compared integer field +1.
void pessimize(const obs::BenchRecord& reference, obs::BenchRecord& fresh) {
  fresh.set("seconds", seconds_of(fresh) * 100.0);
  std::string key;
  for (const auto& [fkey, fval] : reference.fields()) {
    if (!ignored_field(fkey) && fval.kind == obs::BenchValue::Kind::kInt) {
      key = fkey;
    }
  }
  if (const obs::BenchValue* v = fresh.find(key)) {
    fresh.set(key, static_cast<std::uint64_t>(v->int_value) + 1);
  } else {
    fresh.set("experiment", "<pessimized>");
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::Cli cli(argc, argv);
  const std::string baseline_path =
      cli.flag_str("baseline", "", "committed BENCH_*.json to re-derive");
  const std::int64_t kmax = cli.flag_int(
      "kmax", 0, "skip records whose k exceeds this (0 = no cap)");
  const double tolerance = cli.flag_double(
      "tolerance", 2.0, "allowed fresh/baseline wall-clock ratio");
  const double min_seconds = cli.flag_double(
      "min-seconds", 0.05, "timing floor: below it, timing never fails");
  const std::string report_path =
      cli.flag_str("report", "", "write the verdicts as BENCH JSON");
  const std::string trace_path =
      cli.flag_str("trace", "", "write the fresh run's chrome trace");
  const std::string metrics_path =
      cli.flag_str("metrics", "", "write the fresh run's obs counters");
  const bool pessimize_all = cli.flag_bool(
      "self-test-pessimize", false,
      "corrupt every fresh record; the gate must then FAIL");
  cli.finish(
      "Re-derives every registered record of a committed BENCH_*.json "
      "baseline and diffs counts (exact) and wall-clock (tolerance).");
  if (baseline_path.empty()) {
    std::fprintf(stderr, "pr_bench_gate: --baseline is required\n");
    return 2;
  }
  if (kmax < 0) {
    std::fprintf(stderr, "pr_bench_gate: --kmax must be >= 0\n");
    return 2;
  }
  if (tolerance < 1.0) {
    std::fprintf(stderr, "pr_bench_gate: --tolerance must be >= 1.0\n");
    return 2;
  }

  obs::BenchParseResult parsed = obs::load_bench_file(baseline_path);
  if (!parsed.file.has_value()) {
    std::fprintf(stderr, "pr_bench_gate: %s\n", parsed.error.c_str());
    return 2;
  }
  const obs::BenchFile& baseline = *parsed.file;

  std::vector<Workload> workloads;
  std::map<std::string, std::size_t> by_fields;  // compared fields -> slot
  std::map<std::string, int> unregistered;       // "experiment/engine"
  int skipped_k = 0;
  for (std::size_t i = 0; i < baseline.records.size(); ++i) {
    const obs::BenchRecord& rec = baseline.records[i];
    const std::string experiment = rec.text_or("experiment", "");
    const std::string engine = rec.text_or("engine", "");
    const Entry* entry = find_entry(experiment, engine);
    if (entry == nullptr) {
      ++unregistered[experiment + "/" + engine];
      continue;
    }
    if (kmax > 0 && rec.int_or("k", 0) > kmax) {
      ++skipped_k;
      continue;
    }
    std::string key;
    for (const auto& [fkey, fval] : rec.fields()) {
      if (!ignored_field(fkey)) key += fkey + '=' + fval.json() + ',';
    }
    const auto [it, inserted] = by_fields.emplace(key, workloads.size());
    if (inserted) {
      workloads.push_back({i, &rec, entry, seconds_of(rec)});
    } else {
      Workload& wl = workloads[it->second];
      wl.base_seconds = std::min(wl.base_seconds, seconds_of(rec));
    }
  }
  if (workloads.empty()) {
    std::fprintf(stderr,
                 "pr_bench_gate: baseline %s has no registered records%s\n",
                 baseline_path.c_str(),
                 skipped_k > 0 ? " within --kmax" : "");
    return 2;
  }
  // Roll-ups summarize the fresh records, so they run last.
  std::stable_partition(workloads.begin(), workloads.end(),
                        [](const Workload& wl) {
                          return wl.entry->rederive != nullptr;
                        });

  // Trace and count the fresh runs regardless of env: the artifact CI
  // uploads should never be silently empty.
  obs::set_enabled(true);
  obs::reset_counters();
  obs::clear_spans();

  const std::string baseline_commit =
      baseline.records.front().text_or("commit", "unknown");
  std::printf(
      "pr_bench_gate: baseline %s (commit %s) vs build %s (threads %d), "
      "%zu workloads, tolerance %.2fx, floor %.3fs\n",
      baseline_path.c_str(), baseline_commit.c_str(), git_commit(),
      support::parallel::num_threads(), workloads.size(), tolerance,
      min_seconds);
  for (const auto& [kind, count] : unregistered) {
    std::printf("  skip %d %s records (no re-deriver registered)\n", count,
                kind.c_str());
  }
  if (skipped_k > 0) {
    std::printf("  (%d baseline records above --kmax=%lld skipped)\n",
                skipped_k, static_cast<long long>(kmax));
  }
  if (pessimize_all) {
    std::printf(
        "  self-test: pessimizing every fresh record — the gate MUST "
        "fail\n");
  }

  obs::BenchFile report;
  report.bench = "gate_report";
  report.threads = support::parallel::num_threads();
  report.extra.emplace_back("baseline", baseline_path);
  report.extra.emplace_back("baseline_commit", baseline_commit);

  int count_failures = 0;
  int slow_failures = 0;
  std::vector<obs::BenchRecord> fresh_records;
  for (const Workload& wl : workloads) {
    const obs::BenchRecord& ref = *wl.reference;
    obs::BenchRecord fresh;
    if (wl.entry->rederive != nullptr) {
      obs::FromRecord<obs::BenchRecord> derived = wl.entry->rederive(ref);
      if (!derived.value) {
        std::fprintf(stderr, "pr_bench_gate: %s record %zu: %s\n",
                     baseline_path.c_str(), wl.index, derived.error.c_str());
        return 2;
      }
      fresh = std::move(*derived.value);
      fresh_records.push_back(fresh);
    } else {
      fresh = wl.entry->summarize(fresh_records);
    }
    if (pessimize_all) pessimize(ref, fresh);
    const double seconds = seconds_of(fresh);
    const std::string name = label(ref);

    // Exact comparison of every tracked (count/verdict) field.
    std::string mismatched;
    for (const auto& [fkey, fval] : ref.fields()) {
      if (ignored_field(fkey)) continue;
      const obs::BenchValue* fresh_v = fresh.find(fkey);
      if (fresh_v == nullptr || fresh_v->json() != fval.json()) {
        if (!mismatched.empty()) mismatched += ",";
        mismatched += fkey;
        std::printf("FAIL %s: %s baseline=%s fresh=%s\n", name.c_str(),
                    fkey.c_str(), fval.json().c_str(),
                    fresh_v == nullptr ? "<missing>"
                                       : fresh_v->json().c_str());
      }
    }

    const double allowed = std::max(wl.base_seconds * tolerance, min_seconds);
    const bool slow = seconds > allowed;
    const double ratio = wl.base_seconds > 0 ? seconds / wl.base_seconds : 0.0;
    if (slow) {
      std::printf(
          "FAIL %s: seconds %.6f vs baseline %.6f (%.1fx, allowed %.6f)\n",
          name.c_str(), seconds, wl.base_seconds, ratio, allowed);
      ++slow_failures;
    }
    if (!mismatched.empty()) ++count_failures;
    if (mismatched.empty() && !slow) {
      std::printf("ok   %s (%.6fs, baseline %.6fs)\n", name.c_str(), seconds,
                  wl.base_seconds);
    }

    report.records.emplace_back();
    auto& rrec = report.records.back()
                     .set("experiment", ref.text_or("experiment", ""))
                     .set("algorithm", ref.text_or("algorithm", ""))
                     .set("k", static_cast<int>(ref.int_or("k", 0)))
                     .set("status", !mismatched.empty() ? "count-mismatch"
                                    : slow              ? "slow"
                                                        : "ok")
                     .set("baseline_seconds", wl.base_seconds)
                     .set("seconds", seconds)
                     .set("ratio", ratio);
    if (!mismatched.empty()) rrec.set("fields_mismatched", mismatched);
  }

  obs::finalize_records(report, git_commit());
  if (!report_path.empty() && !obs::write_bench_file(report, report_path)) {
    return 2;
  }
  if (!trace_path.empty() && !obs::write_chrome_trace_file(trace_path)) {
    return 2;
  }
  if (!metrics_path.empty() &&
      !obs::write_bench_file(
          obs::counters_as_bench_file("gate_metrics", git_commit()),
          metrics_path)) {
    return 2;
  }
  obs::write_env_outputs("gate_metrics", git_commit());

  const char* verdict = count_failures > 0  ? "FAILED"
                        : slow_failures > 0 ? "SLOW"
                                            : "PASSED";
  std::printf(
      "pr_bench_gate: %s (%d count mismatches, %d timing regressions "
      "over %zu workloads)\n",
      verdict, count_failures, slow_failures, workloads.size());
  // Counts are the determinism contract — exit 1 hard-fails CI.
  // Timing alone exits 3 so the workflow can downgrade it to a
  // warning without masking count drift.
  if (count_failures > 0) return 1;
  if (slow_failures > 0) return 3;
  return 0;
}
