// perfbench: the repository benchmark binary.
//
//   perfbench --workload io-pipeline|schedule-search|cert-serve
//             --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures with tracing off and reports the end-to-end
// metrics. --trace 1 runs the same workload twice in one process, half
// the time each: untraced, then traced (obs spans on). It reports the
// per-layer metrics of the traced half, the tracing overhead (traced
// over untraced wall_s), writes the spans as a chrome trace into
// DIR, and prints each span's self time. The exact counts of the two
// halves must agree bit for bit.
//
// --setup-only 1 runs only the set-up and prints its seconds; the
// binary samples set-up time across such processes.
//
// Every run checks its outputs; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The line before
// it is the run's record: hardware and build fingerprint, seed, and the
// workload's own headline figures.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "pathrouting/obs/export.hpp"
#include "pathrouting/obs/obs.hpp"

namespace {

using namespace perfbench;  // NOLINT

struct MetricName {
  const char* name;
  const char* unit;
};

// The per-layer metrics every traced run reports (BENCHMARK.json
// "per_layer" lists the same names); a layer a workload does not reach
// reads 0.
constexpr MetricName kPerLayer[] = {
    {"pebble.simulate_s", "s"},       {"pebble.belady_s", "s"},
    {"pebble.lru_s", "s"},            {"pebble.calls", "count"},
    {"pebble.steps", "count"},        {"pebble.io", "count"},
    {"pebble.ns_per_step", "ns"},     {"pebble.rss_growth_mb", "MB"},
    {"search.local_s", "s"},          {"search.moves_evaluated", "count"},
    {"search.accept_ratio", "ratio"}, {"search.bnb_s", "s"},
    {"search.nodes_expanded", "count"}, {"search.prune_ratio", "ratio"},
    {"search.leaves_scored", "count"}, {"search.nodes_per_s", "1/s"},
    {"bounds.certify_s", "s"},        {"bounds.complete_segments", "count"},
    {"bounds.io_lower_bound", "count"}, {"bounds.root_bound_s", "s"},
    {"routing.router_build_s", "s"},  {"routing.verify_s", "s"},
    {"routing.total_hits", "count"},  {"cdag.build_s", "s"},
    {"cdag.vertices", "count"},       {"cdag.edges", "count"},
    {"schedule.dfs_s", "s"},          {"schedule.bfs_s", "s"},
    {"schedule.random_s", "s"},       {"service.open_s", "s"},
    {"service.hit_s", "s"},           {"service.miss_s", "s"},
    {"service.miss_chain_s", "s"},    {"service.miss_full_s", "s"},
    {"service.miss_decode_s", "s"},   {"service.miss_segment_s", "s"},
    {"service.inflight_wait_s", "s"}, {"service.requests", "count"},
    {"service.store_hits", "count"},  {"service.computed", "count"},
    {"service.inflight_waits", "count"}, {"service.hit_ratio", "ratio"},
    {"service.errors", "count"},      {"service.key_space", "count"},
    {"audit.check_s", "s"},           {"trace.overhead_ratio", "ratio"},
    {"sim_steps_per_s", "1/s"},       {"search_gap_io", "count"},
    {"certified_points", "count"},    {"req_per_s", "1/s"},
    {"hit_p50_us", "us"},             {"hit_p99_us", "us"},
    {"miss_p50_ms", "ms"},            {"miss_p99_ms", "ms"},
    {"hit_samples", "count"},         {"miss_samples", "count"},
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload "
               "io-pipeline|schedule-search|cert-serve --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || text[0] == '-') {
    usage("bad value '" + text + "' for " + flag);
  }
  return v;
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  o.out_dir = ".bench_build/perfbench/out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, value));
      if (o.seconds < 1) usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_uint(flag, value);
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else if (flag == "--setup-only") {
      o.setup_only = parse_uint(flag, value) == 1;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "io-pipeline") return make_io_pipeline();
  if (name == "schedule-search") return make_schedule_search();
  if (name == "cert-serve") return make_cert_serve();
  usage("unknown workload '" + name + "'");
}

/// Set-up time sampled across processes. The memory layout a process
/// gets (address-space randomisation, fresh pages) moves set-up time by
/// up to 1.5x between otherwise identical processes, so setup_s is the
/// median over this process and kSetupProcesses fresh ones, each
/// running `perfbench --setup-only` and printing its own median over
/// repetitions.
constexpr int kSetupProcesses = 6;

void spawn_setup_samples(const RunOptions& options,
                         std::vector<double>& samples) {
  const std::string exe = "/proc/self/exe";
  for (int c = 0; c < kSetupProcesses; ++c) {
    int fds[2];
    if (::pipe(fds) != 0) break;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    std::vector<std::string> args = {exe,         "--workload",
                                     options.workload, "--setup-only",
                                     "1",         "--out-dir",
                                     options.out_dir};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = ::posix_spawn(&pid, exe.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string text;
    char buf[256];
    for (ssize_t n; rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) > 0;) {
      text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    if (rc != 0) break;
    int status = 0;
    ::waitpid(pid, &status, 0);
    char* end = nullptr;
    const double seconds = std::strtod(text.c_str(), &end);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && end != text.c_str()) {
      samples.push_back(seconds);
    }
  }
}

void copy_metrics(const MetricSet& from, MetricSet& to) {
  for (const Metric& m : from.all()) to.set(m.name, m.unit, m.value);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options = parse(argc, argv);
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (sanitizer_build()) {
    std::cerr << "perfbench: refusing to report timings from a sanitizer "
                 "build (sanitize='"
              << PERFBENCH_SANITIZE << "')\n";
    return 3;
  }

  // At most two busy threads: the pool's caller thread is worker 0, so
  // PR_THREADS = 2 is the main thread plus one worker, and cert-serve's two
  // clients call serve() on their own threads with the pool serial. On a
  // shared 4-vCPU host, four threads made timings swing with the
  // neighbours' load (README.md, "Threads").
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int width = std::min(2, nproc);
  const bool serving = options.workload == "cert-serve";
  options.threads = serving ? 1 : width;
  options.clients = serving ? width : 0;
  ::setenv("PR_THREADS", std::to_string(options.threads).c_str(), 1);
  std::filesystem::create_directories(options.out_dir);

  pathrouting::obs::set_enabled(false);
  if (options.setup_only) {
    std::printf("%.9g\n", workload->setup(options));
    return 0;
  }
  std::vector<double> setup_samples;
  spawn_setup_samples(options, setup_samples);
  setup_samples.push_back(workload->setup(options));
  const double setup_s = median(setup_samples);

  PhaseResult untraced = workload->run_phase(
      options, options.trace ? options.seconds / 2 : options.seconds);
  Ledger ledger = untraced.ledger;
  MetricSet e2e;
  e2e.set("setup_s", "s", setup_s);
  e2e.set("wall_s", "s", untraced.wall_seconds());
  e2e.set("peak_rss_mb", "MB", untraced.first_pass_rss_mb);
  e2e.set("work_per_s", "1/s", untraced.work_per_s);

  MetricSet layers;
  if (options.trace) {
    namespace obs = pathrouting::obs;
    obs::clear_spans();
    obs::reset_counters();
    obs::set_enabled(true);
    PhaseResult traced = workload->run_phase(options, options.seconds / 2);
    obs::set_enabled(false);
    ledger.merge(traced.ledger);
    ledger.begin();
    ledger.check(traced.counts_agree(untraced),
                 "exact counts differ between the traced and untraced runs");

    for (const MetricName& m : kPerLayer) layers.set(m.name, m.unit, 0);
    copy_metrics(traced.layers, layers);
    copy_metrics(untraced.headline, layers);
    const double passes = static_cast<double>(untraced.pass_seconds.size() +
                                              traced.pass_seconds.size());
    layers.set("audit.check_s", "s",
               (untraced.audit_seconds + traced.audit_seconds) / passes);
    const double base = untraced.wall_seconds();
    layers.set("trace.overhead_ratio", "ratio",
               base > 0 ? traced.wall_seconds() / base : 0);

    const std::string trace_path = options.out_dir + "/trace-" +
                                   options.workload + "-" +
                                   std::to_string(options.seed) + ".json";
    obs::write_chrome_trace_file(trace_path);
    std::cout << "# chrome trace: " << trace_path << "\n";
    for (const auto& [name, self] : span_self_seconds(obs::spans_snapshot())) {
      std::printf("# self %-36s %.6f s\n", name.c_str(), self);
    }
    std::printf("# tracing overhead: traced wall_s %.6f s vs untraced %.6f s\n",
                traced.wall_seconds(), base);
  }

  const double ok_frac =
      ledger.attempted() > 0
          ? 1.0 - static_cast<double>(ledger.failed()) /
                      static_cast<double>(ledger.attempted())
          : 0;
  e2e.set("ok_frac", "ratio", ok_frac);
  for (const std::string& message : ledger.messages()) {
    std::cerr << "perfbench: check failed: " << message << "\n";
  }

  std::cout << "{\"record\": {" << fingerprint_json(options)
            << ", \"pass_seconds\": [";
  for (std::size_t i = 0; i < untraced.pass_seconds.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << untraced.pass_seconds[i];
  }
  std::cout << "]"
            << ", \"end_to_end\": " << metrics_json(e2e)
            << ", \"headline\": " << metrics_json(untraced.headline) << "}}\n";
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed() << ", \"metrics\": "
            << metrics_json(options.trace ? layers : e2e) << "}" << std::endl;
  return 0;
}
