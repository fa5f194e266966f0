#include "pathrouting/parallel/scaling.hpp"

#include <chrono>
#include <cmath>
#include <utility>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/parallel/caps.hpp"
#include "pathrouting/parallel/summa.hpp"
#include "pathrouting/support/check.hpp"

namespace pathrouting::parallel {

namespace {

std::uint64_t u64_pow(std::uint64_t base, int exp) {
  std::uint64_t out = 1;
  for (int i = 0; i < exp; ++i) out = checked_mul(out, base);
  return out;
}

/// Whether factor * base^exp fits in a u64 (without aborting).
bool fits_u64_pow(std::uint64_t base, int exp, std::uint64_t factor) {
  std::uint64_t out = factor;
  for (int i = 0; i < exp; ++i) {
    if (__builtin_mul_overflow(out, base, &out)) return false;
  }
  return true;
}

void finish_bounds(ScalingPoint& point, double w0) {
  const auto n = static_cast<double>(point.n);
  const auto p = static_cast<double>(point.procs);
  const auto m = static_cast<double>(point.local_memory);
  point.omega0 = w0;
  point.lb_mem_dependent = bounds::parallel_bandwidth_lb(n, m, p, w0);
  point.lb_mem_independent = bounds::memory_independent_lb(n, p, w0);
  point.lb_combined = bounds::strong_scaling_lb(n, m, p, w0);
  point.model_pmax = bounds::perfect_scaling_pmax(n, m, w0);
  point.ratio_vs_lb =
      point.lb_combined > 0
          ? static_cast<double>(point.bandwidth_cost) / point.lb_combined
          : 0.0;
}

ScalingPoint run_summa_point(const ScalingSpec& spec) {
  PR_REQUIRE(spec.grid >= 1 && spec.n >= 1);
  ScalingPoint point;
  point.spec = spec;
  point.n = spec.n;
  point.procs = checked_mul(spec.grid, spec.grid);
  // Classical schedule: the w0 = 3 bounds are the comparison curve.
  point.local_memory = regime_memory(spec.regime, spec.n, point.procs, 3.0);
  Machine machine(point.procs, point.local_memory);
  PR_REQUIRE(spec.n % spec.grid == 0);
  const std::uint64_t nb = spec.n / spec.grid;
  // Uniform residency: operand + product blocks plus the two in-flight
  // panel slices every processor buffers during a broadcast step.
  const std::uint64_t resident =
      checked_add(checked_mul(3, checked_mul(nb, nb)),
                  checked_mul(2, checked_mul(nb, spec.panel)));
  machine.alloc_all(resident);
  const SummaResult res =
      simulate_summa(spec.n, spec.grid, spec.panel, machine);
  machine.release_all(resident);
  point.bandwidth_cost = res.bandwidth_cost;
  point.total_words = res.total_words;
  point.supersteps = res.supersteps;
  point.peak_memory = machine.peak_memory();
  // Closed-form classical curve: 4 n^2 / grid for grid >= 3.
  point.model_bandwidth = spec.grid >= 3
                              ? 4.0 * static_cast<double>(spec.n) *
                                    static_cast<double>(spec.n) /
                                    static_cast<double>(spec.grid)
                              : static_cast<double>(res.bandwidth_cost);
  finish_bounds(point, 3.0);
  return point;
}

ScalingPoint run_caps_point(const ScalingSpec& spec) {
  const bilinear::BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  PR_REQUIRE(spec.r >= 1 && spec.bfs_levels >= 1);
  ScalingPoint point;
  point.spec = spec;
  point.n = u64_pow(static_cast<std::uint64_t>(alg.n0()), spec.r);
  point.procs =
      u64_pow(static_cast<std::uint64_t>(alg.b()), spec.bfs_levels);
  const double w0 = alg.omega0();
  point.local_memory = regime_memory(spec.regime, point.n, point.procs, w0);
  const CapsOptions options{spec.bfs_levels, point.local_memory};
  Machine machine(point.procs, point.local_memory);
  const CapsMachineResult res =
      simulate_caps_machine(alg, spec.r, options, machine);
  point.bandwidth_cost = res.bandwidth_cost;
  point.total_words = res.total_words;
  point.supersteps = res.supersteps;
  point.bfs_steps = res.bfs_steps;
  point.dfs_steps = res.dfs_steps;
  point.model_bandwidth =
      simulate_caps(alg, spec.r, options).bandwidth_cost;
  finish_bounds(point, w0);
  return point;
}

}  // namespace

std::uint64_t regime_memory(const std::string& regime, std::uint64_t n,
                            std::uint64_t procs, double w0) {
  const std::uint64_t n2 = checked_mul(n, n);
  if (regime == "minimal") {
    const std::uint64_t m = checked_mul(3, n2) / procs;
    return m > 0 ? m : 1;
  }
  if (regime == "knee") {
    const double m = static_cast<double>(n2) /
                     std::pow(static_cast<double>(procs), 2.0 / w0);
    return m >= 1.0 ? static_cast<std::uint64_t>(m) : 1;
  }
  PR_REQUIRE_MSG(regime == "unbounded", "unknown memory regime");
  return 1ull << 62;
}

ScalingPoint run_scaling_point(const ScalingSpec& spec) {
  if (spec.schedule == "summa") return run_summa_point(spec);
  PR_REQUIRE_MSG(spec.schedule == "caps", "unknown scaling schedule");
  return run_caps_point(spec);
}

void fill_scaling_record(const ScalingPoint& point, obs::BenchRecord& rec) {
  const ScalingSpec& spec = point.spec;
  // "algorithm" is the gate's workload key; combined with k it must be
  // unique per (schedule, base algorithm, regime) sweep curve.
  rec.set("experiment", "distributed_scaling")
      .set("engine", "machine")
      .set("algorithm",
           spec.schedule + ":" + spec.algorithm + ":" + spec.regime)
      .set("k", spec.schedule == "caps"
                    ? spec.bfs_levels
                    : static_cast<int>(spec.grid))
      .set("schedule", spec.schedule)
      .set("base", spec.algorithm)
      .set("regime", spec.regime)
      .set("n", point.n)
      .set("grid", spec.grid)
      .set("panel", spec.panel)
      .set("r", spec.r)
      .set("bfs_levels", spec.bfs_levels)
      .set("procs", point.procs)
      .set("local_memory", point.local_memory)
      .set("bandwidth_cost", point.bandwidth_cost)
      .set("total_words", point.total_words)
      .set("supersteps", point.supersteps)
      .set("peak_memory", point.peak_memory)
      .set("bfs_steps", point.bfs_steps)
      .set("dfs_steps", point.dfs_steps)
      .set("omega0", point.omega0)
      .set("lb_mem_dependent", point.lb_mem_dependent)
      .set("lb_mem_independent", point.lb_mem_independent)
      .set("lb_combined", point.lb_combined)
      .set("model_pmax", point.model_pmax)
      .set("model_bandwidth", point.model_bandwidth)
      .set("ratio_vs_lb", point.ratio_vs_lb);
}

obs::FromRecord<ScalingSpec> scaling_spec_from_record(
    const obs::BenchRecord& rec) {
  ScalingSpec spec;
  spec.schedule = rec.text_or("schedule", "");
  spec.algorithm = rec.text_or("base", "");
  spec.regime = rec.text_or("regime", "");
  const bool summa = spec.schedule == "summa";
  // summa stores its own n; caps re-derives n0^r.
  const std::int64_t n = summa ? rec.int_or("n", 0) : 0;
  const std::int64_t grid = rec.int_or("grid", 0);
  const std::int64_t panel = rec.int_or("panel", 0);
  const std::int64_t r = rec.int_or("r", 0);
  const std::int64_t levels = rec.int_or("bfs_levels", 0);
  const auto u = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  std::string error;
  if (!summa && spec.schedule != "caps") {
    error = "unknown schedule '" + spec.schedule + "'";
  } else if (spec.regime != "minimal" && spec.regime != "knee" &&
             spec.regime != "unbounded") {
    error = "unknown memory regime '" + spec.regime + "'";
  } else if (summa && (grid < 1 || n < 1 || n % grid != 0 || panel < 1 ||
                       panel > n / grid)) {
    error = "summa needs grid >= 1 dividing n and 1 <= panel <= n/grid";
  } else if (summa && (!fits_u64_pow(u(grid), 2, 1) ||
                       !fits_u64_pow(u(n), 2, 3))) {
    // The machine has grid^2 processors and the regimes size 3 n^2.
    error = "summa n and grid overflow the u64 machine counters";
  } else if (!summa && !bilinear::is_catalog_name(spec.algorithm)) {
    error = "unknown algorithm '" + spec.algorithm + "'";
  } else if (!summa && (r < 1 || levels < 1 || levels > r)) {
    error = "caps needs 1 <= bfs_levels <= r";
  } else if (!summa) {
    // n^2 = a^r words per operand (3 n^2 in the minimal regime) and
    // b^bfs_levels processors must fit the u64 machine counters.
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
    if (r > 64 || !fits_u64_pow(u(alg.a()), static_cast<int>(r), 3) ||
        !fits_u64_pow(u(alg.b()), static_cast<int>(levels), 1)) {
      error = "caps r and bfs_levels overflow the u64 machine counters";
    }
  }
  if (!error.empty()) return obs::FromRecord<ScalingSpec>::reject(error);
  spec.n = u(n);
  spec.grid = u(grid);
  spec.panel = u(panel);
  spec.r = static_cast<int>(r);
  spec.bfs_levels = static_cast<int>(levels);
  return {std::move(spec), {}};
}

obs::FromRecord<obs::BenchRecord> rederive_scaling_record(
    const obs::BenchRecord& ref) {
  const obs::FromRecord<ScalingSpec> read = scaling_spec_from_record(ref);
  if (!read.value) return obs::FromRecord<obs::BenchRecord>::reject(read.error);
  const auto t0 = std::chrono::steady_clock::now();
  const ScalingPoint point = run_scaling_point(*read.value);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  obs::BenchRecord fresh;
  fill_scaling_record(point, fresh);
  fresh.set("seconds", seconds);
  return {std::move(fresh), {}};
}

}  // namespace pathrouting::parallel
