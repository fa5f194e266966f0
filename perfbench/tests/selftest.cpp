// Self-tests of the benchmark's own machinery: the cert-serve trace
// generator, the percentile support rule, the correctness checkers
// (fed injected corruption), the ledger and span self times.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest      (exit 0 = all pass)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void trace_generator() {
  using perfbench::zipf_indices;
  const auto a = zipf_indices(7, 200, 5000);
  const auto b = zipf_indices(7, 200, 5000);
  const auto c = zipf_indices(8, 200, 5000);
  expect(a == b, "same seed gives the same trace");
  expect(a != c, "another seed gives another trace");
  expect(a.size() == 5000, "trace has the requested length");
  bool in_range = true;
  for (const std::uint32_t i : a) in_range = in_range && i < 200;
  expect(in_range, "trace indices stay inside the key space");
  // Zipf: the hottest key is drawn far more often than the coldest.
  std::vector<int> counts(200, 0);
  for (const std::uint32_t i : a) ++counts[i];
  int hottest = 0, touched = 0;
  for (const int n : counts) {
    hottest = std::max(hottest, n);
    touched += n > 0 ? 1 : 0;
  }
  expect(hottest > 5000 / 20, "the hottest key takes a Zipf share");
  expect(touched > 100, "most keys are touched");
  expect(perfbench::mix_seed(1, 0) != perfbench::mix_seed(1, 1),
         "mix_seed separates salts");
}

void percentile_rule() {
  using perfbench::supported_percentile;
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const auto p99 = supported_percentile(v, 99);
  expect(p99.has_value() && *p99 == 989.0,
         "p99 of 1000 samples is rank 990 with 10 beyond");
  v.pop_back();
  expect(!supported_percentile(v, 99).has_value(),
         "p99 of 999 samples has only 9 beyond: refused");
  expect(supported_percentile(v, 50).value_or(-1) == 499.0,
         "p50 is the nearest-rank median");
  expect(!supported_percentile({1, 2, 3}, 50).has_value(),
         "p50 of 3 samples is refused under the 10-beyond rule");
  expect(perfbench::median({3, 1, 2}) == 2.0, "median of three");
  expect(!supported_percentile({}, 50).has_value(), "empty input refused");
}

void checkers_flag_corruption() {
  using namespace pathrouting;  // NOLINT
  const auto ref = perfbench::reference_io("dfs", 8, true);
  expect(ref.has_value(), "dfs M=8 Belady has a recorded reference");
  if (ref) {
    expect(perfbench::io_matches_reference("dfs", 8, true, *ref),
           "the recorded I/O passes");
    expect(!perfbench::io_matches_reference("dfs", 8, true, *ref + 1),
           "an I/O off by one is flagged");
    expect(!perfbench::io_matches_reference("dfs", 8, true, *ref - 1),
           "an I/O short by one is flagged");
  }

  bounds::CertifyResult cert;
  cert.segments.resize(2);
  cert.segments[0].boundary_vertices = 40;
  cert.segments[1].boundary_vertices = 10;
  pebble::PebbleResult sim;
  sim.segment_reads = {20, 0};
  sim.segment_writes = {4, 0};
  expect(perfbench::segments_respect_floor(cert, sim, 8),
         "attributed 24 >= 40 - 16 passes");
  sim.segment_reads[0] = 19;
  expect(!perfbench::segments_respect_floor(cert, sim, 8),
         "attributed 23 < 40 - 16 is flagged");
  sim.segment_reads.pop_back();
  expect(!perfbench::segments_respect_floor(cert, sim, 8),
         "a missing segment is flagged");

  expect(perfbench::search_costs_ordered(12, 15, 15, 27), "ordered costs pass");
  expect(!perfbench::search_costs_ordered(12, 11, 15, 27),
         "a cost below the bound is flagged");
  expect(!perfbench::search_costs_ordered(12, 16, 15, 27),
         "search worse than local is flagged");
  expect(!perfbench::search_costs_ordered(12, 15, 28, 27),
         "local worse than dfs is flagged");
}

void ledger_counts() {
  perfbench::Ledger ledger;
  ledger.begin();
  ledger.check(true, "a");
  ledger.check(true, "b");
  ledger.begin();
  ledger.check(false, "c");
  ledger.check(false, "d");
  expect(ledger.attempted() == 2 && ledger.failed() == 1,
         "one failing operation counts once");
  perfbench::Ledger other;
  other.begin();
  other.check(true, "e");
  ledger.merge(other);
  expect(ledger.attempted() == 3 && ledger.failed() == 1, "merge adds up");
  expect(ledger.messages().size() == 2, "failure messages kept");
}

void self_times() {
  using pathrouting::obs::SpanRecord;
  // parent [0, 100) with children [10, 30) and [40, 90); the second
  // child has a grandchild [50, 60). Another thread's span is separate.
  const std::vector<SpanRecord> spans = {
      {"parent", 0, 100, 0, 0},  {"child", 10, 20, 0, 1},
      {"child", 40, 50, 0, 1},   {"grand", 50, 10, 0, 2},
      {"other", 0, 30, 1, 0},
  };
  const auto self = perfbench::span_self_seconds(spans);
  const auto near = [&](const char* name, double ns) {
    return std::fabs(self.at(name) - ns * 1e-9) < 1e-15;
  };
  expect(near("parent", 30), "parent self = 100 - 20 - 50");
  expect(near("child", 60), "children self = 20 + 50 - 10");
  expect(near("grand", 10), "leaf self = its duration");
  expect(near("other", 30), "threads do not nest into each other");
}

}  // namespace

int main() {
  trace_generator();
  percentile_rule();
  checkers_flag_corruption();
  ledger_counts();
  self_times();
  if (g_failures == 0) std::puts("perfbench_selftest: all checks passed");
  return g_failures == 0 ? 0 : 1;
}
