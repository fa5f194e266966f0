#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "pathrouting/support/prng.hpp"

namespace perfbench {

void MetricSet::set(const std::string& name, const std::string& unit,
                    double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics_.push_back({name, unit, value});
}

std::optional<double> supported_percentile(std::vector<double> samples,
                                           double p, std::size_t min_beyond) {
  if (samples.empty() || p <= 0 || p > 100) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it (1-based rank ceil(p/100 * n)).
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double upper = samples[mid];
  return (*std::max_element(samples.begin(), samples.begin() + mid) + upper) /
         2;
}

void PhaseResult::end_pass(double seconds) {
  pass_seconds.push_back(seconds);
  if (pass_seconds.size() == 1) first_pass_rss_mb = peak_rss_mb();
}

double PhaseResult::wall_seconds() const {
  if (step_seconds.empty()) return median(pass_seconds);
  double total = 0;
  for (const auto& [name, times] : step_seconds) total += median(times);
  return total;
}

void PhaseResult::record_pass_counts(
    const std::map<std::string, std::uint64_t>& counts) {
  if (pass_digests.empty()) exact = counts;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&digest](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xff)) * 1099511628211ull;
    }
  };
  for (const auto& [name, value] : counts) {
    for (const char c : name) mix(static_cast<unsigned char>(c));
    mix(value);
  }
  pass_digests.push_back(digest);
}

bool PhaseResult::counts_agree(const PhaseResult& other) const {
  const std::size_t n = std::min(pass_digests.size(), other.pass_digests.size());
  return exact == other.exact &&
         std::equal(pass_digests.begin(), pass_digests.begin() + n,
                    other.pass_digests.begin());
}

std::map<std::string, double> span_self_seconds(
    const std::vector<pathrouting::obs::SpanRecord>& spans) {
  std::map<std::string, double> self;
  // spans_snapshot orders by (tid, start, depth), so a stack of open
  // ancestors per thread finds each span's direct parent.
  struct Open {
    std::uint64_t end_ns;
    int depth;
    const char* name;
  };
  std::vector<Open> stack;
  int tid = -1;
  for (const auto& s : spans) {
    if (s.tid != tid) {
      stack.clear();
      tid = s.tid;
    }
    while (!stack.empty() && stack.back().end_ns <= s.start_ns) {
      stack.pop_back();
    }
    self[s.name] += static_cast<double>(s.duration_ns) * 1e-9;
    if (!stack.empty() && stack.back().depth == s.depth - 1) {
      self[stack.back().name] -= static_cast<double>(s.duration_ns) * 1e-9;
    }
    stack.push_back({s.start_ns + s.duration_ns, s.depth, s.name});
  }
  return self;
}

void Ledger::close_open() {
  if (!open_) return;
  ++attempted_;
  if (open_failed_) ++failed_;
  open_ = false;
  open_failed_ = false;
}

void Ledger::begin() {
  close_open();
  open_ = true;
}

void Ledger::check(bool ok, const std::string& what) {
  if (!open_) begin();
  if (ok) return;
  open_failed_ = true;
  if (messages_.size() < 16) messages_.push_back(what);
}

void Ledger::merge(const Ledger& other) {
  close_open();
  Ledger copy = other;
  copy.close_open();
  attempted_ += copy.attempted_;
  failed_ += copy.failed_;
  for (const std::string& m : copy.messages_) {
    if (messages_.size() < 16) messages_.push_back(m);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::uint32_t> zipf_indices(std::uint64_t seed,
                                        std::uint32_t space,
                                        std::uint64_t count) {
  std::vector<std::uint32_t> rank_to_index(space);
  for (std::uint32_t i = 0; i < space; ++i) rank_to_index[i] = i;
  pathrouting::support::Xoshiro256 rng(seed);
  for (std::uint32_t i = space; i > 1; --i) {
    std::swap(rank_to_index[i - 1], rank_to_index[rng.below(i)]);
  }
  constexpr std::uint64_t kScale = 1u << 20;
  std::vector<std::uint64_t> cumulative(space);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < space; ++i) {
    total += kScale / (static_cast<std::uint64_t>(i) + 1);
    cumulative[i] = total;
  }
  std::vector<std::uint32_t> out;
  out.reserve(count);
  for (std::uint64_t n = 0; n < count && space > 0; ++n) {
    const std::uint64_t draw = rng.below(total);
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), draw);
    out.push_back(rank_to_index[static_cast<std::size_t>(
        std::distance(cumulative.begin(), it))]);
  }
  return out;
}

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string(PERFBENCH_SANITIZE).size() > 0;
#endif
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fingerprint_json(const RunOptions& options) {
  std::ostringstream os;
  os << "\"workload\": \"" << json_escape(options.workload) << "\", "
     << "\"seed\": " << options.seed << ", "
     << "\"nproc\": " << std::thread::hardware_concurrency() << ", "
     << "\"cpu_model\": \"" << json_escape(cpu_model()) << "\", "
     << "\"pr_threads\": " << options.threads << ", "
     << "\"client_threads\": " << options.clients << ", "
     << "\"build_type\": \"" << json_escape(PERFBENCH_BUILD_TYPE) << "\", "
     << "\"sanitize\": \"" << json_escape(PERFBENCH_SANITIZE) << "\", "
     << "\"compiler\": \"" << json_escape(__VERSION__) << "\", "
     << "\"commit\": \"" << json_escape(PERFBENCH_COMMIT) << "\"";
  return os.str();
}

std::string metrics_json(const MetricSet& metrics) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(m.name) << "\": {\"value\": "
       << format_double(m.value) << ", \"unit\": \"" << json_escape(m.unit)
       << "\"}";
  }
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  return static_cast<double>(pathrouting::obs::max_rss_bytes()) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
