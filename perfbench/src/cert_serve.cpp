// cert-serve: a closed loop of client threads replaying a seeded Zipf
// trace of CertificateService::serve over catalog keys — chain, full
// and decode up to each algorithm's id-space limit, segment at small k
// — over cold epochs. Each epoch opens a fresh service on a fresh store
// directory, so the first touch of a key is a miss (implicit routing or
// the segment certifier, then a store write) and every repeat is a store
// read that never reaches an engine.
//
// Closed loop: each client sends its next request only after the reply
// to the previous one, as daemon callers that wait on each reply do.
//
// Segment keys stop at layouts of kSegmentMaxVertices: the service's
// own rank ceiling (segment_max_k = 5) admits keys that abort the
// process or take minutes (see perfbench/README.md, "Known defects").
#include <algorithm>
#include <utility>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/graph.hpp"
#include "pathrouting/service/certificate.hpp"
#include "pathrouting/service/service.hpp"

namespace perfbench {

namespace {

using namespace pathrouting;  // NOLINT
using service::CertKind;
using service::Request;

constexpr std::uint64_t kSegmentMaxVertices = 1u << 17;
constexpr std::uint64_t kRequestsPerEpoch = 400000;

/// Vertex count of the G_r layout (2 a^(r-t) b^t encoding plus
/// a^t b^(r-t) decoding vertices per rank t), saturating at the 32-bit
/// id limit.
std::uint64_t layout_vertices(const bilinear::BilinearAlgorithm& alg, int r) {
  unsigned __int128 total = 0;
  for (int t = 0; t <= r; ++t) {
    unsigned __int128 enc = 2, dec = 1;
    for (int i = 0; i < t; ++i) enc *= alg.b(), dec *= alg.a();
    for (int i = t; i < r; ++i) enc *= alg.a(), dec *= alg.b();
    total += enc + dec;
    if (total >= cdag::kInvalidVertex) return cdag::kInvalidVertex;
  }
  return static_cast<std::uint64_t>(total);
}

/// The request space: every catalog algorithm's chain/full (and decode,
/// when its decoding graph is connected) keys up to the id-space limit,
/// plus segment keys while the explicit layout stays small.
std::vector<Request> key_space() {
  std::vector<Request> keys;
  for (const std::string& name : bilinear::catalog_names()) {
    const bilinear::BilinearAlgorithm alg = bilinear::by_name(name);
    const bool decode = bilinear::decoding_components(alg) == 1;
    for (int k = 1; layout_vertices(alg, k) < cdag::kInvalidVertex; ++k) {
      keys.push_back({name, k, CertKind::kChain});
      keys.push_back({name, k, CertKind::kFull});
      if (decode) keys.push_back({name, k, CertKind::kDecode});
      if (layout_vertices(alg, k) <= kSegmentMaxVertices) {
        keys.push_back({name, k, CertKind::kSegment});
      }
    }
  }
  return keys;
}

struct Slot {
  double start_s = 0;
  double latency_s = 0;
  bool ok = false;
  bool from_cache = false;
  service::Certificate cert;
};

class CertServe final : public Workload {
 public:
  /// Key space, a service/store open, and the serial reference every
  /// served certificate must equal. The reference (a cold sweep of the
  /// whole key space, about a second) is part of the set-up on purpose:
  /// the rest is under a millisecond of allocation-bound work whose time
  /// swung by a third with the host's load between otherwise equal runs.
  double setup(const RunOptions& options) override {
    const Clock::time_point start = Clock::now();
    keys_ = key_space();
    const std::string dir = store_dir(options, "setup", 0);
    {
      const LayerCall call("service:open", open_);
      const service::CertificateService svc({.store_dir = dir});
    }
    build_reference();
    const double seconds = seconds_since(start);
    std::filesystem::remove_all(dir);
    return seconds;
  }

  PhaseResult run_phase(const RunOptions& options, double seconds) override;

 private:
  static std::string store_dir(const RunOptions& options,
                               const std::string& tag, std::uint64_t index) {
    return options.out_dir + "/store-" + std::to_string(::getpid()) + "-" +
           tag + "-" + std::to_string(index);
  }

  /// Serves every key serially on a fresh memory-only service: the
  /// byte-level reference each served certificate must equal.
  void build_reference() {
    service::CertificateService svc({});
    reference_.clear();
    reference_ledger_ = Ledger();
    for (const Request& key : keys_) {
      const service::Response resp = svc.serve(key);
      reference_ledger_.begin();
      reference_ledger_.check(resp.ok, "reference serve failed: " + resp.error);
      reference_.push_back(service::serialize_certificate(resp.certificate));
    }
  }

  std::vector<Request> keys_;
  std::vector<std::string> reference_;
  Ledger reference_ledger_;
  LayerTotals open_;
  int phases_ = 0;
};

PhaseResult CertServe::run_phase(const RunOptions& options, double seconds) {
  PhaseResult out;
  double audit = 0;
  if (phases_ == 0) out.ledger.merge(reference_ledger_);
  const int clients = std::max(1, options.clients);
  const std::uint32_t space = static_cast<std::uint32_t>(keys_.size());

  std::vector<double> hit_us, miss_ms, open_s;
  double hit_total = 0, miss_total = 0, wait_total = 0;
  std::map<CertKind, double> miss_by_kind;
  std::uint64_t requests = 0;
  service::ServiceMetrics totals;
  const std::string tag = "phase" + std::to_string(phases_++);
  const Clock::time_point phase_start = Clock::now();

  for (std::uint64_t epoch = 0;
       another_pass_fits(phase_start, out.pass_seconds.size(), seconds);
       ++epoch) {
    const std::vector<std::uint32_t> trace = zipf_indices(
        mix_seed(options.seed, epoch), space, kRequestsPerEpoch);
    const std::string dir = store_dir(options, tag, epoch);
    std::filesystem::remove_all(dir);
    std::vector<Slot> slots(trace.size());

    const Clock::time_point epoch_start = Clock::now();
    std::optional<service::CertificateService> svc;
    {
      const LayerCall call("service:open", open_);
      svc.emplace(service::ServiceConfig{.store_dir = dir});
    }
    open_s.push_back(seconds_since(epoch_start));
    std::atomic<std::size_t> cursor{0};
    const auto client = [&] {
      for (std::size_t i = cursor.fetch_add(1); i < trace.size();
           i = cursor.fetch_add(1)) {
        Slot& slot = slots[i];
        const Clock::time_point start = Clock::now();
        service::Response resp = svc->serve(keys_[trace[i]]);
        slot.latency_s = seconds_since(start);
        slot.start_s =
            std::chrono::duration<double>(start - epoch_start).count();
        slot.ok = resp.ok;
        slot.from_cache = resp.from_cache;
        slot.cert = std::move(resp.certificate);
      }
    };
    {
      // One span per epoch, not per request: a traced run would otherwise
      // hold millions of spans. Misses still show the library's own
      // service.compute spans on the client threads.
      const pathrouting::obs::TraceSpan span("service:epoch");
      std::vector<std::jthread> threads;
      for (int c = 1; c < clients; ++c) threads.emplace_back(client);
      client();
    }
    out.end_pass(seconds_since(epoch_start));
    const service::ServiceMetrics m = svc->metrics();
    totals.requests += m.requests;
    totals.store_hits += m.store_hits;
    totals.computed += m.computed;
    totals.inflight_waits += m.inflight_waits;
    totals.errors += m.errors;
    requests += trace.size();
    svc.reset();
    std::filesystem::remove_all(dir);

    // Audit: every response is byte-equal to the serial reference of its
    // key. The earliest non-cache response per key computed it; later
    // ones waited on that computation in flight.
    const Clock::time_point check_start = Clock::now();
    std::vector<double> first_miss_start(space, -1);
    std::vector<std::size_t> owner(space, trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Slot& s = slots[i];
      out.ledger.begin();
      out.ledger.check(s.ok, "serve failed");
      out.ledger.check(
          s.ok && service::serialize_certificate(s.cert) == reference_[trace[i]],
          "served certificate differs from the serial reference");
      if (s.from_cache) {
        hit_us.push_back(s.latency_s * 1e6);
        hit_total += s.latency_s;
      } else {
        miss_ms.push_back(s.latency_s * 1e3);
        const std::uint32_t key = trace[i];
        if (owner[key] == trace.size() || s.start_s < first_miss_start[key]) {
          owner[key] = i;
          first_miss_start[key] = s.start_s;
        }
      }
    }
    std::uint64_t unique = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Slot& s = slots[i];
      if (s.from_cache) continue;
      if (owner[trace[i]] == i) {
        miss_total += s.latency_s;
        miss_by_kind[keys_[trace[i]].kind] += s.latency_s;
      } else {
        wait_total += s.latency_s;
      }
    }
    std::vector<std::uint8_t> seen(space, 0);
    for (const std::uint32_t key : trace) {
      unique += seen[key] == 0 ? 1 : 0;
      seen[key] = 1;
    }
    {
      // Exact counts of the epoch: its distinct keys and the digest of
      // their reference certificates, in key order.
      std::uint64_t digest = 1469598103934665603ull;
      for (std::uint32_t key = 0; key < space; ++key) {
        if (seen[key] == 0) continue;
        for (const char c : reference_[key]) {
          digest = (digest ^ static_cast<unsigned char>(c)) * 1099511628211ull;
        }
      }
      out.record_pass_counts({{"requests", trace.size()},
                              {"unique_keys", unique},
                              {"certificate_digest", digest}});
    }
    // Mutation self-check: a certificate with one corrupted payload word
    // must not compare equal to its reference.
    if (!slots.empty() && slots[0].ok && !slots[0].cert.words.empty()) {
      service::Certificate corrupted = slots[0].cert;
      corrupted.words[0] += 1;
      out.ledger.begin();
      out.ledger.check(
          service::serialize_certificate(corrupted) != reference_[trace[0]],
          "mutation self-check: a corrupted certificate passed");
    }
    audit += seconds_since(check_start);
  }

  const double epochs = static_cast<double>(out.pass_seconds.size());
  double timed = 0;
  for (const double s : out.pass_seconds) timed += s;
  out.audit_seconds = audit;
  out.work_per_s = timed > 0 ? static_cast<double>(requests) / timed : 0;
  const auto tail = [](const std::vector<double>& v, double p,
                       const char* what) {
    const std::optional<double> value = supported_percentile(v, p);
    if (!value) {
      std::fprintf(stderr,
                   "perfbench: %s p%.0f has fewer than 10 samples beyond it "
                   "(%zu samples); reported as 0\n",
                   what, p, v.size());
    }
    return value.value_or(0);
  };
  out.headline.set("req_per_s", "1/s", out.work_per_s);
  out.headline.set("hit_p50_us", "us", tail(hit_us, 50, "hit latency"));
  out.headline.set("hit_p99_us", "us", tail(hit_us, 99, "hit latency"));
  out.headline.set("miss_p50_ms", "ms", tail(miss_ms, 50, "miss latency"));
  out.headline.set("miss_p99_ms", "ms", tail(miss_ms, 99, "miss latency"));
  out.headline.set("hit_samples", "count", static_cast<double>(hit_us.size()));
  out.headline.set("miss_samples", "count",
                   static_cast<double>(miss_ms.size()));

  MetricSet& l = out.layers;
  l.set("service.open_s", "s", median(open_s));
  l.set("service.hit_s", "s", hit_total / epochs);
  l.set("service.miss_s", "s", miss_total / epochs);
  l.set("service.miss_chain_s", "s", miss_by_kind[CertKind::kChain] / epochs);
  l.set("service.miss_full_s", "s", miss_by_kind[CertKind::kFull] / epochs);
  l.set("service.miss_decode_s", "s",
        miss_by_kind[CertKind::kDecode] / epochs);
  l.set("service.miss_segment_s", "s",
        miss_by_kind[CertKind::kSegment] / epochs);
  l.set("service.inflight_wait_s", "s", wait_total / epochs);
  l.set("service.requests", "count",
        static_cast<double>(totals.requests) / epochs);
  l.set("service.store_hits", "count",
        static_cast<double>(totals.store_hits) / epochs);
  l.set("service.computed", "count",
        static_cast<double>(totals.computed) / epochs);
  l.set("service.inflight_waits", "count",
        static_cast<double>(totals.inflight_waits) / epochs);
  l.set("service.hit_ratio", "ratio",
        totals.requests > 0 ? static_cast<double>(totals.store_hits) /
                                  static_cast<double>(totals.requests)
                            : 0);
  l.set("service.errors", "count", static_cast<double>(totals.errors));
  l.set("service.key_space", "count", static_cast<double>(space));
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_cert_serve() {
  return std::make_unique<CertServe>();
}

}  // namespace perfbench
