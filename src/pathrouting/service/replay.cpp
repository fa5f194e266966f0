#include "pathrouting/service/replay.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/support/check.hpp"
#include "pathrouting/support/prng.hpp"

namespace pathrouting::service {
namespace {

struct SpaceEntry {
  const char* alg;
  CertKind kind;
  int kmax;
};

// k ranges sized so one cold sweep of the whole space stays in the
// tens of milliseconds (the deepest entry, strassen chain k=7, is the
// bench's cold-miss headline and costs a few ms on the implicit path).
constexpr SpaceEntry kSpace[] = {
    {"strassen", CertKind::kChain, 7},
    {"strassen", CertKind::kFull, 6},
    {"strassen", CertKind::kDecode, 6},
    {"strassen", CertKind::kSegment, 3},
    {"winograd", CertKind::kChain, 5},
    {"winograd", CertKind::kDecode, 4},
    {"laderman", CertKind::kChain, 4},
    {"classical2_x_strassen", CertKind::kChain, 4},
    {"classical2_x_strassen", CertKind::kFull, 3},
};

constexpr const char* kColdMiss = "service_cold_miss";
constexpr const char* kTrace = "service_trace";
constexpr const char* kWarm = "service_warm";

/// A throwaway store directory for one replay, unique per process.
std::string replay_store_dir(const std::string& experiment) {
  return (std::filesystem::temp_directory_path() /
          ("pathrouting_replay." + std::to_string(::getpid()) + "." +
           experiment))
      .string();
}

}  // namespace

std::vector<Request> request_space() {
  std::vector<Request> space;
  for (const SpaceEntry& entry : kSpace) {
    for (int k = 1; k <= entry.kmax; ++k) {
      space.push_back(Request{entry.alg, k, entry.kind});
    }
  }
  return space;
}

std::vector<Request> zipf_trace(const TraceSpec& spec) {
  std::vector<Request> space = request_space();
  support::Xoshiro256 rng(spec.seed);
  // Seeded rank permutation (Fisher-Yates), so which requests are
  // "hot" varies with the seed while staying reproducible.
  for (std::size_t i = space.size(); i > 1; --i) {
    std::swap(space[i - 1], space[rng.below(i)]);
  }
  // Integer harmonic weights: rank i draws with weight W/(i+1). Pure
  // integer arithmetic keeps the trace platform-independent.
  constexpr std::uint64_t kScale = 1u << 20;
  std::vector<std::uint64_t> cumulative(space.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    total += kScale / static_cast<std::uint64_t>(i + 1);
    cumulative[i] = total;
  }
  std::vector<Request> trace;
  trace.reserve(spec.num_requests);
  for (std::uint64_t n = 0; n < spec.num_requests; ++n) {
    const std::uint64_t draw = rng.below(total);
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), draw);
    trace.push_back(space[static_cast<std::size_t>(
        std::distance(cumulative.begin(), it))]);
  }
  return trace;
}

ReplayResult replay_trace(CertificateService& svc,
                          std::span<const Request> trace,
                          int client_threads) {
  PR_REQUIRE(client_threads >= 1);
  using Clock = std::chrono::steady_clock;

  struct Shard {
    std::uint64_t ok = 0, errors = 0, hits = 0, computed = 0;
    std::vector<double> hit_us, miss_us;
  };
  std::vector<Shard> shards(static_cast<std::size_t>(client_threads));
  const std::size_t n = trace.size();

  const auto run_shard = [&](int c) {
    const std::size_t lo = n * static_cast<std::size_t>(c) /
                           static_cast<std::size_t>(client_threads);
    const std::size_t hi = n * static_cast<std::size_t>(c + 1) /
                           static_cast<std::size_t>(client_threads);
    Shard& shard = shards[static_cast<std::size_t>(c)];
    for (std::size_t i = lo; i < hi; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Response resp = svc.serve(trace[i]);
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      if (!resp.ok) {
        ++shard.errors;
        continue;
      }
      ++shard.ok;
      if (resp.from_cache) {
        ++shard.hits;
        shard.hit_us.push_back(us);
      } else {
        ++shard.computed;
        shard.miss_us.push_back(us);
      }
    }
  };

  const Clock::time_point start = Clock::now();
  if (client_threads == 1) {
    run_shard(0);
  } else {
    // Replay clients model independent external callers, so they are
    // deliberately NOT pool workers: the determinism contract covers
    // the served responses (fixed shard split + per-shard metrics),
    // not client scheduling.
    std::vector<std::thread> clients;  // pr-static: allow(static.raw-thread)
    clients.reserve(static_cast<std::size_t>(client_threads));
    for (int c = 0; c < client_threads; ++c) {
      clients.emplace_back(run_shard, c);
    }
    // pr-static: allow(static.raw-thread)
    for (std::thread& t : clients) t.join();
  }

  ReplayResult result;
  result.requests = n;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::set<std::tuple<std::string, int, CertKind>> unique;
  for (const Request& req : trace) {
    unique.emplace(req.algorithm, req.k, req.kind);
  }
  result.unique_keys = unique.size();
  for (const Shard& shard : shards) {
    result.ok += shard.ok;
    result.errors += shard.errors;
    result.cache_hits += shard.hits;
    result.computed += shard.computed;
    result.hit_us.insert(result.hit_us.end(), shard.hit_us.begin(),
                         shard.hit_us.end());
    result.miss_us.insert(result.miss_us.end(), shard.miss_us.begin(),
                          shard.miss_us.end());
  }
  return result;
}

double percentile_us(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t idx = static_cast<std::size_t>(std::ceil(rank));
  idx = idx == 0 ? 0 : idx - 1;
  idx = std::min(idx, values.size() - 1);
  return values[idx];
}

ServiceRun run_service_workload(const ServiceSpec& spec) {
  ServiceRun run;
  run.spec = spec;
  if (spec.experiment == kColdMiss) {
    CertificateService svc(ServiceConfig{});
    const auto t0 = std::chrono::steady_clock::now();
    run.response = svc.serve(spec.request);
    run.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return run;
  }
  PR_REQUIRE_MSG(spec.experiment == kTrace || spec.experiment == kWarm,
                 "not a re-derivable service workload");
  const std::vector<Request> trace = zipf_trace(spec.trace);
  ServiceConfig config;
  config.store_dir = replay_store_dir(spec.experiment);
  std::error_code ec;
  std::filesystem::remove_all(config.store_dir, ec);
  {
    CertificateService svc(config);
    run.replay = replay_trace(svc, trace, spec.client_threads);
  }
  if (spec.experiment == kWarm) {
    CertificateService reopened(config);
    run.replay = replay_trace(reopened, trace, spec.client_threads);
  }
  run.seconds = run.replay.seconds;
  std::filesystem::remove_all(config.store_dir, ec);
  return run;
}

void fill_service_record(const ServiceRun& run, obs::BenchRecord& rec) {
  const ServiceSpec& spec = run.spec;
  rec.set("experiment", spec.experiment).set("engine", "service");
  if (spec.experiment == kColdMiss) {
    const Response& resp = run.response;
    rec.set("algorithm", spec.request.algorithm)
        .set("k", spec.request.k)
        .set("kind", kind_name(spec.request.kind))
        .set("ok", resp.ok)
        .set("cached", resp.from_cache);
    if (resp.ok) {
      const auto& w = resp.certificate.words;
      rec.set("chains", w[kChainNumChains])
          .set("l3_max", w[kChainL3MaxHits])
          .set("l3_bound", w[kChainL3Bound])
          .set("l4", w[kChainL4Exact])
          .set("has_fnv", w[kChainHasHitDigest])
          .set("digest", resp.certificate.payload_digest);
    }
    rec.set("cold_us", run.seconds * 1e6).set("seconds", run.seconds);
    return;
  }
  const ReplayResult& r = run.replay;
  rec.set("seed", spec.trace.seed)
      .set("client_threads", spec.client_threads)
      .set("requests", r.requests)
      .set("unique_keys", r.unique_keys)
      .set("ok", r.ok)
      .set("errors", r.errors)
      .set("cache_hits", r.cache_hits)
      .set("computed", r.computed)
      .set("seconds", r.seconds)
      .set("hit_p50_us", percentile_us(r.hit_us, 50))
      .set("hit_p99_us", percentile_us(r.hit_us, 99))
      .set("miss_p50_us", percentile_us(r.miss_us, 50))
      .set("miss_p99_us", percentile_us(r.miss_us, 99))
      .set("rps", r.seconds > 0 ? static_cast<double>(r.requests) / r.seconds
                                : 0.0);
}

obs::FromRecord<ServiceSpec> service_spec_from_record(
    const obs::BenchRecord& rec) {
  using Read = obs::FromRecord<ServiceSpec>;
  ServiceSpec spec;
  spec.experiment = rec.text_or("experiment", "");
  if (spec.experiment == kColdMiss) {
    spec.request.algorithm = rec.text_or("algorithm", "");
    const std::int64_t k = rec.int_or("k", 0);
    const std::string error =
        cdag::rank_error(spec.request.algorithm, k, false);
    if (!error.empty()) return Read::reject(error);
    const std::string kind = rec.text_or("kind", "");
    if (kind != kind_name(CertKind::kChain)) {
      return Read::reject("cold-miss kind '" + kind +
                          "' is not re-derivable (chain only)");
    }
    spec.request.k = static_cast<int>(k);
    spec.request.kind = CertKind::kChain;
    return {std::move(spec), {}};
  }
  if (spec.experiment != kTrace && spec.experiment != kWarm) {
    return Read::reject("experiment '" + spec.experiment +
                        "' is not a re-derivable service workload");
  }
  spec.trace.seed = static_cast<std::uint64_t>(rec.int_or("seed", 0));
  const std::int64_t requests = rec.int_or("requests", 0);
  if (requests < 1 ||
      static_cast<std::uint64_t>(requests) > kMaxTraceRequests) {
    return Read::reject("requests " + std::to_string(requests) +
                        " outside 1.." + std::to_string(kMaxTraceRequests));
  }
  spec.trace.num_requests = static_cast<std::uint64_t>(requests);
  return {std::move(spec), {}};  // one client: the counts are exact
}

obs::FromRecord<obs::BenchRecord> rederive_service_record(
    const obs::BenchRecord& ref) {
  const obs::FromRecord<ServiceSpec> read = service_spec_from_record(ref);
  if (!read.value) return obs::FromRecord<obs::BenchRecord>::reject(read.error);
  obs::BenchRecord fresh;
  fill_service_record(run_service_workload(*read.value), fresh);
  return {std::move(fresh), {}};
}

}  // namespace pathrouting::service
