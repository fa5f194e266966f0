#include "pathrouting/routing/workload.hpp"

#include <chrono>
#include <utility>

#include "pathrouting/bilinear/analysis.hpp"
#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/cdag/implicit.hpp"
#include "pathrouting/routing/decode_routing.hpp"

namespace pathrouting::routing {

namespace {

constexpr const char* kChainExperiment = "chain_routing";
constexpr const char* kDecodeExperiment = "decode_routing";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The engine for `spec`: the decode router only when Claim 1 is asked
/// for (the reader has already checked the decoding graph).
MemoRoutingEngine make_engine(const bilinear::BilinearAlgorithm& alg,
                              const RoutingSpec& spec) {
  const ChainRouter router(alg);
  if (!spec.decode) return MemoRoutingEngine(router);
  return MemoRoutingEngine(router, DecodeRouter(alg));
}

RoutingPoint run_implicit_point(const RoutingSpec& spec) {
  const bilinear::BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  const MemoRoutingEngine engine = make_engine(alg, spec);
  const cdag::ImplicitCdag view(alg, spec.k);
  RoutingPoint point;
  point.spec = spec;
  const auto t0 = std::chrono::steady_clock::now();
  if (spec.decode) {
    point.decode = engine.verify_decode_routing(view, spec.k, 0);
  } else {
    point.chain.l3 = engine.verify_chain_routing(view, spec.k, 0);
    point.chain.l4 = engine.verify_chain_multiplicities(view, spec.k, 0);
    point.chain.t2 = engine.verify_full_routing(view, spec.k, 0);
  }
  point.seconds = seconds_since(t0);
  return point;
}

}  // namespace

RoutingPoint run_memo_point(const RoutingSpec& spec,
                            const cdag::SubComputation& sub) {
  const MemoRoutingEngine engine =
      make_engine(bilinear::by_name(spec.algorithm), spec);
  RoutingPoint point;
  point.spec = spec;
  const auto t0 = std::chrono::steady_clock::now();
  if (spec.decode) {
    point.hits = engine.decode_hits(sub);
    point.decode = engine.verify_decode_routing(sub);
  } else {
    ChainHitCounts counts = engine.chain_hits(sub);
    point.chain.l3 = chain_stats_from_counts(counts, sub);
    point.chain.l4 = engine.verify_chain_multiplicities(sub);
    point.chain.t2 = full_routing_from_chain_counts(sub, counts);
    point.hits = std::move(counts.hits);
  }
  point.seconds = seconds_since(t0);
  return point;
}

RoutingPoint run_routing_point(const RoutingSpec& spec) {
  if (spec.engine == EngineKind::kImplicit) return run_implicit_point(spec);
  const cdag::Cdag graph(bilinear::by_name(spec.algorithm), spec.k,
                         {.with_coefficients = false});
  return run_memo_point(spec, cdag::SubComputation(graph, spec.k, 0));
}

void fill_routing_record(const RoutingPoint& point, obs::BenchRecord& rec) {
  const RoutingSpec& spec = point.spec;
  rec.set("experiment", spec.decode ? kDecodeExperiment : kChainExperiment)
      .set("algorithm", spec.algorithm)
      .set("k", spec.k)
      .set("engine", engine_name(spec.engine));
  if (spec.decode) {
    rec.set("paths", point.decode.num_paths)
        .set("max_hits", point.decode.max_hits)
        .set("bound", point.decode.bound);
  } else {
    rec.set("chains", point.chain.l3.num_paths)
        .set("l3_max_hits", point.chain.l3.max_hits)
        .set("l3_bound", point.chain.l3.bound)
        .set("l4_exact", point.chain.l4)
        .set("t2_max_vertex_hits", point.chain.t2.max_vertex_hits)
        .set("t2_max_meta_hits", point.chain.t2.max_meta_hits)
        .set("t2_bound", point.chain.t2.bound);
  }
  rec.set("ok", point.ok());
}

obs::FromRecord<RoutingSpec> routing_spec_from_record(
    const obs::BenchRecord& rec) {
  using Read = obs::FromRecord<RoutingSpec>;
  RoutingSpec spec;
  const std::string experiment = rec.text_or("experiment", "");
  if (experiment != kChainExperiment && experiment != kDecodeExperiment) {
    return Read::reject("experiment '" + experiment +
                        "' is not a routing workload");
  }
  spec.decode = experiment == kDecodeExperiment;
  const std::string engine = rec.text_or("engine", "");
  if (engine == engine_name(EngineKind::kMemo)) {
    spec.engine = EngineKind::kMemo;
  } else if (engine == engine_name(EngineKind::kImplicit)) {
    spec.engine = EngineKind::kImplicit;
  } else {
    return Read::reject("engine '" + engine + "' is not re-derivable");
  }
  spec.algorithm = rec.text_or("algorithm", "");
  const std::int64_t k = rec.int_or("k", 0);
  const std::string error = cdag::rank_error(
      spec.algorithm, k, spec.engine == EngineKind::kMemo);
  if (!error.empty()) return Read::reject(error);
  spec.k = static_cast<int>(k);
  if (spec.decode && bilinear::decoding_components(bilinear::by_name(
                         spec.algorithm)) != 1) {
    return Read::reject("the decoding graph of '" + spec.algorithm +
                        "' is disconnected; Claim 1 does not apply");
  }
  return {std::move(spec), {}};
}

obs::FromRecord<obs::BenchRecord> rederive_routing_record(
    const obs::BenchRecord& ref) {
  const obs::FromRecord<RoutingSpec> read = routing_spec_from_record(ref);
  if (!read.value) return obs::FromRecord<obs::BenchRecord>::reject(read.error);
  const RoutingPoint point = run_routing_point(*read.value);
  obs::BenchRecord fresh;
  fill_routing_record(point, fresh);
  fresh.set("seconds", point.seconds);
  return {std::move(fresh), {}};
}

}  // namespace pathrouting::routing
