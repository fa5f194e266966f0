#include "pathrouting/search/sweep.hpp"

#include <algorithm>

#include "pathrouting/bilinear/catalog.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/cdag/cdag.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/schedules.hpp"
#include "pathrouting/search/local_search.hpp"
#include "pathrouting/support/digest.hpp"

namespace pathrouting::search {

std::uint64_t graph_digest(const cdag::Graph& graph) {
  std::vector<std::uint64_t> words;
  words.reserve(static_cast<std::size_t>(graph.num_vertices()) * 3);
  words.push_back(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    words.push_back(graph.in_degree(v));
    for (const VertexId p : graph.in(v)) words.push_back(p);
  }
  return support::fnv1a_words(words);
}

SweepPoint run_search_point(const SweepSpec& spec) {
  const bilinear::BilinearAlgorithm alg = bilinear::by_name(spec.algorithm);
  const cdag::Cdag cdag(alg, spec.r, {.with_coefficients = false});
  const cdag::Graph& graph = cdag.graph();
  const cdag::Layout& layout = cdag.layout();

  SweepPoint point;
  point.spec = spec;
  point.num_vertices = graph.num_vertices();
  point.output_mask.assign(graph.num_vertices(), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    point.output_mask[v] = layout.is_output(v) ? 1 : 0;
  }
  const auto is_output = [&](VertexId v) { return point.output_mask[v] != 0; };

  const std::vector<VertexId> dfs = schedule::dfs_schedule(cdag);
  const std::vector<VertexId> bfs = schedule::bfs_schedule(cdag);
  point.scheduled_vertices = dfs.size();
  const pebble::PebbleOptions pebble_opts{.cache_size = spec.m};
  pebble::Simulator simulator(graph, is_output);
  point.dfs_io = simulator.run(dfs, pebble_opts).io();
  point.bfs_io = simulator.run(bfs, pebble_opts).io();

  const LocalSearchResult local = improve_schedule(
      graph, dfs,
      {.cache_size = spec.m,
       .seed = spec.seed,
       .max_rounds = spec.ls_rounds,
       .moves_per_round = spec.ls_moves},
      is_output);
  point.local_io = local.io;
  point.moves_accepted = local.moves_accepted;

  SearchOptions options;
  options.cache_size = spec.m;
  options.node_budget = spec.node_budget;
  // The paper's schedule-independent closed form (Section 6 segment
  // inequality; vacuous below its r floor, in which case the
  // partial-state root bound carries the certificate alone).
  options.extra_lower_bound =
      bounds::theorem1_io_lower_bound(alg.a(), alg.b(), spec.r, spec.m);
  options.initial_incumbent = local.schedule;
  const SearchResult searched = branch_and_bound(graph, options, is_output);

  point.searched_io = searched.best_io;
  point.lower_bound = searched.lower_bound;
  point.certified = searched.certified;
  point.proof = searched.proof;
  point.nodes_expanded = searched.nodes_expanded;
  point.nodes_pruned = searched.nodes_pruned;
  point.leaves_scored = searched.leaves_scored;
  point.witness = searched.best_schedule;

  const pebble::PebbleResult best_sim =
      simulator.run(point.witness, pebble_opts);
  point.searched_reads = best_sim.reads;
  point.searched_writes = best_sim.writes;

  point.graph_fnv = graph_digest(graph);
  std::vector<std::uint64_t> witness_words(point.witness.begin(),
                                           point.witness.end());
  point.witness_fnv = support::fnv1a_words(witness_words);
  return point;
}

void fill_search_record(const SweepPoint& point, obs::BenchRecord& rec) {
  const SweepSpec& spec = point.spec;
  rec.set("experiment", "schedule_search")
      .set("engine", "search")
      .set("algorithm", spec.algorithm)
      .set("k", spec.r)
      .set("m", spec.m)
      .set("budget", spec.node_budget)
      .set("seed", spec.seed)
      .set("ls_rounds", spec.ls_rounds)
      .set("ls_moves", spec.ls_moves)
      .set("vertices", point.num_vertices)
      .set("scheduled", point.scheduled_vertices)
      .set("dfs_io", point.dfs_io)
      .set("bfs_io", point.bfs_io)
      .set("local_io", point.local_io)
      .set("searched_io", point.searched_io)
      .set("searched_reads", point.searched_reads)
      .set("searched_writes", point.searched_writes)
      .set("lower_bound", point.lower_bound)
      .set("certified", point.certified)
      .set("proof", proof_name(point.proof))
      .set("nodes_expanded", point.nodes_expanded)
      .set("nodes_pruned", point.nodes_pruned)
      .set("leaves_scored", point.leaves_scored)
      .set("moves_accepted", point.moves_accepted)
      .set("graph_fnv", point.graph_fnv)
      .set("witness_fnv", point.witness_fnv)
      .set("ratio_vs_lb",
           point.lower_bound > 0 ? static_cast<double>(point.searched_io) /
                                       static_cast<double>(point.lower_bound)
                                 : 0.0);
}

SweepSpec search_spec_from_record(const obs::BenchRecord& rec) {
  SweepSpec spec;
  spec.algorithm = rec.text_or("algorithm", "");
  spec.r = static_cast<int>(rec.int_or("k", 1));
  spec.m = static_cast<std::uint64_t>(rec.int_or("m", 0));
  spec.node_budget = static_cast<std::uint64_t>(rec.int_or("budget", 0));
  spec.seed = static_cast<std::uint64_t>(rec.int_or("seed", 1));
  spec.ls_rounds = static_cast<std::uint64_t>(rec.int_or("ls_rounds", 16));
  spec.ls_moves = static_cast<std::uint64_t>(rec.int_or("ls_moves", 64));
  return spec;
}

}  // namespace pathrouting::search
