// View reconciliation: the exhaustive implicit-vs-explicit consistency
// rule (cdag.view-consistency).
#include <string>
#include <vector>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/cdag/view.hpp"
#include "pathrouting/support/parallel.hpp"

namespace pathrouting::audit {

namespace {

namespace parallel = support::parallel;
using internal::error;
using internal::error_counts;
using internal::Findings;
using internal::flush;

constexpr std::string_view kViewConsistency = "cdag.view-consistency";

}  // namespace

AuditReport audit_view_consistency(const cdag::CdagView& view,
                                   const cdag::Cdag& reference,
                                   const RuleSelection& selection) {
  AuditReport report;
  Findings preamble;
  const cdag::Graph& graph = reference.graph();
  const std::uint64_t n = graph.num_vertices();
  bool comparable = true;
  if (view.num_vertices() != n) {
    preamble.add(error_counts(kViewConsistency,
                              "view and reference disagree on the vertex "
                              "count; skipping the per-vertex comparison",
                              /*expected=*/n, /*actual=*/view.num_vertices()));
    comparable = false;
  }
  if (view.layout().a() != reference.layout().a() ||
      view.layout().b() != reference.layout().b() ||
      view.layout().r() != reference.layout().r()) {
    preamble.add(error(kViewConsistency,
                       "view and reference disagree on the layout "
                       "parameters (a, b, r); skipping the per-vertex "
                       "comparison"));
    comparable = false;
  }
  if (!comparable) {
    flush(report, selection, kViewConsistency, std::move(preamble));
    return report;
  }
  if (view.num_edges() != graph.num_edges()) {
    preamble.add(error_counts(kViewConsistency,
                              "view and reference disagree on the edge count",
                              /*expected=*/graph.num_edges(),
                              /*actual=*/view.num_edges()));
  }
  Findings scan = parallel::parallel_reduce<Findings>(
      0, n, internal::kScanGrain, Findings{},
      [&](std::uint64_t lo, std::uint64_t hi) {
        Findings chunk;
        std::vector<VertexId> in_scratch;
        std::vector<VertexId> out_scratch;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const auto v = static_cast<VertexId>(i);
          const std::uint32_t din = graph.in_degree(v);
          if (view.in_degree(v) != din) {
            chunk.add(error_counts(kViewConsistency,
                                   "in_degree differs from the explicit CSR",
                                   /*expected=*/din,
                                   /*actual=*/view.in_degree(v), v));
          } else {
            const auto want = graph.in(v);
            const auto got = view.in(v, in_scratch);
            for (std::size_t j = 0; j < want.size(); ++j) {
              if (got[j] != want[j]) {
                chunk.add(error_counts(
                    kViewConsistency,
                    "in-list entry differs from the explicit CSR",
                    /*expected=*/want[j], /*actual=*/got[j], v,
                    graph.in_edge_base(v) + j));
                break;
              }
            }
          }
          const std::uint32_t dout = graph.out_degree(v);
          if (view.out_degree(v) != dout) {
            chunk.add(error_counts(kViewConsistency,
                                   "out_degree differs from the explicit CSR",
                                   /*expected=*/dout,
                                   /*actual=*/view.out_degree(v), v));
          } else {
            const auto want = graph.out(v);
            const auto got = view.out(v, out_scratch);
            for (std::size_t j = 0; j < want.size(); ++j) {
              if (got[j] != want[j]) {
                chunk.add(error_counts(
                    kViewConsistency,
                    "out-list entry differs from the explicit CSR",
                    /*expected=*/want[j], /*actual=*/got[j], v));
                break;
              }
            }
          }
          if (view.copy_parent(v) != reference.copy_parent(v)) {
            chunk.add(error_counts(
                kViewConsistency, "copy-parent differs from the reference",
                /*expected=*/reference.copy_parent(v),
                /*actual=*/view.copy_parent(v), v));
          }
          if (view.meta_root(v) != reference.meta_root(v)) {
            chunk.add(error_counts(
                kViewConsistency, "meta-root differs from the reference",
                /*expected=*/reference.meta_root(v),
                /*actual=*/view.meta_root(v), v));
          }
          if (view.meta_size(v) != reference.meta_size(v)) {
            chunk.add(error_counts(
                kViewConsistency, "meta-size differs from the reference",
                /*expected=*/reference.meta_size(v),
                /*actual=*/view.meta_size(v), v));
          }
        }
        return chunk;
      },
      [](Findings& acc, Findings& chunk) { acc.merge(chunk); });
  preamble.merge(scan);
  flush(report, selection, kViewConsistency, std::move(preamble));
  return report;
}

}  // namespace pathrouting::audit
