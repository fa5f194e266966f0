// The schedule-search rule: a certified-optimal claim is only as good
// as its re-derivation. The rule trusts nothing in the certificate —
// it re-validates the witness against the machine model, re-simulates
// it under Belady, and re-derives the root lower bound (the empty-
// prefix partial-state bound max-combined with the paper's Theorem-1
// closed form), then requires the claimed numbers to match exactly.
#include <algorithm>
#include <sstream>

#include "pathrouting/audit/audit.hpp"
#include "pathrouting/audit/internal.hpp"
#include "pathrouting/bounds/formulas.hpp"
#include "pathrouting/bounds/schedule_bound.hpp"
#include "pathrouting/pebble/cache_sim.hpp"
#include "pathrouting/schedule/validate.hpp"

namespace pathrouting::audit {

AuditReport audit_search_certificate(const SearchCertificateView& cert,
                                     const RuleSelection& selection) {
  constexpr std::string_view kRule = "search.certified-optimal";
  AuditReport report;
  internal::Findings findings;
  const cdag::Graph& graph = *cert.graph;
  const auto is_output = [&](VertexId v) {
    return v < cert.output_mask.size() && cert.output_mask[v] != 0;
  };

  // Clause 1: the witness is a clean, complete topological schedule.
  const std::vector<Diagnostic> schedule_findings =
      schedule::schedule_diagnostics(graph, cert.schedule);
  for (const Diagnostic& diag : schedule_findings) {
    findings.add(internal::error(
        kRule, "witness schedule violates " + diag.rule + ": " + diag.message,
        diag.vertex));
  }

  // Clause 2: the Belady re-simulation reproduces the claimed I/O. The
  // pebble game cannot run below its floor, so an M under it is a
  // finding, not a re-simulation.
  const std::uint64_t floor = pebble::min_cache_size(graph);
  if (cert.cache_size < floor) {
    std::ostringstream os;
    os << "cache size M = " << cert.cache_size
       << " is below the pebble game's floor max in-degree + 1 = " << floor
       << "; the witness cannot be re-simulated";
    findings.add(
        internal::error_counts(kRule, os.str(), floor, cert.cache_size));
  } else if (schedule_findings.empty()) {
    const pebble::PebbleResult sim = pebble::simulate(
        graph, cert.schedule, {.cache_size = cert.cache_size}, is_output);
    if (sim.io() != cert.claimed_io) {
      std::ostringstream os;
      os << "witness re-simulates to " << sim.io() << " I/Os (" << sim.reads
         << "r+" << sim.writes << "w) but the certificate claims "
         << cert.claimed_io;
      findings.add(
          internal::error_counts(kRule, os.str(), cert.claimed_io, sim.io()));
    }
  }

  // Clause 3: the root lower bound re-derives to the claimed value (the
  // bound is defined for M >= 2; below that clause 2 already reported).
  if (cert.cache_size >= 2) {
    const bounds::PartialBound root = bounds::partial_schedule_lower_bound(
        graph, {}, cert.cache_size, is_output);
    std::uint64_t rederived = root.total();
    if (cert.theorem1_a > 0) {
      rederived = std::max(
          rederived, bounds::theorem1_io_lower_bound(
                         static_cast<int>(cert.theorem1_a),
                         static_cast<int>(cert.theorem1_b), cert.theorem1_r,
                         cert.cache_size));
    }
    if (rederived != cert.claimed_lower_bound) {
      std::ostringstream os;
      os << "root lower bound re-derives to " << rederived
         << " but the certificate claims " << cert.claimed_lower_bound;
      findings.add(internal::error_counts(
          kRule, os.str(), cert.claimed_lower_bound, rederived));
    }
  }

  // Clause 4: no claimed cost may undercut the claimed bound.
  if (cert.claimed_io < cert.claimed_lower_bound) {
    std::ostringstream os;
    os << "claimed I/O " << cert.claimed_io
       << " undercuts the claimed lower bound " << cert.claimed_lower_bound;
    findings.add(internal::error_counts(kRule, os.str(),
                                        cert.claimed_lower_bound,
                                        cert.claimed_io));
  }

  // Clause 5: a bound-met optimality proof means cost == bound.
  if (cert.claims_bound_met_optimal &&
      cert.claimed_io != cert.claimed_lower_bound) {
    std::ostringstream os;
    os << "certificate claims bound-met optimality but claimed I/O "
       << cert.claimed_io << " != claimed lower bound "
       << cert.claimed_lower_bound;
    findings.add(internal::error_counts(kRule, os.str(),
                                        cert.claimed_lower_bound,
                                        cert.claimed_io));
  }

  internal::flush(report, selection, kRule, std::move(findings));
  return report;
}

}  // namespace pathrouting::audit
