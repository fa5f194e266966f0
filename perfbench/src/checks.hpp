// The benchmark's correctness checkers, as pure functions so the
// self-tests can feed them injected corruption and every run can prove
// that a corrupted count registers as a failure (the mutation
// self-check each workload makes after its real checks).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "pathrouting/bounds/segment_certifier.hpp"
#include "pathrouting/pebble/cache_sim.hpp"

namespace perfbench {

/// Recorded exact I/O of a seed-independent io-pipeline simulation
/// (strassen G_6; schedule "dfs" or "bfs"; M 8 or 256), or nullopt
/// when no reference is recorded for the combination.
[[nodiscard]] std::optional<std::uint64_t> reference_io(
    std::string_view schedule, std::uint64_t m, bool belady);

/// True when `io` equals the recorded reference (or none is recorded).
[[nodiscard]] bool io_matches_reference(std::string_view schedule,
                                        std::uint64_t m, bool belady,
                                        std::uint64_t io);

/// The paper's per-segment consequence on a simulated execution: every
/// segment's attributed I/O (reads issued in it plus writes of values
/// born in it) is at least boundary_vertices - 2M.
[[nodiscard]] bool segments_respect_floor(
    const pathrouting::bounds::CertifyResult& cert,
    const pathrouting::pebble::PebbleResult& sim, std::uint64_t m);

/// The schedule-search pipeline order: lower_bound <= searched <=
/// local <= dfs.
[[nodiscard]] bool search_costs_ordered(std::uint64_t lower_bound,
                                        std::uint64_t searched,
                                        std::uint64_t local,
                                        std::uint64_t dfs);

}  // namespace perfbench
