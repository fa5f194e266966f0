// Catalog of base algorithms used throughout the tests and benches.
//
// Hand-entered algorithms are validated by the Brent equations
// (BilinearAlgorithm::verify_brent) in the test suite; tensor-product
// entries are exact by construction from verified factors.
#pragma once

#include <string>
#include <vector>

#include "pathrouting/bilinear/bilinear.hpp"

namespace pathrouting::bilinear {

/// Classical <n0,n0,n0; n0^3> algorithm (one product per (i,k,j)).
/// omega0 = 3: not "fast", excluded from Theorem 1, but exercises the
/// CDAG machinery (notably massive multiple copying) and serves as the
/// Hong-Kung baseline.
BilinearAlgorithm classical(int n0);

/// Strassen's <2,2,2;7> algorithm, omega0 = log2 7 ~ 2.807.
BilinearAlgorithm strassen();

/// Winograd's 7-multiplication, 15-addition variant of Strassen.
/// Same exponent, different base graph (denser encoding rows).
BilinearAlgorithm winograd();

/// A <3,3,3;23> algorithm of Laderman type, omega0 = log3 23 ~ 2.854.
BilinearAlgorithm laderman();

/// Strassen tensor Strassen: <4,4,4;49>, omega0 = log2 7. One recursion
/// level of this equals two of Strassen's; a Strassen-like base with
/// n0 = 4.
BilinearAlgorithm strassen_squared();

/// classical(2) tensor strassen: <4,4,4;56>, omega0 = log4 56 ~ 2.904.
/// Its base-graph DECODING graph is disconnected (outputs with distinct
/// outer block index share no products) — exactly the case the
/// edge-expansion proof of [6] cannot handle and this paper can.
BilinearAlgorithm classical2_x_strassen();

/// strassen tensor classical(2): <4,4,4;56>. Dual of the above; its
/// base-graph ENCODING graphs are disconnected.
BilinearAlgorithm strassen_x_classical2();

/// Winograd tensor Winograd: <4,4,4;49>, omega0 = log2 7. Same exponent
/// as strassen_squared with a denser base graph.
BilinearAlgorithm winograd_squared();

/// Strassen tensor Laderman: <6,6,6;161>, omega0 = 2 log_36 161 ~ 2.837
/// — a third distinct exponent in the catalog, mechanically exact.
BilinearAlgorithm strassen_x_laderman();

/// Names of all catalog entries accepted by `by_name`.
std::vector<std::string> catalog_names();

/// Whether `by_name(name)` would succeed — the check callers holding
/// outside input (CLI flags, requests, BENCH records) make first.
bool is_catalog_name(const std::string& name);

/// Lookup by name ("classical2", "classical3", "strassen", "winograd",
/// "laderman", "strassen_squared", "classical2_x_strassen",
/// "strassen_x_classical2"). Aborts on unknown name.
BilinearAlgorithm by_name(const std::string& name);

}  // namespace pathrouting::bilinear
