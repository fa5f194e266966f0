#include "pathrouting/bilinear/catalog.hpp"

#include <algorithm>
#include <utility>

#include "pathrouting/support/check.hpp"

namespace pathrouting::bilinear {

namespace {

/// Sparse term: coefficient * entry. Entries use row-major flattening
/// d = i*n0 + j with 0-based i, j.
struct Term {
  int entry;
  int coeff;
};

/// Builds the dense row-major U/V table (b x a) from per-product sparse
/// rows.
std::vector<Rational> dense_rows(int b, int a,
                                 const std::vector<std::vector<Term>>& rows) {
  PR_REQUIRE(static_cast<int>(rows.size()) == b);
  std::vector<Rational> out(static_cast<std::size_t>(b) * a, Rational(0));
  for (int q = 0; q < b; ++q) {
    for (const Term& t : rows[static_cast<std::size_t>(q)]) {
      PR_REQUIRE(t.entry >= 0 && t.entry < a);
      out[static_cast<std::size_t>(q) * a + static_cast<std::size_t>(t.entry)] =
          Rational(t.coeff);
    }
  }
  return out;
}

/// Builds the dense row-major W table (a x b) from per-output sparse rows
/// (terms reference product indices).
std::vector<Rational> dense_cols(int a, int b,
                                 const std::vector<std::vector<Term>>& rows) {
  PR_REQUIRE(static_cast<int>(rows.size()) == a);
  std::vector<Rational> out(static_cast<std::size_t>(a) * b, Rational(0));
  for (int d = 0; d < a; ++d) {
    for (const Term& t : rows[static_cast<std::size_t>(d)]) {
      PR_REQUIRE(t.entry >= 0 && t.entry < b);
      out[static_cast<std::size_t>(d) * b + static_cast<std::size_t>(t.entry)] =
          Rational(t.coeff);
    }
  }
  return out;
}

}  // namespace

BilinearAlgorithm classical(int n0) {
  PR_REQUIRE(n0 >= 2);
  const int a = n0 * n0;
  const int b = n0 * n0 * n0;
  std::vector<Rational> u(static_cast<std::size_t>(b) * a, Rational(0));
  std::vector<Rational> v(static_cast<std::size_t>(b) * a, Rational(0));
  std::vector<Rational> w(static_cast<std::size_t>(a) * b, Rational(0));
  // Product q = (i, k, j) computes A(i,k) * B(k,j) and feeds C(i,j).
  for (int i = 0; i < n0; ++i) {
    for (int k = 0; k < n0; ++k) {
      for (int j = 0; j < n0; ++j) {
        const int q = (i * n0 + k) * n0 + j;
        u[static_cast<std::size_t>(q) * a +
          static_cast<std::size_t>(i * n0 + k)] = Rational(1);
        v[static_cast<std::size_t>(q) * a +
          static_cast<std::size_t>(k * n0 + j)] = Rational(1);
        w[static_cast<std::size_t>(i * n0 + j) * b +
          static_cast<std::size_t>(q)] = Rational(1);
      }
    }
  }
  return BilinearAlgorithm("classical" + std::to_string(n0), n0, b,
                           std::move(u), std::move(v), std::move(w));
}

BilinearAlgorithm strassen() {
  const int n0 = 2, a = 4, b = 7;
  // Entry indices: A11=0 A12=1 A21=2 A22=3 (same for B and C).
  const std::vector<std::vector<Term>> u_rows = {
      {{0, 1}, {3, 1}},    // M1: A11 + A22
      {{2, 1}, {3, 1}},    // M2: A21 + A22
      {{0, 1}},            // M3: A11
      {{3, 1}},            // M4: A22
      {{0, 1}, {1, 1}},    // M5: A11 + A12
      {{2, 1}, {0, -1}},   // M6: A21 - A11
      {{1, 1}, {3, -1}}};  // M7: A12 - A22
  const std::vector<std::vector<Term>> v_rows = {
      {{0, 1}, {3, 1}},    // M1: B11 + B22
      {{0, 1}},            // M2: B11
      {{1, 1}, {3, -1}},   // M3: B12 - B22
      {{2, 1}, {0, -1}},   // M4: B21 - B11
      {{3, 1}},            // M5: B22
      {{0, 1}, {1, 1}},    // M6: B11 + B12
      {{2, 1}, {3, 1}}};   // M7: B21 + B22
  const std::vector<std::vector<Term>> w_rows = {
      {{0, 1}, {3, 1}, {4, -1}, {6, 1}},   // C11 = M1 + M4 - M5 + M7
      {{2, 1}, {4, 1}},                    // C12 = M3 + M5
      {{1, 1}, {3, 1}},                    // C21 = M2 + M4
      {{0, 1}, {1, -1}, {2, 1}, {5, 1}}};  // C22 = M1 - M2 + M3 + M6
  return BilinearAlgorithm("strassen", n0, b, dense_rows(b, a, u_rows),
                           dense_rows(b, a, v_rows), dense_cols(a, b, w_rows));
}

BilinearAlgorithm winograd() {
  const int n0 = 2, a = 4, b = 7;
  // The 15-addition Strassen-Winograd variant, flattened to bilinear
  // form (the intermediate sums S1..S4, T1..T4, U1..U7 are expanded).
  const std::vector<std::vector<Term>> u_rows = {
      {{0, 1}},                            // M1: A11
      {{1, 1}},                            // M2: A12
      {{0, 1}, {1, 1}, {2, -1}, {3, -1}},  // M3: S4 = A11+A12-A21-A22
      {{3, 1}},                            // M4: A22
      {{2, 1}, {3, 1}},                    // M5: S1 = A21+A22
      {{0, -1}, {2, 1}, {3, 1}},           // M6: S2 = A21+A22-A11
      {{0, 1}, {2, -1}}};                  // M7: S3 = A11-A21
  const std::vector<std::vector<Term>> v_rows = {
      {{0, 1}},                            // M1: B11
      {{2, 1}},                            // M2: B21
      {{3, 1}},                            // M3: B22
      {{0, 1}, {1, -1}, {2, -1}, {3, 1}},  // M4: T4 = B11-B12-B21+B22
      {{0, -1}, {1, 1}},                   // M5: T1 = B12-B11
      {{0, 1}, {1, -1}, {3, 1}},           // M6: T2 = B22-B12+B11
      {{1, -1}, {3, 1}}};                  // M7: T3 = B22-B12
  const std::vector<std::vector<Term>> w_rows = {
      {{0, 1}, {1, 1}},                  // C11 = M1 + M2
      {{0, 1}, {2, 1}, {4, 1}, {5, 1}},  // C12 = M1 + M6 + M5 + M3
      {{0, 1}, {3, -1}, {5, 1}, {6, 1}},  // C21 = M1 + M6 + M7 - M4
      {{0, 1}, {4, 1}, {5, 1}, {6, 1}}};  // C22 = M1 + M6 + M7 + M5
  return BilinearAlgorithm("winograd", n0, b, dense_rows(b, a, u_rows),
                           dense_rows(b, a, v_rows), dense_cols(a, b, w_rows));
}

BilinearAlgorithm laderman() {
  const int n0 = 3, a = 9, b = 23;
  // A Laderman-type <3,3,3;23> algorithm. Entry indices are row-major:
  // A11=0 A12=1 A13=2 / A21=3 A22=4 A23=5 / A31=6 A32=7 A33=8.
  // Products m3 and m11 were completed by solving the output
  // polynomials; the whole table is verified against the Brent
  // equations in the test suite.
  const std::vector<std::vector<Term>> u_rows = {
      // m1: A11+A12+A13-A21-A22-A32-A33
      {{0, 1}, {1, 1}, {2, 1}, {3, -1}, {4, -1}, {7, -1}, {8, -1}},
      {{0, 1}, {3, -1}},          // m2: A11-A21
      {{4, 1}},                   // m3: A22
      {{0, -1}, {3, 1}, {4, 1}},  // m4: -A11+A21+A22
      {{3, 1}, {4, 1}},           // m5: A21+A22
      {{0, 1}},                   // m6: A11
      {{0, -1}, {6, 1}, {7, 1}},  // m7: -A11+A31+A32
      {{0, -1}, {6, 1}},          // m8: -A11+A31
      {{6, 1}, {7, 1}},           // m9: A31+A32
      // m10: A11+A12+A13-A22-A23-A31-A32
      {{0, 1}, {1, 1}, {2, 1}, {4, -1}, {5, -1}, {6, -1}, {7, -1}},
      {{7, 1}},                   // m11: A32
      {{2, -1}, {7, 1}, {8, 1}},  // m12: -A13+A32+A33
      {{2, 1}, {8, -1}},          // m13: A13-A33
      {{2, 1}},                   // m14: A13
      {{7, 1}, {8, 1}},           // m15: A32+A33
      {{2, -1}, {4, 1}, {5, 1}},  // m16: -A13+A22+A23
      {{2, 1}, {5, -1}},          // m17: A13-A23
      {{4, 1}, {5, 1}},           // m18: A22+A23
      {{1, 1}},                   // m19: A12
      {{5, 1}},                   // m20: A23
      {{3, 1}},                   // m21: A21
      {{6, 1}},                   // m22: A31
      {{8, 1}}};                  // m23: A33
  const std::vector<std::vector<Term>> v_rows = {
      {{4, 1}},                   // m1: B22
      {{1, -1}, {4, 1}},          // m2: B22-B12
      // m3: -B11+B12+B21-B22-B23-B31+B33
      {{0, -1}, {1, 1}, {3, 1}, {4, -1}, {5, -1}, {6, -1}, {8, 1}},
      {{0, 1}, {1, -1}, {4, 1}},  // m4: B11-B12+B22
      {{0, -1}, {1, 1}},          // m5: -B11+B12
      {{0, 1}},                   // m6: B11
      {{0, 1}, {2, -1}, {5, 1}},  // m7: B11-B13+B23
      {{2, 1}, {5, -1}},          // m8: B13-B23
      {{0, -1}, {2, 1}},          // m9: -B11+B13
      {{5, 1}},                   // m10: B23
      // m11: -B11+B13+B21-B22-B23-B31+B32
      {{0, -1}, {2, 1}, {3, 1}, {4, -1}, {5, -1}, {6, -1}, {7, 1}},
      {{4, 1}, {6, 1}, {7, -1}},  // m12: B22+B31-B32
      {{4, 1}, {7, -1}},          // m13: B22-B32
      {{6, 1}},                   // m14: B31
      {{6, -1}, {7, 1}},          // m15: -B31+B32
      {{5, 1}, {6, 1}, {8, -1}},  // m16: B23+B31-B33
      {{5, 1}, {8, -1}},          // m17: B23-B33
      {{6, -1}, {8, 1}},          // m18: -B31+B33
      {{3, 1}},                   // m19: B21
      {{7, 1}},                   // m20: B32
      {{2, 1}},                   // m21: B13
      {{1, 1}},                   // m22: B12
      {{8, 1}}};                  // m23: B33
  const std::vector<std::vector<Term>> w_rows = {
      {{5, 1}, {13, 1}, {18, 1}},  // C11 = m6+m14+m19
      // C12 = m1+m4+m5+m6+m12+m14+m15
      {{0, 1}, {3, 1}, {4, 1}, {5, 1}, {11, 1}, {13, 1}, {14, 1}},
      // C13 = m6+m7+m9+m10+m14+m16+m18
      {{5, 1}, {6, 1}, {8, 1}, {9, 1}, {13, 1}, {15, 1}, {17, 1}},
      // C21 = m2+m3+m4+m6+m14+m16+m17
      {{1, 1}, {2, 1}, {3, 1}, {5, 1}, {13, 1}, {15, 1}, {16, 1}},
      // C22 = m2+m4+m5+m6+m20
      {{1, 1}, {3, 1}, {4, 1}, {5, 1}, {19, 1}},
      // C23 = m14+m16+m17+m18+m21
      {{13, 1}, {15, 1}, {16, 1}, {17, 1}, {20, 1}},
      // C31 = m6+m7+m8+m11+m12+m13+m14
      {{5, 1}, {6, 1}, {7, 1}, {10, 1}, {11, 1}, {12, 1}, {13, 1}},
      // C32 = m12+m13+m14+m15+m22
      {{11, 1}, {12, 1}, {13, 1}, {14, 1}, {21, 1}},
      // C33 = m6+m7+m8+m9+m23
      {{5, 1}, {6, 1}, {7, 1}, {8, 1}, {22, 1}}};
  return BilinearAlgorithm("laderman", n0, b, dense_rows(b, a, u_rows),
                           dense_rows(b, a, v_rows), dense_cols(a, b, w_rows));
}

BilinearAlgorithm strassen_squared() {
  BilinearAlgorithm alg = tensor_product(strassen(), strassen());
  alg.set_name("strassen_squared");
  return alg;
}

BilinearAlgorithm classical2_x_strassen() {
  BilinearAlgorithm alg = tensor_product(classical(2), strassen());
  alg.set_name("classical2_x_strassen");
  return alg;
}

BilinearAlgorithm strassen_x_classical2() {
  BilinearAlgorithm alg = tensor_product(strassen(), classical(2));
  alg.set_name("strassen_x_classical2");
  return alg;
}

BilinearAlgorithm winograd_squared() {
  BilinearAlgorithm alg = tensor_product(winograd(), winograd());
  alg.set_name("winograd_squared");
  return alg;
}

BilinearAlgorithm strassen_x_laderman() {
  BilinearAlgorithm alg = tensor_product(strassen(), laderman());
  alg.set_name("strassen_x_laderman");
  return alg;
}

std::vector<std::string> catalog_names() {
  return {"classical2",       "classical3",
          "strassen",         "winograd",
          "laderman",         "strassen_squared",
          "classical2_x_strassen", "strassen_x_classical2",
          "winograd_squared", "strassen_x_laderman"};
}

bool is_catalog_name(const std::string& name) {
  const std::vector<std::string> names = catalog_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

BilinearAlgorithm by_name(const std::string& name) {
  if (name == "classical2") return classical(2);
  if (name == "classical3") return classical(3);
  if (name == "strassen") return strassen();
  if (name == "winograd") return winograd();
  if (name == "laderman") return laderman();
  if (name == "strassen_squared") return strassen_squared();
  if (name == "classical2_x_strassen") return classical2_x_strassen();
  if (name == "strassen_x_classical2") return strassen_x_classical2();
  if (name == "winograd_squared") return winograd_squared();
  if (name == "strassen_x_laderman") return strassen_x_laderman();
  PR_REQUIRE_MSG(false, "unknown catalog algorithm name");
}

}  // namespace pathrouting::bilinear
