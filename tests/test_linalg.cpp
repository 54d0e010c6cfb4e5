#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/irls.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/rank_tracker.hpp"
#include "linalg/simplex.hpp"
#include "linalg/solvers.hpp"
#include "linalg/updatable_cholesky.hpp"
#include "oracles/oracles.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::linalg {
namespace {

// ------------------------------------------------------------- matrix ----

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, AppendRowGrowsAndValidates) {
  Matrix m;
  m.append_row({1, 2, 3});
  m.append_row({4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_THROW(m.append_row({1}), Error);
}

TEST(Matrix, MultiplyAndTranspose) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Vector y = m.multiply({1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
  const Vector z = m.multiply_transposed({1, 1, 1});
  EXPECT_DOUBLE_EQ(z[0], 9.0);
  EXPECT_DOUBLE_EQ(z[1], 12.0);
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
}

TEST(Matrix, Norms) {
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm1({-1, 2, -3}), 6.0);
  EXPECT_DOUBLE_EQ(norm_inf({-1, 2, -3}), 3.0);
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
}

TEST(Matrix, ResidualComputation) {
  Matrix a{{1, 0}, {0, 1}};
  const Vector r = residual(a, {1, 2}, {3, 3});
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
}

// ----------------------------------------------------------------- QR ----

TEST(Qr, SolvesSquareSystemExactly) {
  Matrix a{{2, 1}, {1, 3}};
  const Vector x = least_squares(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Qr, OverdeterminedLeastSquares) {
  // Fit y = 2t + 1 through noisy-free samples: exact recovery.
  Matrix a{{0, 1}, {1, 1}, {2, 1}, {3, 1}};
  const Vector x = least_squares(a, {1, 3, 5, 7});
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 1.0, 1e-10);
}

TEST(Qr, RankDetection) {
  Matrix full{{1, 0}, {0, 1}};
  EXPECT_EQ(QrDecomposition(full).rank(), 2u);
  Matrix deficient{{1, 2}, {2, 4}, {3, 6}};
  EXPECT_EQ(QrDecomposition(deficient).rank(), 1u);
}

TEST(Qr, RankDeficientSolveIsFinite) {
  Matrix a{{1, 2}, {2, 4}};
  const Vector x = QrDecomposition(a).solve({3, 6});
  // Consistent system: A x must reproduce b.
  const Vector ax = a.multiply(x);
  EXPECT_NEAR(ax[0], 3.0, 1e-9);
  EXPECT_NEAR(ax[1], 6.0, 1e-9);
}

TEST(Qr, RandomRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + trial % 6;
    Matrix a(n + 3, n);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = rng.uniform(-1, 1);
      }
    }
    Vector x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    const Vector b = a.multiply(x_true);
    const Vector x = least_squares(a, b);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(x[j], x_true[j], 1e-8);
    }
  }
}

// ------------------------------------------------------- rank tracker ----

TEST(RankTracker, AcceptsIndependentRejectsDependent) {
  RankTracker tracker(3);
  EXPECT_TRUE(tracker.try_add_ones({0}));
  EXPECT_TRUE(tracker.try_add_ones({1}));
  EXPECT_FALSE(tracker.try_add_ones({0, 1}));  // sum of the first two
  EXPECT_TRUE(tracker.try_add_ones({0, 1, 2}));
  EXPECT_TRUE(tracker.full_rank());
  EXPECT_FALSE(tracker.try_add_ones({2}));
}

TEST(RankTracker, DetectsRationalDependence) {
  // Rows (1,1,0),(0,1,1),(1,0,1) are independent over the reals (det=2)
  // even though they are dependent over GF(2) — the tracker must work over
  // the reals.
  RankTracker tracker(3);
  EXPECT_TRUE(tracker.try_add_ones({0, 1}));
  EXPECT_TRUE(tracker.try_add_ones({1, 2}));
  EXPECT_TRUE(tracker.try_add_ones({0, 2}));
  EXPECT_TRUE(tracker.full_rank());
}

TEST(RankTracker, DenseRows) {
  RankTracker tracker(3);
  EXPECT_TRUE(tracker.try_add_dense({1.0, 2.0, 3.0}));
  EXPECT_TRUE(tracker.try_add_dense({0.0, 1.0, 1.0}));
  EXPECT_FALSE(tracker.try_add_dense({1.0, 3.0, 4.0}));  // row0 + row1
  EXPECT_EQ(tracker.rank(), 2u);
}

TEST(RankTracker, RejectsDuplicateIndices) {
  RankTracker tracker(3);
  EXPECT_THROW(tracker.try_add_ones({1, 1}), Error);
}

TEST(RankTracker, StaysUsableAfterRejectedInput) {
  // The sparse accumulator persists across calls; a throwing call
  // (duplicate or out-of-range index) must leave it clean so later
  // decisions are unaffected.
  RankTracker tracker(3);
  EXPECT_THROW(tracker.try_add_ones({0, 5}), Error);
  EXPECT_THROW(tracker.try_add_ones({1, 1}), Error);
  EXPECT_TRUE(tracker.try_add_ones({0}));
  EXPECT_TRUE(tracker.try_add_ones({1}));
  EXPECT_FALSE(tracker.try_add_ones({0, 1}));
  EXPECT_EQ(tracker.rank(), 2u);
}

TEST(RankTracker, MatchesQrRankOnRandomZeroOneRows) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dim = 12;
    Matrix accepted_rows;
    RankTracker tracker(dim);
    Matrix all;
    for (int r = 0; r < 30; ++r) {
      Vector row(dim, 0.0);
      std::vector<std::size_t> ones;
      for (std::size_t j = 0; j < dim; ++j) {
        if (rng.bernoulli(0.3)) {
          row[j] = 1.0;
          ones.push_back(j);
        }
      }
      if (ones.empty()) continue;
      all.append_row(row);
      if (tracker.try_add_ones(ones)) {
        accepted_rows.append_row(row);
      }
    }
    // Tracker rank equals true matrix rank, and accepted rows really are
    // independent.
    EXPECT_EQ(tracker.rank(), QrDecomposition(all.transposed()).rank());
    if (accepted_rows.rows() > 0) {
      EXPECT_EQ(QrDecomposition(accepted_rows.transposed()).rank(),
                accepted_rows.rows());
    }
  }
}

// --------------------------------------------------------------- NNLS ----

TEST(Nnls, MatchesUnconstrainedWhenSolutionPositive) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b{1, 2, 3};
  const NnlsResult r = nnls(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 2.0, 1e-8);
}

TEST(Nnls, ClampsNegativeComponents) {
  // Unconstrained solution of x = -1: NNLS must return 0.
  Matrix a{{1}};
  const NnlsResult r = nnls(a, {-1});
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);
  EXPECT_NEAR(r.residual_norm, 1.0, 1e-12);
}

TEST(Nnls, RandomProblemsSatisfyKkt) {
  Rng rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 10, n = 6;
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    const NnlsResult r = nnls(a, b);
    ASSERT_TRUE(r.converged);
    const Vector grad = a.multiply_transposed(residual(a, r.x, b));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(r.x[j], 0.0);
      if (r.x[j] > 1e-9) {
        EXPECT_NEAR(grad[j], 0.0, 1e-6);  // active variables: zero gradient
      } else {
        EXPECT_LE(grad[j], 1e-6);  // inactive: non-ascent direction
      }
    }
  }
}

// ------------------------------------------- updatable cholesky / NNLS ----

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a(n + 4, n);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
  }
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t r = 0; r < a.rows(); ++r) g(i, j) += a(r, i) * a(r, j);
    }
    g(i, i) += 0.5;  // comfortably positive definite
  }
  return g;
}

TEST(UpdatableCholesky, AppendMatchesFullFactorization) {
  Rng rng(11);
  const std::size_t n = 8;
  const Matrix g = random_spd(n, rng);
  UpdatableCholesky chol;
  for (std::size_t k = 0; k < n; ++k) {
    Vector cross(k);
    for (std::size_t i = 0; i < k; ++i) cross[i] = g(i, k);
    ASSERT_TRUE(chol.append(cross, g(k, k)));
  }
  Vector rhs(n);
  for (auto& v : rhs) v = rng.uniform(-2, 2);
  const Vector incremental = chol.solve(rhs);
  const Vector direct = CholeskyDecomposition(g).solve(rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(incremental[i], direct[i], 1e-10);
  }
}

TEST(UpdatableCholesky, RemoveMatchesFactorOfSubmatrix) {
  Rng rng(12);
  const std::size_t n = 9;
  const Matrix g = random_spd(n, rng);
  for (const std::size_t drop : {std::size_t{0}, std::size_t{4},
                                 std::size_t{8}}) {
    UpdatableCholesky chol;
    for (std::size_t k = 0; k < n; ++k) {
      Vector cross(k);
      for (std::size_t i = 0; i < k; ++i) cross[i] = g(i, k);
      ASSERT_TRUE(chol.append(cross, g(k, k)));
    }
    chol.remove(drop);
    ASSERT_EQ(chol.size(), n - 1);

    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != drop) kept.push_back(i);
    }
    Matrix sub(n - 1, n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = 0; j + 1 < n; ++j) {
        sub(i, j) = g(kept[i], kept[j]);
      }
    }
    Vector rhs(n - 1);
    for (auto& v : rhs) v = rng.uniform(-2, 2);
    const Vector incremental = chol.solve(rhs);
    const Vector direct = CholeskyDecomposition(sub).solve(rhs);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_NEAR(incremental[i], direct[i], 1e-9) << "drop " << drop;
    }
  }
}

TEST(UpdatableCholesky, InterleavedEditsMatchFreshFactor) {
  // The NNLS loop alternates appends and removes on one factor: remove at
  // the front, in the middle and at the end, then append after the
  // removes, and the edited factor must still solve like a fresh factor
  // of the same columns in the same order.
  Rng rng(13);
  const std::size_t n = 11;
  const Matrix g = random_spd(n, rng);
  std::vector<std::size_t> order;  // factored columns, factor order
  const auto append = [&](UpdatableCholesky& chol,
                          std::vector<std::size_t>& cols, std::size_t j) {
    Vector cross(cols.size());
    for (std::size_t i = 0; i < cols.size(); ++i) cross[i] = g(cols[i], j);
    ASSERT_TRUE(chol.append(cross, g(j, j)));
    cols.push_back(j);
  };
  const auto remove = [&](UpdatableCholesky& chol, std::size_t position) {
    chol.remove(position);
    order.erase(order.begin() + static_cast<std::ptrdiff_t>(position));
  };

  UpdatableCholesky edited;
  for (std::size_t j = 0; j < 7; ++j) append(edited, order, j);
  remove(edited, 0);
  remove(edited, order.size() / 2);
  remove(edited, order.size() - 1);
  for (std::size_t j = 7; j < n; ++j) append(edited, order, j);
  remove(edited, 1);
  append(edited, order, 0);
  ASSERT_EQ(edited.size(), order.size());

  UpdatableCholesky fresh;
  std::vector<std::size_t> fresh_order;
  for (std::size_t j : order) append(fresh, fresh_order, j);
  Matrix sub(order.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = 0; j < order.size(); ++j) {
      sub(i, j) = g(order[i], order[j]);
    }
  }
  Vector rhs(order.size());
  for (auto& v : rhs) v = rng.uniform(-2, 2);
  const Vector from_edits = edited.solve(rhs);
  const Vector from_fresh = fresh.solve(rhs);
  const Vector direct = CholeskyDecomposition(sub).solve(rhs);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_NEAR(from_edits[i], from_fresh[i], 1e-9) << "position " << i;
    EXPECT_NEAR(from_edits[i], direct[i], 1e-9) << "position " << i;
  }
}

TEST(UpdatableCholesky, RejectsDependentColumnWithoutMutating) {
  UpdatableCholesky chol;
  ASSERT_TRUE(chol.append({}, 4.0));
  // A "column" proportional to the first: cross = 2 * 2, diag = 4.
  EXPECT_FALSE(chol.append({4.0}, 4.0));
  EXPECT_EQ(chol.size(), 1u);
  // Still usable afterwards: an independent column appends fine.
  EXPECT_TRUE(chol.append({0.0}, 9.0));
  const Vector z = chol.solve({4.0, 9.0});
  EXPECT_NEAR(z[0], 1.0, 1e-12);
  EXPECT_NEAR(z[1], 1.0, 1e-12);
}

TEST(Nnls, ModesAgreeOnDuplicateColumns) {
  // Columns 0 and 1 are identical; both engines must cope (reference via
  // rank-revealing QR, incremental via dependent-insert rejection) and
  // produce the same fit.
  Matrix a{{1, 1, 0}, {1, 1, 0}, {0, 0, 1}};
  const Vector b{3, 3, 4};
  const NnlsResult ref = oracles::nnls_reference(a, b);
  const NnlsResult inc = nnls(a, b);
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(inc.converged);
  EXPECT_NEAR(ref.residual_norm, 0.0, 1e-9);
  EXPECT_NEAR(inc.residual_norm, 0.0, 1e-9);
  const Vector fit_ref = a.multiply(ref.x);
  const Vector fit_inc = a.multiply(inc.x);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(fit_inc[i], fit_ref[i], 1e-9);
  }
}

TEST(Nnls, NearCollinearColumnHitsRefactorizeFallback) {
  // Column 1 is column 0 plus a 1e-7 sliver orthogonal to it, and the rhs
  // has mass along the sliver: after fitting column 0 the sliver column
  // still shows a positive gradient, but its Schur complement against the
  // passive factor is ~1e-14 of its diagonal — numerically dependent. The
  // incremental engine must refuse the insert (after the refactorize
  // fallback double-checks), block the column, and still converge.
  Matrix a{{2, 1}, {0, 1e-7}};
  const Vector b{1, 10};
  const NnlsResult inc = nnls(a, b);
  ASSERT_TRUE(inc.converged);
  EXPECT_GE(inc.refactorizations, 1u);
  for (double v : inc.x) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  // The blocked sliver column costs at most its own mass in fit quality.
  const NnlsResult ref = oracles::nnls_reference(a, b);
  EXPECT_NEAR(inc.residual_norm, ref.residual_norm, 1e-3);
}

TEST(Nnls, ZeroRhsConvergesToZeroInBothModes) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b{0, 0, 0};
  for (const NnlsResult& r :
       {nnls(a, b), oracles::nnls_reference(a, b)}) {
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.x, Vector({0.0, 0.0}));
    EXPECT_DOUBLE_EQ(r.residual_norm, 0.0);
  }
}

TEST(Nnls, IterationCapReportsNotConverged) {
  Rng rng(77);
  Matrix a(12, 8);
  Vector b(12);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.uniform(0, 1);
    b[i] = rng.uniform(0, 1);
  }
  NnlsOptions capped;
  capped.max_iterations = 1;
  for (const NnlsResult& r :
       {nnls(a, b, capped),
        oracles::nnls_reference(a, b, /*max_iterations=*/1)}) {
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 1u);
    for (double v : r.x) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(Nnls, IncrementalSatisfiesKktOnRandomProblems) {
  // The incremental engine's own KKT sweep (the historical test covers
  // whatever the default engine is; this pins the Gram path explicitly,
  // plus agreement with the reference engine's active set).
  Rng rng(56);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 12, n = 7;
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    const NnlsResult r = nnls_gram(make_gram(a, b), {});
    ASSERT_TRUE(r.converged);
    const Vector grad = a.multiply_transposed(residual(a, r.x, b));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(r.x[j], 0.0);
      if (r.x[j] > 1e-9) {
        EXPECT_NEAR(grad[j], 0.0, 1e-6);
      } else {
        EXPECT_LE(grad[j], 1e-6);
      }
    }
    const NnlsResult ref = oracles::nnls_reference(a, b);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(r.x[j], ref.x[j], 1e-8) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------------ simplex ----

TEST(Simplex, SolvesBasicLp) {
  // min -x1 - 2x2 s.t. x1 + x2 + s = 4, x1 + 3x2 + t = 6 (as equalities
  // with explicit slacks).
  Matrix a{{1, 1, 1, 0}, {1, 3, 0, 1}};
  const Vector b{4, 6};
  const Vector c{-1, -2, 0, 0};
  const LpResult r = simplex_solve(a, b, c);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -5.0, 1e-8);  // x = (3, 1)
  EXPECT_NEAR(r.x[0], 3.0, 1e-8);
  EXPECT_NEAR(r.x[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  // x1 = -1 with x1 >= 0 is infeasible.
  Matrix a{{1}};
  const LpResult r = simplex_solve(a, {-1}, {1});
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x1 s.t. x1 - x2 = 0: increase both forever.
  Matrix a{{1, -1}};
  const LpResult r = simplex_solve(a, {0}, {-1, 0});
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhs) {
  // -x1 = -3 -> x1 = 3.
  Matrix a{{-1}};
  const LpResult r = simplex_solve(a, {-3}, {1});
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-8);
}

TEST(L1Regression, ExactFitWhenConsistent) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b{1, 2, 3};
  const L1Result r = l1_regression(a, b);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

TEST(L1Regression, RobustToSingleOutlier) {
  // Five consistent equations x=2 and one outlier x=100: the L1 solution
  // sticks with the majority (the L2 solution would drift).
  Matrix a{{1}, {1}, {1}, {1}, {1}, {1}};
  const Vector b{2, 2, 2, 2, 2, 100};
  const L1Result r = l1_regression(a, b, 1e-9);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(L1Regression, UnderdeterminedPrefersSparse) {
  // One equation, two unknowns: x0 + x1 = 1 — with the lambda tie-break,
  // mass concentrates instead of spreading.
  Matrix a{{1, 1}};
  const L1Result r = l1_regression(a, {1}, 1e-6);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-6);
}

// --------------------------------------------------------------- IRLS ----

TEST(Irls, ApproximatesL1OnOutlierProblem) {
  Matrix a{{1}, {1}, {1}, {1}, {1}, {1}};
  const Vector b{2, 2, 2, 2, 2, 100};
  const IrlsResult r = irls_l1(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 0.1);
}

TEST(Irls, ConsistentSystemExact) {
  Matrix a{{2, 0}, {0, 4}};
  const IrlsResult r = irls_l1(a, {2, 8});
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

// ------------------------------------------------------------ solvers ----

/// Sparse rows with owned index storage: the view borrows `supports`.
struct OwnedSparseSystem {
  std::vector<std::vector<std::size_t>> supports;
  SparseSystemView view;
};

/// The unweighted 0/1 incidence system with the given row supports.
OwnedSparseSystem incidence_system(std::vector<std::vector<std::size_t>> rows,
                                   std::size_t cols, const Vector& y) {
  OwnedSparseSystem out;
  out.supports = std::move(rows);
  out.view.cols = cols;
  for (std::size_t i = 0; i < out.supports.size(); ++i) {
    SparseRow row;
    row.support = out.supports[i].data();
    row.support_size = out.supports[i].size();
    row.y = y[i];
    out.view.rows.push_back(row);
  }
  return out;
}

SolverOptions options_of(SolverKind kind) {
  SolverOptions options;
  options.kind = kind;
  return options;
}

TEST(Solvers, KindParsingRoundTrip) {
  for (const auto kind :
       {SolverKind::kLeastSquares, SolverKind::kNnls, SolverKind::kL1Lp,
        SolverKind::kIrls}) {
    EXPECT_EQ(solver_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(solver_kind_from_string("bogus"), Error);
}

TEST(Solvers, AllKindsSolveConsistentLogSystem) {
  // x = (log 0.9, log 0.8, log 0.7); equations: x0+x1, x1+x2, x0+x2.
  const double x0 = std::log(0.9), x1 = std::log(0.8), x2 = std::log(0.7);
  const OwnedSparseSystem sys = incidence_system(
      {{0, 1}, {1, 2}, {0, 2}}, 3, {x0 + x1, x1 + x2, x0 + x2});
  for (const auto kind :
       {SolverKind::kLeastSquares, SolverKind::kNnls, SolverKind::kL1Lp,
        SolverKind::kIrls}) {
    const LogSystemSolution s = solve_log_system(sys.view, options_of(kind));
    EXPECT_NEAR(s.x[0], x0, 1e-5) << to_string(kind);
    EXPECT_NEAR(s.x[1], x1, 1e-5) << to_string(kind);
    EXPECT_NEAR(s.x[2], x2, 1e-5) << to_string(kind);
  }
}

TEST(Solvers, SolutionsAreAlwaysNonPositive) {
  // Inconsistent noisy system: whatever the solver does, x must stay <= 0
  // (they are log-probabilities). Note the positive (infeasible) first rhs
  // entry.
  const OwnedSparseSystem sys =
      incidence_system({{0}, {1}, {0, 1}}, 2, {0.5, -0.1, -0.2});
  for (const auto kind :
       {SolverKind::kLeastSquares, SolverKind::kNnls, SolverKind::kL1Lp,
        SolverKind::kIrls}) {
    const LogSystemSolution s = solve_log_system(sys.view, options_of(kind));
    for (double v : s.x) {
      EXPECT_LE(v, 0.0) << to_string(kind);
    }
  }
}

TEST(Solvers, RejectsNonFiniteRhs) {
  const OwnedSparseSystem sys =
      incidence_system({{0}}, 1, {std::numeric_limits<double>::quiet_NaN()});
  for (const auto kind : {SolverKind::kNnls, SolverKind::kLeastSquares}) {
    EXPECT_THROW(solve_log_system(sys.view, options_of(kind)), Error);
  }
}

// -------------------------------------------- windowed Gram pipeline ----

/// A random 0/1-support sparse system with owned index storage (what the
/// core equation harvest hands the solver, minus the harvest).
OwnedSparseSystem random_sparse_system(std::size_t rows, std::size_t cols,
                                       std::uint64_t seed) {
  OwnedSparseSystem out;
  out.view.cols = cols;
  Rng rng(seed);
  out.supports.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::size_t> support;
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.3) support.push_back(j);
    }
    if (support.empty()) support.push_back(i % cols);
    out.supports.push_back(std::move(support));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    SparseRow row;
    row.support = out.supports[i].data();
    row.support_size = out.supports[i].size();
    row.value = 0.25 + rng.uniform();
    row.y = -rng.uniform();
    out.view.rows.push_back(row);
  }
  return out;
}

void expect_gram_bits_equal(const GramSystem& a, const GramSystem& b,
                            const std::string& what) {
  ASSERT_EQ(a.gram.rows(), b.gram.rows()) << what;
  for (std::size_t i = 0; i < a.gram.rows(); ++i) {
    for (std::size_t j = 0; j < a.gram.cols(); ++j) {
      ASSERT_EQ(a.gram(i, j), b.gram(i, j))
          << what << " gram(" << i << "," << j << ")";
    }
  }
  ASSERT_EQ(a.atb.size(), b.atb.size()) << what;
  for (std::size_t j = 0; j < a.atb.size(); ++j) {
    ASSERT_EQ(a.atb[j], b.atb[j]) << what << " atb[" << j << "]";
  }
  ASSERT_EQ(a.btb, b.btb) << what;
}

/// The streaming contract: accumulating any consecutive row partition —
/// window by window, into the same GramSystem — is *bitwise* equal to the
/// once-per-solve batch build, because every per-entry reduction runs in
/// ascending row order regardless of how the rows arrive.
TEST(Solvers, WindowedGramAccumulationIsBitwiseBatchEqual) {
  for (const std::uint64_t seed : {1ul, 2ul, 3ul}) {
    const OwnedSparseSystem sys = random_sparse_system(60, 17, seed);
    const GramSystem batch = sparse_gram(sys.view, 1);

    for (const std::size_t window : {1ul, 7ul, 13ul, 60ul, 100ul}) {
      GramSystem accumulated;
      for (std::size_t first = 0; first < sys.view.rows.size();
           first += window) {
        SparseSystemView chunk;
        chunk.cols = sys.view.cols;
        const std::size_t last =
            std::min(first + window, sys.view.rows.size());
        chunk.rows.assign(sys.view.rows.begin() + first,
                          sys.view.rows.begin() + last);
        accumulate_gram(accumulated, chunk);
      }
      expect_gram_bits_equal(accumulated, batch,
                             "seed=" + std::to_string(seed) +
                                 " window=" + std::to_string(window));
    }
  }
}

TEST(Solvers, GramAccumulationIsJobsInvariant) {
  const OwnedSparseSystem sys = random_sparse_system(80, 23, 0x9e);
  const GramSystem serial = sparse_gram(sys.view, 1);
  const GramSystem parallel = sparse_gram(sys.view, 3);
  expect_gram_bits_equal(serial, parallel, "jobs 1 vs 3");
}

/// refresh_gram_rhs rebuilds only atb/btb (the per-window right-hand
/// side) and must restore the exact accumulate_gram bits while leaving
/// the reused G = A^T A untouched.
TEST(Solvers, RefreshGramRhsRestoresExactBits) {
  const OwnedSparseSystem sys = random_sparse_system(40, 11, 0x42);
  const GramSystem batch = sparse_gram(sys.view, 1);

  GramSystem scribbled = batch;
  for (std::size_t j = 0; j < scribbled.atb.size(); ++j) {
    scribbled.atb[j] = 1e9 + static_cast<double>(j);
  }
  scribbled.btb = -1.0;
  refresh_gram_rhs(scribbled, sys.view);
  expect_gram_bits_equal(scribbled, batch, "refreshed rhs");
}

}  // namespace
}  // namespace tomo::linalg
