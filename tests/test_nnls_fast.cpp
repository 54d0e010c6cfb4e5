// Differential suite for the incremental NNLS solve path.
//
// The solver was rebuilt around a once-per-solve Gram system and an
// updatable Cholesky factor (linalg::nnls); the historical per-iteration
// dense QR survives as the test oracle oracles::nnls_reference.
// These tests pin the two engines against each other on every registry
// scenario's real equation system: the converged active sets must be
// identical and the solutions must agree to tight relative tolerance —
// and the sparse Gram pipeline (core sparse view -> parallel Gram build ->
// nnls_gram) must be bit-identical for any jobs value, the contract the
// CI byte-identity checks rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/nnls.hpp"
#include "linalg/solvers.hpp"
#include "oracles/oracles.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {
namespace {

struct PreparedSystem {
  ScenarioInstance inst;
  EquationSystem correlation;   // declared correlation structure
  EquationSystem independence;  // singleton baseline structure
};

PreparedSystem prepare(ScenarioConfig config, std::uint64_t sim_seed) {
  PreparedSystem out{build_scenario(std::move(config)), {}, {}};
  const graph::CoverageIndex coverage(out.inst.graph, out.inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 500;
  sc.mode = sim::PacketMode::kBinomial;
  sc.seed = sim_seed;
  const sim::SimulationResult simr =
      sim::simulate(out.inst.graph, out.inst.paths, *out.inst.truth, sc);
  const sim::EmpiricalMeasurement meas(simr.measurement);
  out.correlation =
      build_equations(coverage, out.inst.declared_sets, meas);
  const corr::CorrelationSets singles =
      corr::CorrelationSets::singletons(coverage.link_count());
  out.independence = build_equations(coverage, singles, meas);
  return out;
}

std::vector<std::size_t> active_set(const linalg::Vector& x) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] != 0.0) out.push_back(j);
  }
  return out;
}

/// The QR oracle on a dense system, mapped back to solve_log_system's log
/// domain: x = -max(0, u) for the NNLS solution u of A u = -y.
linalg::LogSystemSolution reference_solve(const linalg::DenseSystem& dense) {
  linalg::Vector b(dense.y.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = -dense.y[i];
  const linalg::NnlsResult r = oracles::nnls_reference(dense.a, b);
  linalg::LogSystemSolution out;
  out.x.resize(r.x.size());
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    out.x[j] = -std::max(0.0, r.x[j]);
  }
  out.residual_norm2 = r.residual_norm;
  return out;
}

/// Incremental (sparse Gram pipeline, jobs 1 and 3) vs reference (dense
/// per-iteration QR) on one harvested system.
void expect_engines_agree(const EquationSystem& sys,
                          const std::string& what) {
  ASSERT_FALSE(sys.equations.empty()) << what;

  const linalg::LogSystemSolution ref =
      reference_solve(linalg::dense_system(sparse_view(sys)));

  linalg::SolverOptions incremental;  // defaults: nnls
  const util::ScopedWidth width1(1);
  const linalg::LogSystemSolution inc =
      linalg::solve_log_system(sparse_view(sys), incremental);
  const util::ScopedWidth width3(3);
  const linalg::LogSystemSolution inc_parallel =
      linalg::solve_log_system(sparse_view(sys), incremental);

  // The parallel Gram build reduces every entry in row order regardless of
  // the worker count: bit-identical solutions, not merely close ones.
  EXPECT_EQ(inc.x, inc_parallel.x) << what << ": jobs must not change bits";

  // Same converged active set as the reference engine...
  EXPECT_EQ(active_set(inc.x), active_set(ref.x)) << what;

  // ...and the same solution to tight relative tolerance (the engines do
  // different arithmetic: Cholesky on the normal equations vs QR).
  double scale = 1.0;
  for (double v : ref.x) scale = std::max(scale, std::abs(v));
  for (std::size_t j = 0; j < ref.x.size(); ++j) {
    EXPECT_NEAR(inc.x[j], ref.x[j], 1e-8 * scale)
        << what << ": link " << j;
  }
  EXPECT_NEAR(inc.residual_norm2, ref.residual_norm2, 1e-6 * scale) << what;
}

class RegistrySolveDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySolveDifferential, IncrementalMatchesReference) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x50f7;
  const PreparedSystem p = prepare(config, 0x50f700);
  expect_engines_agree(p.correlation, GetParam() + " correlation");
  expect_engines_agree(p.independence, GetParam() + " independence");
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistrySolveDifferential,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(NnlsFast, WeightedSparseViewMatchesDenseWeighting) {
  ScenarioConfig config = shrink_for_tests(
      ScenarioCatalog::instance().at("waxman-bursty").config);
  config.seed = 0x3e1;
  PreparedSystem p = prepare(config, 0x3e100);
  const std::size_t samples = 300;

  // Oracle: scale each row of the dense unweighted system by the inverse
  // standard deviation of its estimate, Var(log p-hat) ~= (1 - p) / (p N)
  // with one pseudo-count guarding p == 1, touching only the support.
  linalg::DenseSystem weighted =
      linalg::dense_system(sparse_view(p.correlation));
  const double n = static_cast<double>(samples);
  for (std::size_t i = 0; i < weighted.y.size(); ++i) {
    const double prob = std::exp(p.correlation.equations[i].y);
    const double variance =
        std::max((1.0 - prob) / (prob * n), 1.0 / (n * n));
    const double weight = 1.0 / std::sqrt(variance);
    for (graph::LinkId e : p.correlation.equations[i].links) {
      weighted.a(i, e) *= weight;
    }
    weighted.y[i] *= weight;
  }

  // The sparse view's per-row weights must be the same doubles.
  const linalg::SparseSystemView view = sparse_view(p.correlation, samples);
  ASSERT_EQ(view.rows.size(), p.correlation.equations.size());
  for (std::size_t i = 0; i < view.rows.size(); ++i) {
    const auto& links = p.correlation.equations[i].links;
    ASSERT_EQ(view.rows[i].support_size, links.size());
    for (std::size_t k = 0; k < links.size(); ++k) {
      EXPECT_EQ(view.rows[i].value, weighted.a(i, links[k]));
    }
    EXPECT_EQ(view.rows[i].y, weighted.y[i]);
  }

  // And the engines agree on the weighted system too.
  const linalg::LogSystemSolution ref = reference_solve(weighted);
  const linalg::LogSystemSolution inc = linalg::solve_log_system(view);
  EXPECT_EQ(active_set(inc.x), active_set(ref.x));
  double scale = 1.0;
  for (double v : ref.x) scale = std::max(scale, std::abs(v));
  for (std::size_t j = 0; j < ref.x.size(); ++j) {
    EXPECT_NEAR(inc.x[j], ref.x[j], 1e-8 * scale) << "link " << j;
  }
}

TEST(NnlsFast, SparseGramMatchesDenseGramBitwise) {
  ScenarioConfig config = shrink_for_tests(
      ScenarioCatalog::instance().at("ba-sparse-vps").config);
  config.seed = 0x9a;
  const PreparedSystem p = prepare(config, 0x9a00);
  const EquationSystem& sys = p.correlation;

  // Dense reference: Gram of the negated system (b = -y).
  const linalg::DenseSystem copy = linalg::dense_system(sparse_view(sys));
  linalg::Vector b(copy.y.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = -copy.y[i];
  const linalg::GramSystem dense = linalg::make_gram(copy.a, b);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    const linalg::GramSystem sparse =
        linalg::sparse_gram(sparse_view(sys), jobs);
    ASSERT_EQ(sparse.gram.rows(), dense.gram.rows());
    for (std::size_t i = 0; i < dense.gram.rows(); ++i) {
      for (std::size_t j = 0; j < dense.gram.cols(); ++j) {
        ASSERT_EQ(sparse.gram(i, j), dense.gram(i, j))
            << "jobs " << jobs << " cell " << i << "," << j;
      }
    }
    EXPECT_EQ(sparse.atb, dense.atb) << "jobs " << jobs;
    EXPECT_EQ(sparse.btb, dense.btb) << "jobs " << jobs;
  }
}

// ------------------------------------------------- NNLS warm start ----

/// Deliberately stale seed: the cold active set with every third column
/// dropped — what the previous window hands the next one after part of
/// the support shifts. (Injecting *arbitrary* extra columns is not tested
/// against x-equality here: the worm scenarios carry duplicate columns,
/// and seeding one twin instead of the other selects a different — equally
/// optimal — vertex of the degenerate face. WarmStartSurvivesJunkSeeds
/// covers injection on a well-posed problem.)
std::vector<std::size_t> perturb_seed(const std::vector<std::size_t>& cold) {
  std::vector<std::size_t> seed;
  for (std::size_t k = 0; k < cold.size(); ++k) {
    if (k % 3 != 2) seed.push_back(cold[k]);
  }
  return seed;
}

class RegistryWarmStart : public ::testing::TestWithParam<std::string> {};

/// Seeding kIncremental from the previous active set — exact or perturbed
/// — must converge to the same optimum as a cold solve, with the
/// refactorization telemetry staying bounded and the warm climb never
/// longer than the cold one.
///
/// "Same optimum" is graded: with the exact seed the same support and the
/// same x to solver tolerance; with a perturbed seed the same *fitted*
/// quantities (residual norm and G·x, which are unique over the optimal
/// set even when the system is rank-deficient — the worm scenarios carry
/// duplicate columns, so x itself can differ between equally optimal
/// vertices when the seed withholds one twin).
TEST_P(RegistryWarmStart, PerturbedSeedReachesTheColdOptimum) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x3a77;
  const PreparedSystem p = prepare(config, 0x3a7700);
  const linalg::GramSystem gs =
      linalg::sparse_gram(sparse_view(p.correlation), 1);

  const linalg::NnlsResult cold = linalg::nnls_gram(gs);
  ASSERT_TRUE(cold.converged) << GetParam();
  ASSERT_FALSE(cold.active_set.empty()) << GetParam();

  double scale = 1.0;
  for (double v : cold.x) scale = std::max(scale, std::abs(v));

  const auto gram_times = [&](const linalg::Vector& x) {
    linalg::Vector out(gs.gram.rows(), 0.0);
    for (std::size_t i = 0; i < gs.gram.rows(); ++i) {
      for (std::size_t j = 0; j < gs.gram.cols(); ++j) {
        out[i] += gs.gram(i, j) * x[j];
      }
    }
    return out;
  };
  const linalg::Vector cold_fit = gram_times(cold.x);

  linalg::NnlsOptions options;
  for (const bool exact_seed : {true, false}) {
    options.warm_start = exact_seed
                             ? cold.active_set
                             : perturb_seed(cold.active_set);
    const linalg::NnlsResult warm = linalg::nnls_gram(gs, options);
    const std::string what =
        GetParam() + (exact_seed ? " exact seed" : " perturbed seed");
    ASSERT_TRUE(warm.converged) << what;
    if (exact_seed) {
      EXPECT_EQ(warm.active_set, cold.active_set) << what;
      for (std::size_t j = 0; j < cold.x.size(); ++j) {
        EXPECT_NEAR(warm.x[j], cold.x[j], 1e-8 * scale)
            << what << ": column " << j;
      }
    }
    EXPECT_NEAR(warm.residual_norm, cold.residual_norm, 1e-8 * scale)
        << what;
    const linalg::Vector warm_fit = gram_times(warm.x);
    for (std::size_t i = 0; i < cold_fit.size(); ++i) {
      EXPECT_NEAR(warm_fit[i], cold_fit[i], 1e-6 * scale)
          << what << ": fitted component " << i;
    }
    // Telemetry: the factor edits stay condition-safe (no refactorize
    // storm) and the outer climb is no longer than the cold one.
    EXPECT_LE(warm.refactorizations, cold.refactorizations + 1) << what;
    EXPECT_LE(warm.iterations, cold.iterations) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryWarmStart,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(NnlsFast, WarmStartSurvivesJunkSeeds) {
  // A tiny well-posed problem; the seed mixes duplicates, out-of-range
  // columns, and the whole column space. Documented contract: a stale
  // seed is always safe, the optimum is unchanged.
  const linalg::Matrix a{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  const linalg::Vector b{1.0, 2.0, 0.5, 3.0};
  const linalg::GramSystem gs = linalg::make_gram(a, b);
  const linalg::NnlsResult cold = linalg::nnls_gram(gs);

  linalg::NnlsOptions options;
  options.warm_start = {2, 2, 0, 99, 1, 0};
  const linalg::NnlsResult warm = linalg::nnls_gram(gs, options);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(warm.active_set, cold.active_set);
  for (std::size_t j = 0; j < cold.x.size(); ++j) {
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-12) << "column " << j;
  }
}

// ------------------------------------------------- KKT certificate ----

/// The NNLS optimality conditions, checked with arithmetic of the test's
/// own: w = c - G x recomputed densely over every entry of G, then
///   w_j <= tol            where x_j == 0 (no inactive column would help),
///   |w_j| <= 1e-8 scale   where x_j > 0  (stationary on the support),
/// plus x >= 0. It holds for any correct engine, whatever its pivoting,
/// factor or sparsity shortcuts, so it pins the incremental engine's
/// zero-skipping walks without trusting them.
void expect_kkt(const linalg::GramSystem& gs, const linalg::NnlsResult& r,
                const std::string& what) {
  const std::size_t n = gs.gram.cols();
  ASSERT_TRUE(r.converged) << what;
  ASSERT_EQ(r.x.size(), n) << what;
  double scale = 1.0;
  for (double v : gs.atb) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      scale = std::max(scale, std::abs(gs.gram(i, j)));
    }
  }
  const double tol = 1e-10 * scale;
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_GE(r.x[j], 0.0) << what << ": column " << j;
    double w = gs.atb[j];
    for (std::size_t k = 0; k < n; ++k) w -= gs.gram(j, k) * r.x[k];
    if (r.x[j] == 0.0) {
      EXPECT_LE(w, tol) << what << ": inactive column " << j;
    } else {
      EXPECT_LE(std::abs(w), 1e-8 * scale) << what << ": active column " << j;
    }
  }
}

/// Solves cold, then again from the factor the cold solve handed back —
/// both must certify. Returns the cold active set.
std::vector<std::size_t> expect_kkt_cold_and_carried(
    const linalg::GramSystem& gs, const std::string& what) {
  linalg::NnlsResult cold = linalg::nnls_gram(gs);
  expect_kkt(gs, cold, what + " cold");
  EXPECT_EQ(cold.factor.passive.size(), cold.active_set.size()) << what;
  EXPECT_EQ(cold.factor.chol.size(), cold.factor.passive.size()) << what;
  linalg::NnlsOptions options;
  options.warm_factor = &cold.factor;
  const linalg::NnlsResult carried = linalg::nnls_gram(gs, options);
  expect_kkt(gs, carried, what + " carried factor");
  return cold.active_set;
}

class RegistryKkt : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryKkt, SolutionsSatisfyKkt) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x6b6b;
  const PreparedSystem p = prepare(config, 0x6b6b00);
  expect_kkt_cold_and_carried(
      linalg::sparse_gram(sparse_view(p.correlation), 1),
      GetParam() + " correlation");
  expect_kkt_cold_and_carried(
      linalg::sparse_gram(sparse_view(p.independence), 1),
      GetParam() + " independence");
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryKkt,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(NnlsFast, HandBuiltGramSystemsSatisfyKkt) {
  // Disjoint row supports: G is block diagonal, every off-block entry an
  // explicit zero the nonzero walks must skip.
  const linalg::Matrix blocks{{1, 1, 0, 0, 0},
                              {0, 1, 0, 0, 0},
                              {0, 0, 1, 0, 0},
                              {0, 0, 1, 1, 0},
                              {0, 0, 0, 0, 2}};
  EXPECT_EQ(expect_kkt_cold_and_carried(
                linalg::make_gram(blocks, {3.0, 1.0, 0.5, 2.5, 4.0}),
                "zero blocks")
                .size(),
            5u);
  // Column 1 is all zero: G has an empty row and column (zero diagonal).
  const linalg::Matrix empty_column{
      {1, 0, 1}, {0, 0, 1}, {1, 0, 0}, {2, 0, 1}};
  const std::vector<std::size_t> nonempty = expect_kkt_cold_and_carried(
      linalg::make_gram(empty_column, {1.0, 2.0, 0.25, 3.0}),
      "all-zero column");
  EXPECT_EQ(std::count(nonempty.begin(), nonempty.end(), 1u), 0);
  // Columns 0 and 2 are duplicates: the second is dependent on the first
  // once admitted and must be rejected, not factored.
  const linalg::Matrix duplicate{
      {1, 0, 1, 0}, {1, 1, 1, 0}, {0, 1, 0, 1}, {0, 0, 0, 1}};
  const std::vector<std::size_t> twins = expect_kkt_cold_and_carried(
      linalg::make_gram(duplicate, {2.0, 3.0, 1.0, 0.5}), "duplicate columns");
  EXPECT_EQ(std::count(twins.begin(), twins.end(), 0u) +
                std::count(twins.begin(), twins.end(), 2u),
            1);
  // A right-hand side that pushes some columns to the bound: the active
  // set is a strict subset, so the inactive inequality is exercised.
  const linalg::Matrix bound{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}};
  EXPECT_LT(expect_kkt_cold_and_carried(
                linalg::make_gram(bound, {-1.0, 2.0, 0.5, 1.0}),
                "bound-active")
                .size(),
            3u);
}

}  // namespace
}  // namespace tomo::core
