#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/correlation_algorithm.hpp"
#include "core/equations.hpp"
#include "corr/model_factory.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;

EquationSystem build_fig1a_system() {
  static auto sys = figure_1a();
  static auto model = figure_1a_model(sys.sets);
  static graph::CoverageIndex cov(sys.graph, sys.paths);
  static sim::OracleMeasurement oracle(*model, cov);
  return build_equations(cov, sys.sets, oracle);
}

/// The dense matrix and rhs the solver sees for `sys`, weighted over
/// `samples` snapshots (0 = unweighted).
linalg::DenseSystem solver_input(const EquationSystem& sys,
                                 std::size_t samples = 0) {
  return linalg::dense_system(sparse_view(sys, samples));
}

TEST(VarianceWeights, OracleSystemsAreLeftAlone) {
  const EquationSystem sys = build_fig1a_system();
  linalg::Vector y_before;
  for (const Equation& eq : sys.equations) y_before.push_back(eq.y);
  EXPECT_EQ(solver_input(sys, /*samples=*/0).y, y_before);
}

TEST(VarianceWeights, ScalesRowsAndRhsTogether) {
  const EquationSystem eq = build_fig1a_system();
  const linalg::DenseSystem original = solver_input(eq);
  const linalg::DenseSystem sys = solver_input(eq, 1000);
  for (std::size_t i = 0; i < sys.y.size(); ++i) {
    // Rows and rhs must be scaled by the same factor: the solution of a
    // consistent system is unchanged.
    double factor = 0.0;
    for (std::size_t c = 0; c < sys.a.cols(); ++c) {
      if (original.a(i, c) != 0.0) {
        factor = sys.a(i, c) / original.a(i, c);
        break;
      }
    }
    ASSERT_GT(factor, 0.0);
    EXPECT_NEAR(sys.y[i], original.y[i] * factor, 1e-12);
  }
}

TEST(VarianceWeights, WellSupportedEquationsWeighMore) {
  // prob 0.9 (well supported) vs prob 0.1 (thin): the 0.9 equation's
  // variance (1-p)/(pN) is smaller, so its weight is larger.
  EquationSystem sys;
  sys.link_count = 2;
  sys.equations.push_back(Equation{{0}, {0}, std::log(0.9)});
  sys.equations.push_back(Equation{{1}, {1}, std::log(0.1)});
  const linalg::DenseSystem weighted = solver_input(sys, 1000);
  EXPECT_GT(weighted.a(0, 0), weighted.a(1, 1));
}

TEST(VarianceWeights, StructuralZerosStayExactlyZero) {
  // The weighting must scale only each equation's support columns; a
  // historical bug multiplied every column of the dense row, which happens
  // to preserve zeros (0 * w == 0) but walked |equations| x |links| cells.
  // Pin the support-only contract: off-support entries are exact zeros and
  // support entries carry exactly the row's weight.
  const EquationSystem eq = build_fig1a_system();
  const linalg::DenseSystem original = solver_input(eq);
  const linalg::DenseSystem sys = solver_input(eq, 500);
  for (std::size_t i = 0; i < eq.equations.size(); ++i) {
    const double weight = sys.y[i] / original.y[i];
    for (std::size_t c = 0; c < sys.a.cols(); ++c) {
      const bool in_support =
          std::find(eq.equations[i].links.begin(),
                    eq.equations[i].links.end(),
                    c) != eq.equations[i].links.end();
      if (in_support) {
        EXPECT_DOUBLE_EQ(sys.a(i, c), weight)
            << "equation " << i << " column " << c;
      } else {
        EXPECT_EQ(sys.a(i, c), 0.0)
            << "equation " << i << " column " << c;
      }
    }
  }
}

TEST(VarianceWeights, ConsistentSolutionUnchanged) {
  // Weighting a consistent full-rank system must not move the solution.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq = build_equations(cov, sys.sets, oracle);
  const auto unweighted = linalg::solve_log_system(sparse_view(eq));
  // Pretend 5000 snapshots.
  const auto weighted = linalg::solve_log_system(sparse_view(eq, 5000));
  for (std::size_t k = 0; k < unweighted.x.size(); ++k) {
    EXPECT_NEAR(weighted.x[k], unweighted.x[k], 1e-6);
  }
}

TEST(VarianceWeights, EndToEndOptionStaysAccurate) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  sim::SimulatorConfig config;
  config.snapshots = 20000;
  config.mode = sim::PacketMode::kExact;
  config.seed = 77;
  const auto simr = sim::simulate(sys.graph, sys.paths, *model, config);
  const sim::EmpiricalMeasurement meas(simr.measurement);
  InferenceOptions options;
  options.weight_by_variance = true;
  const InferenceResult r = infer_congestion(sys.graph, sys.paths, cov,
                                             sys.sets, meas, options);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 0.03)
        << "link " << e;
  }
}

}  // namespace
}  // namespace tomo::core
