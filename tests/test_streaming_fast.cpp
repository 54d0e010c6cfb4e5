// The streamed-vs-batch equivalence tier — the convergence contract of the
// streaming inference subsystem, pinned on every registry scenario.
//
// The contract (see src/stream/streaming_inference.hpp): after ingesting
// windows covering the first N snapshots, StreamingInference's estimate
// equals a one-shot batch infer_congestion over those same N snapshots —
// the identical equation system and Gram bits (the cumulative block is a
// bit-exact splice, and the Gram accumulation is row-ordered and
// additive), the same NNLS optimum (bit-identical when the solve is cold,
// equal active set and solution to solver tolerance when warm-started) —
// and the streamed output is bit-identical for any jobs value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "stream/streaming_inference.hpp"
#include "stream/streaming_measurement.hpp"
#include "util/thread_pool.hpp"

namespace tomo::stream {
namespace {

struct Prepared {
  core::ScenarioInstance inst;
  sim::SimulationResult simr;
};

Prepared prepare(const std::string& name, std::size_t snapshots = 300) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(name).config);
  config.seed = 0x57e4;
  Prepared out{core::build_scenario(std::move(config)), {}};
  sim::SimulatorConfig sc;
  sc.snapshots = snapshots;
  sc.packets_per_path = 500;
  sc.mode = sim::PacketMode::kBinomial;
  sc.seed = 0x57e400;
  out.simr = sim::simulate(out.inst.graph, out.inst.paths, *out.inst.truth,
                           sc);
  return out;
}

core::InferenceResult batch_infer(const Prepared& p, std::size_t jobs = 1) {
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  const sim::EmpiricalMeasurement measurement(
      sim::MeasurementBlock(p.simr.measurement));
  core::InferenceOptions options;
  const util::ScopedWidth width(jobs);
  return core::infer_congestion(p.inst.graph, p.inst.paths, coverage,
                                p.inst.declared_sets, measurement, options);
}

std::vector<WindowEstimate> streamed_infer(const Prepared& p,
                                           std::size_t window,
                                           std::size_t jobs,
                                           bool warm_start = true,
                                           bool reuse_gram = true,
                                           bool weighted = false) {
  StreamingOptions options;
  const util::ScopedWidth width(jobs);
  options.warm_start = warm_start;
  options.reuse_gram = reuse_gram;
  options.inference.weight_by_variance = weighted;
  StreamingInference inference(p.inst.graph, p.inst.paths,
                               p.inst.declared_sets, options);
  std::vector<WindowEstimate> out;
  for (const sim::MeasurementBlock& w :
       split_windows(p.simr.measurement, window)) {
    out.push_back(inference.push_window(w));
  }
  return out;
}

class RegistryStreamEquivalence
    : public ::testing::TestWithParam<std::string> {};

/// The headline: several window schedules (including a ragged final
/// window), warm-started and Gram-reusing, jobs {1, 3} — the final
/// window's estimate must agree with the one-shot batch solve: same
/// converged active set, solution within solver tolerance.
TEST_P(RegistryStreamEquivalence, FinalWindowMatchesOneShotBatch) {
  const Prepared p = prepare(GetParam());
  const core::InferenceResult batch = batch_infer(p);
  ASSERT_FALSE(batch.congestion_prob.empty());

  // 97 gives 97+97+97+9 (ragged tail), 128 gives 128+128+44.
  for (const std::size_t window : {97ul, 128ul}) {
    const std::string what =
        GetParam() + " window=" + std::to_string(window);
    const std::vector<WindowEstimate> serial = streamed_infer(p, window, 1);
    ASSERT_FALSE(serial.empty()) << what;
    const WindowEstimate& last = serial.back();
    ASSERT_TRUE(last.usable) << what;
    ASSERT_EQ(last.snapshots, 300u) << what;

    // Identical converged support...
    EXPECT_EQ(last.inference.active_set, batch.active_set) << what;
    // ...and the same solution to solver tolerance (the warm solve edits
    // the Cholesky factor in a different insertion order, so the last few
    // bits may differ; observed agreement is ~1e-14).
    ASSERT_EQ(last.inference.congestion_prob.size(),
              batch.congestion_prob.size())
        << what;
    for (std::size_t k = 0; k < batch.congestion_prob.size(); ++k) {
      EXPECT_NEAR(last.inference.congestion_prob[k],
                  batch.congestion_prob[k], 1e-8)
          << what << " link " << k;
    }
    // Same harvested structure as the batch run, bit for bit.
    EXPECT_EQ(last.inference.system.equations.size(),
              batch.system.equations.size())
        << what;
    EXPECT_EQ(last.inference.system.rank, batch.system.rank) << what;
    EXPECT_EQ(last.inference.refined_links, batch.refined_links) << what;

    // Jobs-invariance: every window's solution is bit-identical under a
    // parallel Gram build (in-order additive reduction).
    const std::vector<WindowEstimate> parallel =
        streamed_infer(p, window, 3);
    ASSERT_EQ(parallel.size(), serial.size()) << what;
    for (std::size_t k = 0; k < serial.size(); ++k) {
      ASSERT_EQ(parallel[k].usable, serial[k].usable) << what;
      if (!serial[k].usable) continue;
      EXPECT_EQ(parallel[k].inference.log_good, serial[k].inference.log_good)
          << what << " window " << k << ": jobs must not change bits";
      EXPECT_EQ(parallel[k].inference.congestion_prob,
                serial[k].inference.congestion_prob)
          << what << " window " << k;
      EXPECT_EQ(parallel[k].inference.active_set,
                serial[k].inference.active_set)
          << what << " window " << k;
    }
  }
}

/// A window covering the whole trace makes the only solve a cold one over
/// the full block: the streamed result must be *bit-identical* to batch —
/// the strongest form of the differential contract.
TEST_P(RegistryStreamEquivalence, SingleWindowStreamIsBitIdentical) {
  const Prepared p = prepare(GetParam());
  const core::InferenceResult batch = batch_infer(p);
  const std::vector<WindowEstimate> streamed = streamed_infer(p, 300, 1);
  ASSERT_EQ(streamed.size(), 1u);
  const WindowEstimate& only = streamed.back();
  ASSERT_TRUE(only.usable);
  EXPECT_FALSE(only.warm_started);
  EXPECT_EQ(only.inference.log_good, batch.log_good);
  EXPECT_EQ(only.inference.congestion_prob, batch.congestion_prob);
  EXPECT_EQ(only.inference.active_set, batch.active_set);
  EXPECT_EQ(only.inference.solver_detail, batch.solver_detail);
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryStreamEquivalence,
    ::testing::ValuesIn(core::ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// With the warm start disabled, *every* window's solve is cold over the
/// cumulative block — so each window must be bit-identical to a batch run
/// truncated to the same snapshot prefix. This pins the whole incremental
/// plumbing (splice, harvest, Gram reuse) with zero tolerance, leaving the
/// warm start as the only approximately-equal step in the headline test.
TEST(StreamingFast, ColdWindowsEqualPrefixBatchBitwise) {
  const Prepared p = prepare("waxman-bursty");
  const std::vector<WindowEstimate> streamed =
      streamed_infer(p, 97, 1, /*warm_start=*/false, /*reuse_gram=*/true);
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  std::size_t ingested = 0;
  for (const WindowEstimate& estimate : streamed) {
    ingested = estimate.snapshots;
    if (!estimate.usable) continue;
    const sim::EmpiricalMeasurement prefix(
        p.simr.measurement.slice(0, ingested));
    const core::InferenceResult batch = core::infer_congestion(
        p.inst.graph, p.inst.paths, coverage, p.inst.declared_sets, prefix,
        core::InferenceOptions{});
    EXPECT_EQ(estimate.inference.log_good, batch.log_good)
        << "window " << estimate.window;
    EXPECT_EQ(estimate.inference.congestion_prob, batch.congestion_prob)
        << "window " << estimate.window;
    EXPECT_EQ(estimate.inference.active_set, batch.active_set)
        << "window " << estimate.window;
  }
  EXPECT_EQ(ingested, 300u);
}

/// Gram reuse must never change bits: the steady-state windows (unchanged
/// harvested support) refresh only the right-hand side products.
TEST(StreamingFast, GramReuseChangesNoBits) {
  const Prepared p = prepare("brite-high");
  const std::vector<WindowEstimate> reused = streamed_infer(p, 97, 1);
  const std::vector<WindowEstimate> rebuilt =
      streamed_infer(p, 97, 1, /*warm_start=*/true, /*reuse_gram=*/false);
  ASSERT_EQ(reused.size(), rebuilt.size());
  bool any_reused = false;
  for (std::size_t k = 0; k < reused.size(); ++k) {
    any_reused = any_reused || reused[k].gram_reused;
    EXPECT_FALSE(rebuilt[k].gram_reused);
    EXPECT_EQ(reused[k].inference.log_good, rebuilt[k].inference.log_good)
        << "window " << k;
    EXPECT_EQ(reused[k].inference.congestion_prob,
              rebuilt[k].inference.congestion_prob)
        << "window " << k;
  }
  EXPECT_TRUE(any_reused)
      << "expected at least one steady-state window to reuse the Gram";
}

/// Sum of squared residuals of a solved window: the NNLS objective, which
/// is unique even where the minimizer is not (rank-deficient systems).
double nnls_objective(const core::InferenceResult& result) {
  double sum = 0.0;
  for (const linalg::SparseRow& row :
       core::sparse_view(result.system).rows) {
    double ax = 0.0;
    for (std::size_t i = 0; i < row.support_size; ++i) {
      ax += result.log_good[row.support[i]];
    }
    const double d = row.value * ax - row.y;
    sum += d * d;
  }
  return sum;
}

/// A long session in small windows: each steady-state window starts from
/// the factor the previous solve ended with, so the factor is edited
/// window after window and never rebuilt while the support holds. Any
/// drift would accumulate here; every 32nd window must still sit on the
/// optimum of a cold batch solve over the same prefix.
TEST(StreamingFast, LongSessionCarriedFactorMatchesPrefixBatch) {
  const Prepared p = prepare("waxman-full", 1024);
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  StreamingInference inference(p.inst.graph, p.inst.paths,
                               p.inst.declared_sets, StreamingOptions{});
  const std::vector<sim::MeasurementBlock> windows =
      split_windows(p.simr.measurement, 4);
  ASSERT_GE(windows.size(), 256u);
  std::size_t carried = 0, checked = 0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const WindowEstimate estimate = inference.push_window(windows[k]);
    if (!estimate.usable) continue;
    // The factor rides exactly on the Gram-reused windows.
    EXPECT_EQ(estimate.factor_carried, estimate.gram_reused) << "window " << k;
    carried += estimate.factor_carried;
    if (k % 32 != 31) continue;
    ++checked;
    const sim::EmpiricalMeasurement prefix(
        p.simr.measurement.slice(0, estimate.snapshots));
    const core::InferenceResult batch = core::infer_congestion(
        p.inst.graph, p.inst.paths, coverage, p.inst.declared_sets, prefix,
        core::InferenceOptions{});
    const double streamed_objective = nnls_objective(estimate.inference);
    const double batch_objective = nnls_objective(batch);
    EXPECT_NEAR(streamed_objective, batch_objective, 1e-9 * batch_objective)
        << "window " << k;
  }
  EXPECT_EQ(checked, windows.size() / 32);
  EXPECT_GT(carried, windows.size() / 2)
      << "the steady state should carry the factor on most windows";
}

/// The factor is carried exactly when G is bitwise the previous window's:
/// same support, unweighted. Rebuilding G every window (no Gram reuse)
/// must not change that, and a variance-weighted stream — whose G moves
/// with every window's weights — never carries it.
TEST(StreamingFast, FactorCarriedExactlyWhenSupportUnchanged) {
  // Two-snapshot windows: the support still moves in the first windows.
  const Prepared p = prepare("waxman-full");
  const std::vector<WindowEstimate> rebuilt =
      streamed_infer(p, 2, 1, /*warm_start=*/true, /*reuse_gram=*/false);
  std::size_t carried = 0, changed = 0;
  const core::EquationSystem* prev = nullptr;
  for (const WindowEstimate& estimate : rebuilt) {
    if (!estimate.usable) {
      prev = nullptr;
      continue;
    }
    const core::EquationSystem& system = estimate.inference.system;
    bool same_support =
        prev != nullptr && prev->equations.size() == system.equations.size();
    for (std::size_t i = 0; same_support && i < system.equations.size();
         ++i) {
      same_support = prev->equations[i].links == system.equations[i].links;
    }
    EXPECT_FALSE(estimate.gram_reused);
    EXPECT_EQ(estimate.factor_carried, same_support)
        << "window " << estimate.window;
    carried += same_support;
    changed += prev != nullptr && !same_support;
    prev = &system;
  }
  EXPECT_GT(carried, 0u);
  EXPECT_GT(changed, 0u) << "expected a support change past the first window";

  const std::vector<WindowEstimate> weighted =
      streamed_infer(p, 2, 1, /*warm_start=*/true, /*reuse_gram=*/true,
                     /*weighted=*/true);
  bool any_warm = false;
  for (const WindowEstimate& estimate : weighted) {
    any_warm = any_warm || estimate.warm_started;
    EXPECT_FALSE(estimate.factor_carried) << "window " << estimate.window;
    EXPECT_FALSE(estimate.gram_reused) << "window " << estimate.window;
  }
  EXPECT_TRUE(any_warm);
}

}  // namespace
}  // namespace tomo::stream
