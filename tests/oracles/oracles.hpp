// Test oracles: the reference engine of each production stage, kept in
// the test-only library tomo_oracles so the differential suites can pin
// the engine against it. No production target links this library (see
// docs/ARCHITECTURE.md, "Oracles").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/bootstrap.hpp"
#include "linalg/nnls.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"

namespace tomo::oracles {

/// The batched simulator's block semantics as serial scalar code: per-bit
/// writes, a per-path link walk, and its own copy of the block seed tag
/// and the fate rule. sim::simulate (kBatched) must match it bit for bit.
/// `config.mode` is ignored.
sim::SimulationResult simulate_batched_reference(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config);

/// One Bernoulli draw per packet and link on a single Rng(config.seed)
/// stream. Agrees with the binomial engines in distribution only.
/// `config.mode` is ignored.
sim::SimulationResult simulate_per_packet(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config);

/// EmpiricalMeasurement's counts from plain word loops over the
/// complemented (congested-bit) rows with std::popcount: no cached
/// popcounts, no util::bitops kernels.
class ScalarMeasurement final : public sim::MeasurementProvider {
 public:
  explicit ScalarMeasurement(sim::MeasurementBlock block);

  using sim::MeasurementProvider::all_good_prob;

  std::size_t path_count() const override { return block_.path_count; }
  std::size_t sample_count() const override { return block_.snapshot_count; }
  double all_good_prob(std::span<const sim::PathId> paths) const override;
  double exact_pattern_prob(const sim::PathIdSet& pattern) const override;

  /// Snapshots in which path `p` was good.
  std::size_t good_count(sim::PathId p) const;

 private:
  sim::MeasurementBlock block_;
};

/// Resamples the snapshots of `block` with replacement, bit by bit, on
/// the pick stream of core::draw_picks_into (one rng.below(n) each).
sim::MeasurementBlock resample_snapshots(const sim::MeasurementBlock& block,
                                         Rng& rng);

/// The serial bootstrap: point estimate from infer_congestion, then per
/// replicate a per-bit resample on core::replicate_rng and a full
/// re-inference, then percentile_pair per link. Ignores jobs, mode and
/// warm_start; `reharvested` stays 0.
core::BootstrapResult bootstrap_reference(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementBlock& block, const core::BootstrapOptions& options);

/// Lawson-Hanson with a fresh rank-revealing QR on the passive columns
/// every inner iteration; same iteration cap (0 = 3 * cols + 10) and
/// tolerance as linalg::nnls. No warm start; active_set and factor stay
/// empty.
linalg::NnlsResult nnls_reference(const linalg::Matrix& a,
                                  const linalg::Vector& b,
                                  std::size_t max_iterations = 0,
                                  double tol = 1e-10);

}  // namespace tomo::oracles
