// Bootstrap confidence intervals for inferred congestion probabilities.
//
// The paper reports point estimates; an operator acting on them (e.g.,
// confronting a peer about an SLA) needs to know how much snapshot noise
// they carry. This module resamples the snapshot axis with replacement,
// re-runs inference per replicate, and reports per-link percentile
// intervals. Stationarity (Assumption 3) is exactly the property that
// makes snapshot resampling sound; for bursty (Gilbert-type) congestion
// the i.i.d. bootstrap narrows intervals somewhat, which is the usual
// caveat and is documented here rather than hidden.
//
// Two engines share the API:
//
//  - kBatched (default) amortizes everything replicates share. Picks are
//    gathered word-level into bit-packed MeasurementBlock columns, the
//    equation harvest runs once on the point estimate, and each replicate
//    that keeps the harvest's support alive re-estimates only the
//    right-hand sides and solves on the shared Gram skeleton
//    (linalg::refresh_gram_rhs + NNLS warm start), falling back to
//    a full re-harvest only when support actually changes. Replicates fan
//    across the executor on per-replicate seed streams, so intervals are
//    bit-identical for any `jobs`.
//  - kReference is the historical serial path — per-bit resample, full
//    re-inference per replicate — kept as the differential baseline. At
//    matched seeds the batched engine with warm_start off is bitwise
//    equal to it; with warm_start on both reach the same optimum.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {

enum class BootstrapMode {
  kBatched,    // shared-skeleton engine (default)
  kReference,  // serial full re-inference, the differential baseline
};

/// Parses "batched" | "reference"; throws tomo::Error otherwise.
BootstrapMode bootstrap_mode_from_string(const std::string& name);
std::string to_string(BootstrapMode mode);

struct BootstrapOptions {
  /// Raised from the historical 30 now that replicates are ~free on the
  /// batched engine.
  std::size_t replicates = 200;
  double confidence = 0.90;  // central interval mass
  std::uint64_t seed = 1;
  BootstrapMode mode = BootstrapMode::kBatched;
  /// Width of the call (a util::ScopedWidth; 0 = all hardware cores): the
  /// batched engine's replicates fan out at it, the reference engine runs
  /// them serially. Intervals are bit-identical for any value.
  std::size_t jobs = 1;
  /// Warm-start every replicate's NNLS from the point estimate's active
  /// set (batched engine, incremental NNLS only). Off, the batched engine
  /// is bitwise equal to the reference engine at matched seeds.
  bool warm_start = true;
  InferenceOptions inference;
};

struct BootstrapResult {
  std::vector<double> point;  // estimate on the full sample
  std::vector<double> lower;  // per-link interval bounds
  std::vector<double> upper;
  /// Usable replicates actually backing the intervals.
  std::size_t replicates = 0;
  /// Replicates dropped because the resample lost every usable equation.
  /// Always surfaced (and warned about past 10%) — a silently shrunken
  /// sample used to masquerade as the requested replicate count.
  std::size_t skipped = 0;
  /// Batched engine only: replicates whose equation support changed (or
  /// could not be proven stable), forcing a full re-harvest instead of
  /// the Gram-skeleton fast path. Includes the skipped ones.
  std::size_t reharvested = 0;
  /// Wall-clock seconds spent materializing replicate measurements
  /// (MeasurementBlock::resample for the batched engine,
  /// resample_snapshots for the reference engine), summed across workers —
  /// on a multi-worker run this exceeds the elapsed resample time.
  /// Telemetry only (reported in BENCH_*.json); never printed to stdout.
  double resample_seconds = 0.0;
};

/// Resamples snapshots of `block` with replacement (same count). The
/// scalar per-bit path (MeasurementBlock::good / set_congested), kept as
/// the differential reference for sim::MeasurementBlock::resample;
/// consumes exactly one rng.below(n) per output snapshot, the shared
/// pick-stream contract of both engines.
sim::MeasurementBlock resample_snapshots(const sim::MeasurementBlock& block,
                                         Rng& rng);

/// The per-replicate seed stream: replicate r of a run with base `seed`
/// always draws from this rng, independent of the fan-out width and of
/// which engine runs it — that is what makes jobs-invariance and
/// matched-seed engine comparison possible.
Rng replicate_rng(std::uint64_t seed, std::size_t replicate);

/// Draws `snapshot_count` resample picks (with replacement, each below
/// `snapshot_count`) — the same stream resample_snapshots consumes.
std::vector<std::uint32_t> draw_picks(std::size_t snapshot_count, Rng& rng);

/// draw_picks into a caller-owned buffer (resized to `snapshot_count`):
/// replicate loops reuse one buffer instead of allocating per replicate.
void draw_picks_into(std::size_t snapshot_count, Rng& rng,
                     std::vector<std::uint32_t>& picks);

/// Full-pipeline bootstrap of the correlation algorithm.
BootstrapResult bootstrap_congestion(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const graph::CoverageIndex& coverage,
                                     const corr::CorrelationSets& sets,
                                     const sim::MeasurementBlock& block,
                                     const BootstrapOptions& options = {});

/// Generic batched resample sweep for callers that bootstrap something
/// other than the correlation algorithm (fig1_tables' theorem-algorithm
/// alphas, ablation statistics): fans `replicates` word-level resamples of
/// `block` across the executor at the caller's parallel width and applies
/// `body` to each replicate's measurement. Outcome r is std::nullopt when
/// the body threw tomo::Error (that replicate lost the data it needed) —
/// callers count those as skipped. Replicate r always draws from
/// replicate_rng(seed, r), so results are identical for any width.
template <typename Body>
auto resample_sweep(const sim::MeasurementBlock& block,
                    std::size_t replicates, std::uint64_t seed, Body&& body)
    -> std::vector<std::optional<std::decay_t<
        std::invoke_result_t<Body&, const sim::EmpiricalMeasurement&>>>> {
  using R = std::decay_t<
      std::invoke_result_t<Body&, const sim::EmpiricalMeasurement&>>;
  std::vector<std::optional<R>> out(replicates);
  util::parallel_for(replicates, [&](std::size_t r) {
    Rng rng = replicate_rng(seed, r);
    const std::vector<std::uint32_t> picks =
        draw_picks(block.snapshot_count, rng);
    const sim::EmpiricalMeasurement measurement(block.resample(picks));
    try {
      out[r] = body(measurement);
    } catch (const Error&) {
      // Replicate skipped; surfaced to the caller as nullopt.
    }
  });
  return out;
}

}  // namespace tomo::core
