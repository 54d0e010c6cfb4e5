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
// The engine amortizes everything replicates share. Picks are gathered
// word-level into bit-packed MeasurementBlock columns, the equation
// harvest runs once on the point estimate, and each replicate that keeps
// the harvest's support alive re-estimates only the right-hand sides and
// solves on the shared Gram skeleton (linalg::refresh_gram_rhs + NNLS warm
// start), falling back to a full re-harvest only when support actually
// changes. Replicates fan across the executor on per-replicate seed
// streams, so intervals are bit-identical for any `jobs`. With warm_start
// off it is bitwise equal to the serial test oracle (tests/oracles/).
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {

/// The one engine. Kept as a type, with BootstrapOptions::mode, only
/// because the perfbench harness assigns it; nothing in the library reads
/// the field.
enum class BootstrapMode {
  kBatched,
};

struct BootstrapOptions {
  /// Raised from the historical 30 now that replicates are ~free on the
  /// batched engine.
  std::size_t replicates = 200;
  double confidence = 0.90;  // central interval mass
  std::uint64_t seed = 1;
  BootstrapMode mode = BootstrapMode::kBatched;
  /// Width of the call (a util::ScopedWidth; 0 = all hardware cores): the
  /// replicates fan out at it. Intervals are bit-identical for any value.
  std::size_t jobs = 1;
  /// Warm-start every replicate's NNLS from the point estimate's active
  /// set (incremental NNLS only). Off, the engine is bitwise equal to the
  /// serial reference oracle at matched seeds.
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
  /// Replicates whose equation support changed (or could not be proven
  /// stable), forcing a full re-harvest instead of the Gram-skeleton fast
  /// path. Includes the skipped ones.
  std::size_t reharvested = 0;
  /// Wall-clock seconds spent materializing replicate measurements
  /// (MeasurementBlock::resample), summed across workers — on a
  /// multi-worker run this exceeds the elapsed resample time.
  /// Telemetry only (reported in BENCH_*.json); never printed to stdout.
  double resample_seconds = 0.0;
};

/// The per-replicate seed stream: replicate r of a run with base `seed`
/// always draws from this rng, independent of the fan-out width and of
/// which engine runs it — that is what makes jobs-invariance and
/// matched-seed comparison against the reference oracle possible.
Rng replicate_rng(std::uint64_t seed, std::size_t replicate);

/// Draws `snapshot_count` resample picks (with replacement, each below
/// `snapshot_count`) into `picks`, resized to fit: exactly one
/// rng.below(snapshot_count) per pick, the stream the per-bit reference
/// resample consumes too. Replicate loops reuse one buffer.
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
    std::vector<std::uint32_t> picks;
    draw_picks_into(block.snapshot_count, rng, picks);
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
