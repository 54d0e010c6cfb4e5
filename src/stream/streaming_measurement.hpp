// The measurement provider that grows as windows arrive.
//
// StreamingMeasurement splices each arriving snapshot window onto the
// cumulative MeasurementBlock owned by one EmpiricalMeasurement (bit-exact
// append, ragged offsets included) and answers every MeasurementProvider
// query over *all* data seen so far by delegating to it — literally the
// batch provider over the cumulative block. Because the cumulative block
// after k appends is bit-identical to the batch block over the same
// snapshots, a harvest run against this provider is byte-identical to the
// batch harvest at every window boundary; that is the streamed-vs-batch
// equivalence contract tests/test_streaming_fast.cpp pins.
#pragma once

#include <optional>

#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"

namespace tomo::stream {

class StreamingMeasurement final : public sim::MeasurementProvider {
 public:
  explicit StreamingMeasurement(std::size_t path_count);

  /// Splices `window` onto the cumulative block. Every query afterwards
  /// covers the extended snapshot range.
  void append(const sim::MeasurementBlock& window);

  std::size_t window_count() const { return windows_; }

  /// The cumulative block (empty before the first append).
  const sim::MeasurementBlock& block() const;

  using sim::MeasurementProvider::all_good_prob;

  // MeasurementProvider over the snapshots ingested so far. Queries
  // require at least one appended window.
  std::size_t path_count() const override { return path_count_; }
  double all_good_prob(std::span<const sim::PathId> paths) const override;
  double exact_pattern_prob(const sim::PathIdSet& pattern) const override;
  std::size_t sample_count() const override;
  double good_prob(sim::PathId p) const override;
  double pair_good_prob(sim::PathId a, sim::PathId b) const override;

 private:
  const sim::EmpiricalMeasurement& view() const;

  std::size_t path_count_;
  std::size_t windows_ = 0;
  // Owns the cumulative block; appends grow it in place, so queries run
  // the exact batch-provider code path (no second AND/popcount
  // implementation to drift). Empty before the first append.
  std::optional<sim::EmpiricalMeasurement> view_;
};

/// Splits a complete block into consecutive windows of `window_snapshots`
/// snapshots (final window ragged). Appending the result in order
/// reconstructs `block` bit-for-bit — the replay path of the daemon and
/// the equivalence tests.
std::vector<sim::MeasurementBlock> split_windows(
    const sim::MeasurementBlock& block, std::size_t window_snapshots);

}  // namespace tomo::stream
