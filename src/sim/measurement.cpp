#include "sim/measurement.hpp"

#include <bit>

#include "util/bitops.hpp"
#include "util/error.hpp"

namespace tomo::sim {

EmpiricalMeasurement::EmpiricalMeasurement(MeasurementBlock block)
    : block_(std::move(block)) {
  TOMO_REQUIRE(!block_.empty(), "empirical measurement needs observations");
  TOMO_REQUIRE(block_.good_counts.size() == block_.path_count,
               "measurement block is missing its popcounts");
}

void EmpiricalMeasurement::append(const MeasurementBlock& window) {
  block_.append(window);
}

std::size_t EmpiricalMeasurement::path_count() const {
  return block_.path_count;
}

std::size_t EmpiricalMeasurement::sample_count() const {
  return block_.snapshot_count;
}

std::size_t EmpiricalMeasurement::good_count(PathId p) const {
  TOMO_REQUIRE(p < path_count(), "path id out of range");
  return block_.good_counts[p];
}

double EmpiricalMeasurement::all_good_prob(
    std::span<const PathId> paths) const {
  if (paths.empty()) return 1.0;
  if (paths.size() == 1) return good_prob(paths[0]);
  if (paths.size() == 2) return pair_good_prob(paths[0], paths[1]);
  for (const PathId p : paths) {
    TOMO_REQUIRE(p < block_.path_count, "path id out of range");
  }
  // Multi-way AND+popcount through the kernel table; the row pointers
  // live on the stack for the typical small path sets.
  const std::uint64_t* stack_rows[16];
  std::vector<const std::uint64_t*> heap_rows;
  const std::uint64_t** rows = stack_rows;
  if (paths.size() > 16) {
    heap_rows.resize(paths.size());
    rows = heap_rows.data();
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    rows[i] = block_.good_row(paths[i]);
  }
  const std::size_t all = util::bitops::active().and_popcount_multi(
      rows, paths.size(), block_.words_per_path());
  return static_cast<double>(all) /
         static_cast<double>(block_.snapshot_count);
}

double EmpiricalMeasurement::good_prob(PathId p) const {
  return static_cast<double>(good_count(p)) /
         static_cast<double>(sample_count());
}

double EmpiricalMeasurement::pair_good_prob(PathId a, PathId b) const {
  TOMO_REQUIRE(a < path_count() && b < path_count(), "path id out of range");
  const std::size_t both = util::bitops::active().and_popcount(
      block_.good_row(a), block_.good_row(b), block_.words_per_path());
  return static_cast<double>(both) /
         static_cast<double>(block_.snapshot_count);
}

double EmpiricalMeasurement::exact_pattern_prob(
    const PathIdSet& pattern) const {
  std::vector<std::uint8_t> in_pattern(block_.path_count, 0);
  for (PathId p : pattern) {
    TOMO_REQUIRE(p < block_.path_count, "pattern path id out of range");
    in_pattern[p] = 1;
  }
  // A snapshot matches iff every pattern path is congested (~good) and
  // every other path is good: AND-accumulate over all rows, word-major.
  const std::size_t words = block_.words_per_path();
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t match = block_.word_mask(w);
    for (PathId p = 0; p < block_.path_count; ++p) {
      const std::uint64_t good = block_.good_row(p)[w];
      match &= in_pattern[p] ? ~good : good;
    }
    count += static_cast<std::size_t>(std::popcount(match));
  }
  return static_cast<double>(count) /
         static_cast<double>(block_.snapshot_count);
}

}  // namespace tomo::sim
