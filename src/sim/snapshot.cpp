#include "sim/snapshot.hpp"

#include <bit>

#include "util/error.hpp"

namespace tomo::sim {

std::size_t bit_matrix_words(std::size_t path_count,
                             std::size_t snapshot_count) {
  const std::size_t max_words = std::vector<std::uint64_t>().max_size();
  // ceil(snapshots / 64) without the `snapshots + 63` wrap.
  const std::size_t words = snapshot_count / 64 + (snapshot_count % 64 != 0);
  TOMO_REQUIRE(words == 0 || path_count <= max_words / words,
               std::to_string(path_count) + " paths x " +
                   std::to_string(snapshot_count) +
                   " snapshots overflows the bit-matrix size");
  return path_count * words;
}

PathObservations::PathObservations(std::size_t path_count,
                                   std::size_t snapshot_count)
    : path_count_(path_count), snapshot_count_(snapshot_count) {
  TOMO_REQUIRE(path_count > 0, "observations need at least one path");
  TOMO_REQUIRE(snapshot_count > 0, "observations need at least one snapshot");
  bits_.assign(bit_matrix_words(path_count, snapshot_count), 0);
}

const std::uint64_t* PathObservations::row(PathId p) const {
  TOMO_REQUIRE(p < path_count_, "path id out of range");
  return bits_.data() + p * words_per_path();
}

std::uint64_t* PathObservations::row(PathId p) {
  TOMO_REQUIRE(p < path_count_, "path id out of range");
  return bits_.data() + p * words_per_path();
}

void PathObservations::set_congested(PathId p, std::size_t n) {
  TOMO_REQUIRE(n < snapshot_count_, "snapshot index out of range");
  row(p)[n / 64] |= std::uint64_t{1} << (n % 64);
}

void PathObservations::assign_congested_row(PathId p,
                                            const std::uint64_t* words) {
  const std::size_t count = words_per_path();
  const std::size_t tail = snapshot_count_ % 64;
  if (tail != 0) {
    TOMO_REQUIRE((words[count - 1] & ~((std::uint64_t{1} << tail) - 1)) == 0,
                 "congested row has bits beyond snapshot_count");
  }
  std::uint64_t* r = row(p);
  for (std::size_t w = 0; w < count; ++w) r[w] = words[w];
}

bool PathObservations::congested(PathId p, std::size_t n) const {
  TOMO_REQUIRE(n < snapshot_count_, "snapshot index out of range");
  return (row(p)[n / 64] >> (n % 64)) & 1;
}

std::size_t PathObservations::good_count(PathId p) const {
  const std::uint64_t* r = row(p);
  std::size_t congested = 0;
  for (std::size_t w = 0; w < words_per_path(); ++w) {
    congested += static_cast<std::size_t>(std::popcount(r[w]));
  }
  return snapshot_count_ - congested;
}

std::size_t PathObservations::both_good_count(PathId a, PathId b) const {
  const std::uint64_t* ra = row(a);
  const std::uint64_t* rb = row(b);
  std::size_t either = 0;
  for (std::size_t w = 0; w < words_per_path(); ++w) {
    either += static_cast<std::size_t>(std::popcount(ra[w] | rb[w]));
  }
  return snapshot_count_ - either;
}

std::size_t PathObservations::all_good_count(
    const std::vector<PathId>& paths) const {
  if (paths.empty()) return snapshot_count_;
  std::vector<std::uint64_t> acc(row(paths[0]),
                                 row(paths[0]) + words_per_path());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    const std::uint64_t* r = row(paths[i]);
    for (std::size_t w = 0; w < acc.size(); ++w) {
      acc[w] |= r[w];
    }
  }
  std::size_t congested_any = 0;
  for (std::uint64_t word : acc) {
    congested_any += static_cast<std::size_t>(std::popcount(word));
  }
  return snapshot_count_ - congested_any;
}

std::size_t PathObservations::exact_pattern_count(
    const PathIdSet& pattern) const {
  // A snapshot matches iff every path in `pattern` is congested and every
  // other path is good: AND over pattern rows of congested bits, AND over
  // complement rows of good bits. Accumulate word-wise.
  const std::size_t words = words_per_path();
  std::vector<std::uint64_t> match(words, ~std::uint64_t{0});
  std::vector<std::uint8_t> in_pattern(path_count_, 0);
  for (PathId p : pattern) {
    TOMO_REQUIRE(p < path_count_, "pattern path id out of range");
    in_pattern[p] = 1;
  }
  for (PathId p = 0; p < path_count_; ++p) {
    const std::uint64_t* r = row(p);
    if (in_pattern[p]) {
      for (std::size_t w = 0; w < words; ++w) match[w] &= r[w];
    } else {
      for (std::size_t w = 0; w < words; ++w) match[w] &= ~r[w];
    }
  }
  // Mask the tail bits beyond snapshot_count_ (they are zero in rows, hence
  // complement rows set them; clear explicitly).
  const std::size_t tail = snapshot_count_ % 64;
  if (tail != 0) {
    match[words - 1] &= (std::uint64_t{1} << tail) - 1;
  }
  std::size_t count = 0;
  for (std::uint64_t word : match) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

}  // namespace tomo::sim
