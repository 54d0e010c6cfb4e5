// Text serialization of path observations.
//
// Lets a deployment decouple measurement from inference: the prober
// records one congested/good bit per (path, snapshot) and ships the file;
// `tomo_cli infer` consumes it later. Format (line oriented, '#'
// comments):
//
//   tomo-observations v1
//   paths <P> snapshots <N>
//   congested <path-id> <snapshot-id>...   # one line per path with >=1
//                                          # congested snapshot
//
// Files are read straight into a MeasurementBlock (a listed snapshot
// clears that path's good bit) and written from one, so simulator output
// and daemon replay inputs round-trip bit-for-bit, ragged tails included.
// Every line must be consumed to its end: a stray or non-numeric token is
// a tomo::Error naming the line, never silently dropped data. The
// `congested` line helpers below are shared with the daemon's windowed
// format (stream/obs_stream.hpp), so both formats parse and print those
// lines through one implementation.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/measurement_block.hpp"

namespace tomo::sim {

void write_observations(std::ostream& os, const MeasurementBlock& block);
MeasurementBlock read_observation_block(std::istream& is);

void save_observations(const std::string& filename,
                       const MeasurementBlock& block);
MeasurementBlock load_observation_block(const std::string& filename);

/// Writes `congested <p> <n>...` for every path of `block` with at least
/// one congested snapshot (snapshot ids relative to the block), one line
/// each, in path order.
void write_congested_lines(std::ostream& os, const MeasurementBlock& block);

/// Applies the rest of a `congested` line (`ls` positioned after the tag)
/// to `block`: marks each listed snapshot of the path congested. Leaves
/// good_counts stale (callers recount() once the block is complete).
/// Throws tomo::Error, without a line number, on a malformed or
/// out-of-range token.
void read_congested_line(std::istream& ls, MeasurementBlock& block);

/// Throws tomo::Error unless nothing but whitespace is left on `ls`.
void expect_line_end(std::istream& ls);

}  // namespace tomo::sim
