// The snapshot simulator (paper §5, "Simulator").
//
// Each round: (1) draw the congested-link set from the ground-truth
// CongestionModel, (2) assign each link a loss rate from the LossModel,
// (3) send packets along every path and measure its loss rate, (4) flag the
// path congested when the measured rate exceeds tp.
//
// Packet transmission modes:
//   kBatched   — default. Snapshots are generated in independent 64-snapshot
//                blocks (one good-bit word per path per block): each block
//                derives its own RNG stream from mix_seed(seed, tag + block)
//                and writes disjoint words of the MeasurementBlock, so
//                blocks run in parallel at the caller's util::ScopedWidth with
//                output bit-identical for any width. Per-path delivery is
//                binomial, with an 8-sigma deterministic-fate shortcut that
//                skips the draw when the verdict is certain. Bursty models
//                restart their chains per block (see
//                CongestionModel::sample_block). Its serial scalar
//                reference and the packet-by-packet Bernoulli walk are
//                test oracles (tests/oracles/), not modes.
//   kBinomial  — legacy per-snapshot single-stream engine: per path,
//                delivered ~ Binomial(n, Π(1-loss_k)); exactly equivalent
//                to drawing every packet's fate independently. Golden
//                baselines pin it.
//   kExact     — no packet noise: a path is congested iff one of its links
//                is (separability applied directly); isolates estimation
//                error from packet-sampling error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "sim/loss_model.hpp"
#include "sim/measurement_block.hpp"
#include "util/rng.hpp"

namespace tomo::sim {

enum class PacketMode {
  kBatched,
  kBinomial,
  kExact,
};

/// Parses "batched" | "binomial" | "exact"; throws tomo::Error otherwise.
PacketMode parse_packet_mode(const std::string& name);

struct SimulatorConfig {
  std::size_t snapshots = 1000;
  std::size_t packets_per_path = 1000;
  PacketMode mode = PacketMode::kBatched;
  double tl = 0.01;
  std::uint64_t seed = 1;
};

struct SimulationResult {
  /// Path-major good-snapshot bitmasks, produced directly by the simulator;
  /// EmpiricalMeasurement adopts it without re-packing.
  MeasurementBlock measurement;
  // Empirical per-link congestion counts (ground truth bookkeeping, used
  // for diagnostics and tests; the algorithms never see it). Accumulated by
  // a serial per-block merge in block order, so it is width-invariant.
  std::vector<std::size_t> link_congested_count;
  std::size_t snapshots = 0;
};

/// Runs the experiment and returns per-path congestion observations.
SimulationResult simulate(const graph::Graph& g,
                          const std::vector<graph::Path>& paths,
                          const corr::CongestionModel& model,
                          const SimulatorConfig& config);

}  // namespace tomo::sim
