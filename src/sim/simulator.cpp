#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tomo::sim {

namespace {

/// Seed-tag base for per-block RNG streams: block b draws from
/// mix_seed(config.seed, kBlockSeedTag + b), so the stream depends only on
/// (seed, block index) — never on which worker ran the block.
constexpr std::uint64_t kBlockSeedTag = 0xb10c0000ULL;

/// Snapshots per batch: one 64-bit good word per path per block, so every
/// block writes disjoint words of the MeasurementBlock.
constexpr std::size_t kBlockSnapshots = 64;

/// Smallest delivered-packet count that still counts as "good":
/// congested iff measured_loss > tp iff delivered < n*(1-tp).
inline double good_threshold(std::size_t packets, double tp) {
  return std::ceil(static_cast<double>(packets) * (1.0 - tp));
}

/// Deterministic-fate shortcut: with delivered ~ Binomial(n, survival), the
/// verdict is certain (to ~8 sigma, P(flip) < 1e-15) when the mean sits
/// more than 8 standard deviations past the threshold. Returns +1
/// (certainly good), -1 (certainly congested), or 0 (borderline — draw).
inline int classify_fate(double packets, double survival, double threshold) {
  const double mean = packets * survival;
  const double variance = mean * (1.0 - survival);
  const double diff = mean - threshold;
  const double slack = (diff >= 0.0 ? diff : -diff) - 1.0;
  if (slack > 0.0 && slack * slack > 64.0 * variance) {
    return diff >= 0.0 ? 1 : -1;
  }
  return 0;
}

std::vector<double> path_thresholds(const LossModel& loss_model,
                                    const std::vector<graph::Path>& paths) {
  std::vector<double> tp(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    tp[p] = loss_model.path_threshold(paths[p].length());
  }
  return tp;
}

/// The block-batched engine. Blocks are the parallel unit: each derives its
/// own RNG stream, samples its snapshots' link states in one sample_block
/// call, and writes one good word per path — disjoint from every other
/// block — so util::parallel_for scheduling cannot affect the output.
SimulationResult simulate_batched(const graph::Graph& g,
                                  const std::vector<graph::Path>& paths,
                                  const corr::CongestionModel& model,
                                  const SimulatorConfig& config) {
  const std::size_t links = g.link_count();
  const std::size_t blocks =
      (config.snapshots + kBlockSnapshots - 1) / kBlockSnapshots;

  LossModel loss_model(config.tl);
  const std::vector<double> tp = path_thresholds(loss_model, paths);
  std::vector<double> threshold(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    threshold[p] = good_threshold(config.packets_per_path, tp[p]);
  }

  // Flatten path->links into CSR so the survival product walks one
  // contiguous array instead of chasing per-path vectors.
  std::vector<std::size_t> offsets(paths.size() + 1, 0);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    offsets[p + 1] = offsets[p] + paths[p].links().size();
  }
  std::vector<graph::LinkId> path_links(offsets.back());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::copy(paths[p].links().begin(), paths[p].links().end(),
              path_links.begin() + offsets[p]);
  }

  SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(links, 0);
  result.measurement.path_count = paths.size();
  result.measurement.snapshot_count = config.snapshots;
  result.measurement.good_bits.assign(
      paths.size() * result.measurement.words_per_path(), 0);

  // Per-block link congestion tallies, merged serially in block order after
  // the fan-out (width-invariant by construction; see SimulationResult).
  std::vector<std::uint32_t> block_counts(blocks * links, 0);

  const double packets = static_cast<double>(config.packets_per_path);
  util::parallel_for(blocks, [&](std::size_t b) {
    const std::size_t first = b * kBlockSnapshots;
    const std::size_t count =
        std::min(kBlockSnapshots, config.snapshots - first);
    Rng rng(mix_seed(config.seed, kBlockSeedTag + b));

    std::vector<std::uint8_t> states(count * links);
    model.sample_block(rng, count, states.data());

    std::vector<double> keep(links);  // 1 - loss per link
    std::vector<std::uint64_t> good_words(paths.size(), 0);
    std::uint32_t* counts = block_counts.data() + b * links;

    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* state = states.data() + i * links;
      for (std::size_t k = 0; k < links; ++k) {
        counts[k] += state[k];
      }
      for (std::size_t k = 0; k < links; ++k) {
        keep[k] = 1.0 - loss_model.sample_loss_rate(rng, state[k] != 0);
      }
      for (std::size_t p = 0; p < paths.size(); ++p) {
        double survival = 1.0;
        for (std::size_t idx = offsets[p]; idx < offsets[p + 1]; ++idx) {
          survival *= keep[path_links[idx]];
        }
        bool good;
        const int fate = classify_fate(packets, survival, threshold[p]);
        if (fate != 0) {
          good = fate > 0;
        } else {
          const double delivered = static_cast<double>(
              rng.binomial(config.packets_per_path, survival));
          good = delivered >= threshold[p];
        }
        if (good) {
          good_words[p] |= std::uint64_t{1} << i;
        }
      }
    }
    for (std::size_t p = 0; p < paths.size(); ++p) {
      result.measurement.good_row(p)[b] = good_words[p];
    }
  });

  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint32_t* counts = block_counts.data() + b * links;
    for (std::size_t k = 0; k < links; ++k) {
      result.link_congested_count[k] += counts[k];
    }
  }
  result.measurement.recount();
  return result;
}

/// The pre-batching engines, preserved verbatim: one RNG stream advanced
/// across all snapshots (golden baselines pin kBinomial to this stream).
SimulationResult simulate_legacy(const graph::Graph& g,
                                 const std::vector<graph::Path>& paths,
                                 const corr::CongestionModel& model,
                                 const SimulatorConfig& config) {
  LossModel loss_model(config.tl);
  Rng rng(config.seed);

  SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(g.link_count(), 0);
  MeasurementBlock& observations = result.measurement;
  observations = MeasurementBlock::all_good(paths.size(), config.snapshots);

  const std::vector<double> tp = path_thresholds(loss_model, paths);

  std::vector<double> loss(g.link_count(), 0.0);
  for (std::size_t n = 0; n < config.snapshots; ++n) {
    const std::vector<std::uint8_t> state = model.sample(rng);
    TOMO_ASSERT(state.size() == g.link_count());
    for (graph::LinkId k = 0; k < g.link_count(); ++k) {
      result.link_congested_count[k] += state[k];
    }

    if (config.mode == PacketMode::kExact) {
      for (std::size_t p = 0; p < paths.size(); ++p) {
        for (graph::LinkId k : paths[p].links()) {
          if (state[k]) {
            observations.set_congested(p, n);
            break;
          }
        }
      }
      continue;
    }

    for (graph::LinkId k = 0; k < g.link_count(); ++k) {
      loss[k] = loss_model.sample_loss_rate(rng, state[k] != 0);
    }

    const double sent = static_cast<double>(config.packets_per_path);
    for (std::size_t p = 0; p < paths.size(); ++p) {
      double survival = 1.0;
      for (graph::LinkId k : paths[p].links()) {
        survival *= 1.0 - loss[k];
      }
      const double delivered = static_cast<double>(
          rng.binomial(config.packets_per_path, survival));
      const double measured_loss = 1.0 - delivered / sent;
      if (measured_loss > tp[p]) {
        observations.set_congested(p, n);
      }
    }
  }
  observations.recount();
  return result;
}

}  // namespace

PacketMode parse_packet_mode(const std::string& name) {
  if (name == "batched") return PacketMode::kBatched;
  if (name == "binomial") return PacketMode::kBinomial;
  if (name == "exact") return PacketMode::kExact;
  TOMO_REQUIRE(false, "unknown packet mode '" + name +
                          "' (batched|binomial|exact)");
}

SimulationResult simulate(const graph::Graph& g,
                          const std::vector<graph::Path>& paths,
                          const corr::CongestionModel& model,
                          const SimulatorConfig& config) {
  TOMO_REQUIRE(!paths.empty(), "simulate: no paths");
  TOMO_REQUIRE(model.link_count() == g.link_count(),
               "simulate: model link count does not match the graph");
  TOMO_REQUIRE(config.snapshots > 0, "simulate: need at least one snapshot");
  TOMO_REQUIRE(config.packets_per_path > 0 ||
                   config.mode == PacketMode::kExact,
               "simulate: need at least one packet per path");

  return config.mode == PacketMode::kBatched
             ? simulate_batched(g, paths, model, config)
             : simulate_legacy(g, paths, model, config);
}

}  // namespace tomo::sim
