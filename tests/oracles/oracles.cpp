#include "oracles/oracles.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "core/correlation_algorithm.hpp"
#include "linalg/qr.hpp"
#include "sim/loss_model.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace tomo::oracles {

using linalg::Matrix;
using linalg::Vector;

namespace {

// Restated from the batched engine's contract, not imported from it: a
// drift on either side breaks the bit-exact comparison. Block b of 64
// snapshots draws from Rng(mix_seed(seed, kBlockSeedTag + b)).
constexpr std::uint64_t kBlockSeedTag = 0xb10c0000ULL;
constexpr std::size_t kBlockSnapshots = 64;

/// +1 certainly good, -1 certainly congested, 0 borderline (draw): the
/// verdict is fixed when the binomial mean sits more than 8 standard
/// deviations (plus one packet) past the threshold.
int classify_fate(double packets, double survival, double threshold) {
  const double mean = packets * survival;
  const double variance = mean * (1.0 - survival);
  const double diff = mean - threshold;
  const double slack = (diff >= 0.0 ? diff : -diff) - 1.0;
  if (slack > 0.0 && slack * slack > 64.0 * variance) {
    return diff >= 0.0 ? 1 : -1;
  }
  return 0;
}

std::vector<double> path_thresholds(const sim::LossModel& loss_model,
                                    const std::vector<graph::Path>& paths) {
  std::vector<double> tp(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    tp[p] = loss_model.path_threshold(paths[p].length());
  }
  return tp;
}

/// Congested bits of word `w` of path `p` (tail bits beyond the block's
/// snapshots clear).
std::uint64_t congested_word(const sim::MeasurementBlock& block,
                             sim::PathId p, std::size_t w) {
  return ~block.good_row(p)[w] & block.word_mask(w);
}

/// Snapshots in which no path of `paths` was congested.
std::size_t all_good_count(const sim::MeasurementBlock& block,
                           std::span<const sim::PathId> paths) {
  std::size_t congested_any = 0;
  for (std::size_t w = 0; w < block.words_per_path(); ++w) {
    std::uint64_t any = 0;
    for (const sim::PathId p : paths) {
      TOMO_REQUIRE(p < block.path_count, "path id out of range");
      any |= congested_word(block, p, w);
    }
    congested_any += static_cast<std::size_t>(std::popcount(any));
  }
  return block.snapshot_count - congested_any;
}

/// Least squares restricted to the columns in `passive` (solution entries
/// for other columns are zero).
Vector restricted_least_squares(const Matrix& a, const Vector& b,
                                const std::vector<std::size_t>& passive) {
  Matrix sub(a.rows(), passive.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t j = 0; j < passive.size(); ++j) {
      sub(r, j) = a(r, passive[j]);
    }
  }
  Vector z = linalg::least_squares(sub, b);
  Vector full(a.cols(), 0.0);
  for (std::size_t j = 0; j < passive.size(); ++j) {
    full[passive[j]] = z[j];
  }
  return full;
}

}  // namespace

sim::SimulationResult simulate_batched_reference(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config) {
  const std::size_t links = g.link_count();
  const std::size_t blocks =
      (config.snapshots + kBlockSnapshots - 1) / kBlockSnapshots;

  sim::LossModel loss_model(config.tl);
  const std::vector<double> tp = path_thresholds(loss_model, paths);

  sim::SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(links, 0);
  sim::MeasurementBlock& obs = result.measurement;
  obs = sim::MeasurementBlock::all_good(paths.size(), config.snapshots);

  const double packets = static_cast<double>(config.packets_per_path);
  std::vector<std::uint8_t> states;
  std::vector<double> loss(links);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * kBlockSnapshots;
    const std::size_t count =
        std::min(kBlockSnapshots, config.snapshots - first);
    Rng rng(mix_seed(config.seed, kBlockSeedTag + b));
    states.assign(count * links, 0);
    model.sample_block(rng, count, states.data());
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* state = states.data() + i * links;
      for (std::size_t k = 0; k < links; ++k) {
        result.link_congested_count[k] += state[k];
      }
      for (std::size_t k = 0; k < links; ++k) {
        loss[k] = loss_model.sample_loss_rate(rng, state[k] != 0);
      }
      for (std::size_t p = 0; p < paths.size(); ++p) {
        double survival = 1.0;
        for (graph::LinkId k : paths[p].links()) {
          survival *= 1.0 - loss[k];
        }
        // Good iff measured loss <= tp iff delivered >= ceil(n (1 - tp)).
        const double threshold = std::ceil(packets * (1.0 - tp[p]));
        bool good;
        const int fate = classify_fate(packets, survival, threshold);
        if (fate != 0) {
          good = fate > 0;
        } else {
          const double delivered = static_cast<double>(
              rng.binomial(config.packets_per_path, survival));
          good = delivered >= threshold;
        }
        if (!good) {
          obs.set_congested(p, first + i);
        }
      }
    }
  }
  obs.recount();
  return result;
}

sim::SimulationResult simulate_per_packet(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config) {
  sim::LossModel loss_model(config.tl);
  Rng rng(config.seed);

  sim::SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(g.link_count(), 0);
  sim::MeasurementBlock& observations = result.measurement;
  observations =
      sim::MeasurementBlock::all_good(paths.size(), config.snapshots);
  const std::vector<double> tp = path_thresholds(loss_model, paths);

  std::vector<double> loss(g.link_count(), 0.0);
  for (std::size_t n = 0; n < config.snapshots; ++n) {
    const std::vector<std::uint8_t> state = model.sample(rng);
    TOMO_ASSERT(state.size() == g.link_count());
    for (graph::LinkId k = 0; k < g.link_count(); ++k) {
      result.link_congested_count[k] += state[k];
    }
    for (graph::LinkId k = 0; k < g.link_count(); ++k) {
      loss[k] = loss_model.sample_loss_rate(rng, state[k] != 0);
    }
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const std::size_t sent = config.packets_per_path;
      std::size_t delivered = 0;
      for (std::size_t packet = 0; packet < sent; ++packet) {
        bool alive = true;
        for (graph::LinkId k : paths[p].links()) {
          if (rng.bernoulli(loss[k])) {
            alive = false;
            break;
          }
        }
        delivered += alive ? 1 : 0;
      }
      const double measured_loss =
          1.0 - static_cast<double>(delivered) / static_cast<double>(sent);
      if (measured_loss > tp[p]) {
        observations.set_congested(p, n);
      }
    }
  }
  observations.recount();
  return result;
}

ScalarMeasurement::ScalarMeasurement(sim::MeasurementBlock block)
    : block_(std::move(block)) {
  TOMO_REQUIRE(!block_.empty(), "scalar measurement needs observations");
}

std::size_t ScalarMeasurement::good_count(sim::PathId p) const {
  return all_good_count(block_, std::span<const sim::PathId>(&p, 1));
}

double ScalarMeasurement::all_good_prob(
    std::span<const sim::PathId> paths) const {
  return static_cast<double>(all_good_count(block_, paths)) /
         static_cast<double>(block_.snapshot_count);
}

/// Path-major AND of the congested rows (pattern paths) and the good rows
/// (the rest), counted over the real snapshots.
double ScalarMeasurement::exact_pattern_prob(
    const sim::PathIdSet& pattern) const {
  std::vector<std::uint8_t> in_pattern(block_.path_count, 0);
  for (sim::PathId p : pattern) {
    TOMO_REQUIRE(p < block_.path_count, "pattern path id out of range");
    in_pattern[p] = 1;
  }
  const std::size_t words = block_.words_per_path();
  std::vector<std::uint64_t> match(words, ~std::uint64_t{0});
  for (sim::PathId p = 0; p < block_.path_count; ++p) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t congested = congested_word(block_, p, w);
      match[w] &= in_pattern[p] ? congested : ~congested;
    }
  }
  // Complemented rows set the tail bits beyond snapshot_count; clear them.
  match[words - 1] &= block_.word_mask(words - 1);
  std::size_t count = 0;
  for (const std::uint64_t word : match) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return static_cast<double>(count) /
         static_cast<double>(block_.snapshot_count);
}

sim::MeasurementBlock resample_snapshots(const sim::MeasurementBlock& block,
                                         Rng& rng) {
  const std::size_t n = block.snapshot_count;
  sim::MeasurementBlock out =
      sim::MeasurementBlock::all_good(block.path_count, n);
  std::vector<std::size_t> picks(n);
  for (std::size_t& pick : picks) pick = rng.below(n);
  for (sim::PathId p = 0; p < block.path_count; ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!block.good(p, picks[i])) {
        out.set_congested(p, i);
      }
    }
  }
  out.recount();
  return out;
}

core::BootstrapResult bootstrap_reference(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementBlock& block, const core::BootstrapOptions& options) {
  const std::size_t links = g.link_count();
  core::BootstrapResult result;
  result.point = core::infer_congestion(g, paths, coverage, sets,
                                        sim::EmpiricalMeasurement(block),
                                        options.inference)
                     .congestion_prob;

  std::vector<std::vector<double>> samples(links);
  for (std::size_t r = 0; r < options.replicates; ++r) {
    Rng rng = core::replicate_rng(options.seed, r);
    const sim::EmpiricalMeasurement measurement(
        resample_snapshots(block, rng));
    std::vector<double> estimate;
    try {
      estimate = core::infer_congestion(g, paths, coverage, sets,
                                        measurement, options.inference)
                     .congestion_prob;
    } catch (const Error&) {
      ++result.skipped;  // the resample lost every usable equation
      continue;
    }
    for (graph::LinkId e = 0; e < links; ++e) {
      samples[e].push_back(estimate[e]);
    }
    ++result.replicates;
  }

  const double tail = (1.0 - options.confidence) / 2.0;
  result.lower.resize(links);
  result.upper.resize(links);
  for (graph::LinkId e = 0; e < links; ++e) {
    const Interval interval =
        percentile_pair(samples[e], 100.0 * tail, 100.0 * (1.0 - tail));
    result.lower[e] = interval.lo;
    result.upper[e] = interval.hi;
  }
  return result;
}

linalg::NnlsResult nnls_reference(const Matrix& a, const Vector& b,
                                  std::size_t max_iterations, double tol) {
  TOMO_REQUIRE(b.size() == a.rows(), "nnls_reference: rhs length mismatch");
  const std::size_t n = a.cols();
  if (max_iterations == 0) max_iterations = 3 * n + 10;

  linalg::NnlsResult result;
  result.x.assign(n, 0.0);

  std::vector<bool> in_passive(n, false);
  std::vector<std::size_t> passive;

  Vector w = a.multiply_transposed(linalg::residual(a, result.x, b));

  while (result.iterations < max_iterations) {
    // Optimality: all gradient components for active (zero) variables
    // non-positive.
    std::size_t best = n;
    double best_w = tol;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = j;
      }
    }
    if (best == n) {
      result.converged = true;
      break;
    }
    in_passive[best] = true;
    passive.push_back(best);

    // Inner loop: solve the unconstrained problem on the passive set and
    // clip variables that go negative.
    for (;;) {
      ++result.iterations;
      Vector z = restricted_least_squares(a, b, passive);
      bool all_positive = true;
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t j : passive) {
        if (z[j] <= tol) {
          all_positive = false;
          const double denom = result.x[j] - z[j];
          if (denom > 0) {
            alpha = std::min(alpha, result.x[j] / denom);
          }
        }
      }
      if (all_positive) {
        result.x = std::move(z);
        break;
      }
      if (!std::isfinite(alpha)) {
        // Degenerate step; drop the offending variables outright.
        alpha = 0.0;
      }
      for (std::size_t j : passive) {
        result.x[j] += alpha * (z[j] - result.x[j]);
      }
      // Move variables that hit zero back to the active set.
      std::vector<std::size_t> still_passive;
      for (std::size_t j : passive) {
        if (result.x[j] > tol) {
          still_passive.push_back(j);
        } else {
          result.x[j] = 0.0;
          in_passive[j] = false;
        }
      }
      passive = std::move(still_passive);
      if (passive.empty()) break;
      if (result.iterations >= max_iterations) break;
    }

    w = a.multiply_transposed(linalg::residual(a, result.x, b));
  }

  result.residual_norm = linalg::norm2(linalg::residual(a, result.x, b));
  return result;
}

}  // namespace tomo::oracles
