// The bootstrap layer inside a traced mesh-batch run: core::bootstrap_congestion
// in the batched engine, 200 replicates at 90% confidence, on the run's
// waxman-full measurement block (2000 snapshots), with jobs = nproc (the
// thread pool carries the replicates; the harvest runs once per call) and
// once more at jobs 1; the point estimate through core::infer_congestion;
// and a replay of the 200 replicate resamples (core::replicate_rng +
// core::draw_picks_into + MeasurementBlock::resample) to time the bit-kernel
// resample on its own.
//
// It is not a workload of its own: on a shared host the spread of its
// wall time on nproc threads over ten runs reached 0.19 of the median, and
// no speed probe tracked it (see README.md, "Host-speed calibration").
#include <cstring>

#include "bench.hpp"
#include "core/bootstrap.hpp"
#include "core/correlation_algorithm.hpp"
#include "sim/measurement.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kCallTag = 0x1b00;

/// Checks one call: every interval is ordered inside [0, 1], the point
/// is bitwise the full-sample estimate, and no replicate was skipped. Each
/// replicate is one operation; skipped replicates count as failed, and so
/// do all of a call's replicates when a check on the call fails.
///
/// The point itself is not required to lie inside its interval: these are
/// percentile intervals of the replicate estimates, and for a link whose
/// estimate sits near the boundary 0 the replicates can all land below the
/// point (observed: truth 0, point 2.4e-5, upper 2.0e-5). Those links are
/// counted in `point_outside` instead.
void check_call(Report& report, const core::BootstrapResult& result,
                const std::vector<double>& point, std::size_t requested,
                std::size_t& point_outside) {
  std::size_t bad = 0;
  point_outside = 0;
  for (std::size_t e = 0; e < result.point.size(); ++e) {
    const double lo = result.lower[e];
    const double p = result.point[e];
    const double hi = result.upper[e];
    if (!(0.0 <= lo && lo <= hi && hi <= 1.0 && 0.0 <= p && p <= 1.0)) ++bad;
    if (p < lo || p > hi) ++point_outside;
  }
  bool ok = report.check("bootstrap.interval_order", bad == 0,
                         std::to_string(bad) + " of " +
                             std::to_string(result.point.size()) +
                             " links violate 0 <= lower <= upper <= 1 or "
                             "0 <= point <= 1");
  ok = report.check("bootstrap.point_bitwise",
                    result.point.size() == point.size() &&
                        std::memcmp(result.point.data(), point.data(),
                                    point.size() * sizeof(double)) == 0,
                    "point differs from infer_congestion on the full sample") &&
       ok;
  ok = report.check("bootstrap.no_skipped_replicates", result.skipped == 0,
                    std::to_string(result.skipped) + " replicates skipped") &&
       ok;
  report.operations(requested, ok ? result.skipped : requested);
}

}  // namespace

void trace_bootstrap(const Args& args, const Setup& setup, Tracer& tracer,
                     Report& report) {
  const core::ScenarioInstance& inst = setup.instance;
  const std::size_t nproc = tomo::util::resolve_jobs(0);

  core::BootstrapOptions options;
  options.replicates = args.test_scale ? 40 : 200;
  options.confidence = 0.90;
  options.mode = core::BootstrapMode::kBatched;
  options.jobs = nproc;

  const auto call = [&](std::size_t i, std::size_t jobs) {
    core::BootstrapOptions o = options;
    o.seed = tomo::mix_seed(args.seed, kCallTag + i);
    o.jobs = jobs;
    return core::bootstrap_congestion(inst.graph, inst.paths, *setup.coverage,
                                      inst.declared_sets, setup.block, o);
  };

  // The point estimate on the full sample (the bitwise reference).
  const sim::EmpiricalMeasurement full(setup.block);
  core::InferenceResult point;
  const double point_s = timed(tracer, "core.infer_congestion", -1, [&] {
    point = core::infer_congestion(inst.graph, inst.paths, *setup.coverage,
                                   inst.declared_sets, full,
                                   options.inference);
  });

  // Counts come from the first call, so they repeat exactly at a fixed
  // seed.
  std::vector<double> call_s;
  core::BootstrapResult result, first;
  std::size_t point_outside = 0, first_outside = 0;
  (void)call(0, nproc);  // warm-up: thread pool, allocator, caches
  run_for(args.seconds / 4, 2, [&](std::size_t i) {
    call_s.push_back(timed(tracer, "core.bootstrap_congestion", -1, [&] {
      result = call(1000 + i, nproc);
    }));
    check_call(report, result, point.congestion_prob, options.replicates,
               point_outside);
    if (i == 0) {
      first = result;
      first_outside = point_outside;
    }
  });
  core::BootstrapResult serial;
  const double jobs1_s = timed(tracer, "core.bootstrap_congestion.jobs1", -1,
                               [&] { serial = call(0, 1); });
  check_call(report, serial, point.congestion_prob, options.replicates,
             point_outside);

  // Replay of the replicate resamples: the picks call 0 (the jobs-1 call)
  // draws.
  sim::ResampleScratch scratch;
  std::vector<std::uint32_t> picks;
  double resample_s = 0.0;
  const int replay = tracer.open("replay", -1, true);
  for (std::size_t r = 0; r < options.replicates; ++r) {
    tomo::Rng rng = core::replicate_rng(tomo::mix_seed(args.seed, kCallTag), r);
    core::draw_picks_into(setup.block.snapshot_count, rng, picks);
    resample_s += timed(tracer, "sim.resample", replay, [&] {
      (void)setup.block.resample(picks, scratch);
    }, true);
  }
  tracer.close(replay);

  const double bootstrap_s = median(call_s);
  const double replicates = static_cast<double>(options.replicates);
  // Computed, not measured: each resample reads the snapshot-major source
  // rows it gathers and writes them, transposes back (read + write) and
  // popcounts the result (read) — five passes over a block-sized buffer.
  const double block_bytes = static_cast<double>(
      setup.block.path_count * setup.block.words_per_path() * 8);
  report.metric("sim.resample_ms", 1e3 * resample_s, "ms");
  report.metric("util.bitops.resample_bytes", 5.0 * block_bytes, "B");
  report.metric("core.bootstrap.replicate_ms", 1e3 * bootstrap_s / replicates,
                "ms");
  report.metric("core.bootstrap.reharvest_ratio",
                static_cast<double>(first.reharvested) / replicates, "ratio");
  report.metric("core.bootstrap.skipped", static_cast<double>(first.skipped),
                "count");
  report.metric("core.bootstrap.point_outside",
                static_cast<double>(first_outside), "count");
  report.metric("core.bootstrap.point_infer_s", point_s, "s");
  report.metric("core.bootstrap.jobs1_s", jobs1_s, "s");
  report.metric("core.bootstrap.scaling_eff",
                jobs1_s / (static_cast<double>(nproc) * bootstrap_s), "ratio");
}

}  // namespace perfbench
