// stream-replay: stream::serve over an in-memory tomo-obs-stream v1
// encoding of a waxman-full trace (256-snapshot windows, warm start), one
// session after another, into a sink that timestamps every published line.
// The whole trace is available at once, so windows arrive as fast as they
// are served (closed loop, one inference thread beside serve's producer).
//
// The traced run drives the same layers one public call at a time on one
// thread — ObsStreamReader::next, StreamingInference::push_window,
// stream::window_json — and replays core::harvest_refined_system on the
// cumulative measurement after each push to split push time.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string_view>

#include "bench.hpp"
#include "core/correlation_algorithm.hpp"
#include "core/experiment.hpp"
#include "linalg/nnls.hpp"
#include "sim/measurement.hpp"
#include "stream/obs_stream.hpp"
#include "stream/serve.hpp"
#include "stream/streaming_measurement.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kSetupTag = 0x5e7;
constexpr std::size_t kWindow = 256;
/// The waxman-full equation systems are rank deficient (rank < links), so
/// the NNLS minimizer is not unique: the warm-started stream can settle on
/// a different minimizer than the cold batch solve. The checks therefore
/// ask for the same optimum (objective to solver tolerance) and the same
/// accuracy (mean_err within kErrTolerance, about 1% of its value), and
/// the traced run reports the largest per-link difference.
constexpr double kObjectiveTolerance = 1e-9;  // relative
constexpr double kErrTolerance = 1e-4;        // absolute

/// Sum of squared residuals of a solved system: the NNLS objective.
double nnls_objective(const core::InferenceResult& result) {
  double sum = 0.0;
  for (const tomo::linalg::SparseRow& row :
       core::sparse_view(result.system).rows) {
    double ax = 0.0;
    for (std::size_t i = 0; i < row.support_size; ++i) {
      ax += result.log_good[row.support[i]];
    }
    const double d = row.value * ax - row.y;
    sum += d * d;
  }
  return sum;
}

/// Output sink of a serve session: keeps the published text and the time
/// each line's newline arrived.
class LineClock final : public std::streambuf {
 public:
  std::string text;
  std::vector<Clock::time_point> stamps;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      text.push_back(traits_type::to_char_type(ch));
      if (ch == '\n') stamps.push_back(Clock::now());
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    text.append(s, static_cast<std::size_t>(n));
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') stamps.push_back(Clock::now());
    }
    return n;
  }
};

/// Checks one session's windows: every window after the first must be
/// usable. Each window is one operation; the final one also fails when
/// `final_ok` (the checks on the final estimate) is false.
void check_windows(Report& report, const std::vector<bool>& usable,
                   std::size_t expected, bool final_ok) {
  const bool count_ok = report.check(
      "stream-replay.window_count", usable.size() == expected,
      std::to_string(usable.size()) + " windows, expected " +
          std::to_string(expected));
  for (std::size_t w = 0; w < usable.size(); ++w) {
    const bool ok = report.check("stream-replay.window_usable",
                                 w == 0 || usable[w],
                                 "window " + std::to_string(w) + " unusable");
    report.operation(ok && (w + 1 < usable.size() || (final_ok && count_ok)));
  }
}

bool check_final(Report& report, double final_err, double batch_err) {
  return report.check(
      "stream-replay.final_matches_batch",
      final_err >= 0.0 && std::fabs(final_err - batch_err) <= kErrTolerance,
      "final window mean_err " + std::to_string(final_err) + " vs batch " +
          std::to_string(batch_err));
}

bool check_optimum(Report& report, const core::InferenceResult& streamed,
                   const core::InferenceResult& batch) {
  const double a = nnls_objective(streamed);
  const double b = nnls_objective(batch);
  return report.check(
      "stream-replay.final_same_optimum",
      std::fabs(a - b) <= kObjectiveTolerance * std::max(1.0, b),
      "final window objective " + std::to_string(a) + " vs batch " +
          std::to_string(b));
}

struct Session {
  double seconds = 0.0;
  std::vector<double> gaps_s;  // first line timed from the session start
  std::vector<bool> usable;
  double final_err = -1.0;
};

Session serve_session(const std::string& encoding, const Setup& setup,
                      const tomo::stream::ServeOptions& options) {
  std::istringstream input(encoding);
  LineClock sink;
  sink.text.reserve(1 << 20);
  std::ostream output(&sink);
  Session session;
  const Clock::time_point t0 = Clock::now();
  const tomo::stream::ServeReport served = tomo::stream::serve(
      input, output, setup.instance.graph, setup.instance.paths,
      setup.instance.declared_sets, options);
  session.seconds = seconds_between(t0, Clock::now());
  Clock::time_point prev = t0;
  for (const Clock::time_point t : sink.stamps) {
    session.gaps_s.push_back(seconds_between(prev, t));
    prev = t;
  }
  const std::string_view text(sink.text);
  for (std::size_t begin = 0, end = 0;
       (end = text.find('\n', begin)) != std::string_view::npos;
       begin = end + 1) {
    session.usable.push_back(text.substr(begin, end - begin)
                                 .find("\"usable\":true") !=
                             std::string_view::npos);
  }
  session.final_err = served.last_mean_err;
  return session;
}

}  // namespace

void run_stream_replay(const Args& args, Tracer& tracer, Report& report) {
  sim::SimulatorConfig sim;
  sim.snapshots = args.test_scale ? 1024 : 8192;
  sim.packets_per_path = args.test_scale ? 500 : 4000;
  sim.seed = tomo::mix_seed(args.seed, kSetupTag);
  const std::size_t windows = sim.snapshots / kWindow;

  std::string encoding;
  const Setup setup =
      run_setup(args, "waxman-full", sim, tracer, report, [&](Setup& s) {
        timed(tracer, "stream.encode", -1, [&] {
          std::ostringstream os;
          tomo::stream::ObsStreamWriter writer(os, s.block.path_count);
          for (const sim::MeasurementBlock& window :
               tomo::stream::split_windows(s.block, kWindow)) {
            writer.write_window(window);
          }
          writer.close();
          encoding = os.str();
        });
      });
  const core::ScenarioInstance& inst = setup.instance;

  tomo::stream::ServeOptions options;
  options.window_snapshots = kWindow;
  options.truth = &inst.true_marginals;

  // The batch estimate over the whole trace, for the final-window checks.
  const sim::EmpiricalMeasurement full(setup.block);
  const core::InferenceResult batch = core::infer_congestion(
      inst.graph, inst.paths, *setup.coverage, inst.declared_sets, full,
      options.streaming.inference);
  const double batch_err =
      mean_error(inst, batch.congestion_prob,
                 core::potentially_congested_links(inst.paths, full));

  // Untraced serve sessions (the whole untraced run; a third of a traced
  // run, as its overhead baseline).
  ScaledTimes gaps, sessions;
  std::size_t served_windows = 0;
  double final_err = -1.0;
  const double serve_budget =
      tracer.enabled() ? args.seconds / 3 : args.seconds;
  SpeedGauge gauge;  // serve infers on one thread
  run_for(serve_budget, tracer.enabled() ? 1 : 3, [&](std::size_t) {
    Session session = serve_session(encoding, setup, options);
    const double scale = gauge.scale();
    check_windows(report, session.usable, windows,
                  check_final(report, session.final_err, batch_err));
    for (const double gap : session.gaps_s) gaps.add(gap, scale);
    sessions.add(session.seconds, scale);
    served_windows += session.usable.size();
    final_err = session.final_err;
  });
  const std::vector<double>& gaps_s = gaps.wall_s;

  if (!tracer.enabled()) {
    // Outside the measured loop: the final estimate of a direct pass over
    // the same windows, for the optimum check.
    tomo::stream::StreamingInference direct(
        inst.graph, inst.paths, inst.declared_sets, options.streaming);
    tomo::stream::WindowEstimate final_estimate;
    std::vector<bool> usable;
    for (const sim::MeasurementBlock& window :
         tomo::stream::split_windows(setup.block, kWindow)) {
      final_estimate = direct.push_window(window);
      usable.push_back(final_estimate.usable);
    }
    check_windows(report, usable, windows,
                  check_optimum(report, final_estimate.inference, batch));

    report_speed(report, gaps, static_cast<double>(served_windows), sessions,
                 &gauge);
    report.metric("mean_err", final_err, "prob");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::vector<double> parse_ms, push_ms, replay_ms, rest_ms, json_ms;
  std::vector<double> window_ms, iters;
  std::size_t gram_reused = 0, warm_started = 0;
  std::size_t unusable = 0, traced_windows = 0;
  core::InferenceResult final_estimate;
  run_for(args.seconds * 2 / 3, 2, [&](std::size_t) {
    std::istringstream input(encoding);
    tomo::stream::ObsStreamReader reader(input);
    tomo::stream::StreamingInference inference(
        inst.graph, inst.paths, inst.declared_sets, options.streaming);
    const int session = tracer.open("stream.session");
    std::vector<bool> usable;
    double err = -1.0;
    for (;;) {
      const int window = tracer.open("stream.window", session);
      std::optional<sim::MeasurementBlock> block;
      const double parse_s = timed(tracer, "stream.parse", window,
                                   [&] { block = reader.next(); });
      if (!block) {
        tracer.close(window);
        break;
      }
      tomo::stream::WindowEstimate estimate;
      const double push_s = timed(tracer, "stream.push_window", window, [&] {
        estimate = inference.push_window(*block);
      });
      err = -1.0;
      const double err_s = timed(tracer, "metrics.mean_err", window, [&] {
        if (!estimate.usable) return;
        err = mean_error(inst, estimate.inference.congestion_prob,
                         core::potentially_congested_links(
                             inst.paths, inference.measurement()));
      });
      const double json_s = timed(tracer, "stream.window_json", window, [&] {
        (void)tomo::stream::window_json(estimate, err);
      });
      tracer.close(window);
      if (estimate.usable) final_estimate = estimate.inference;
      const double replay_s =
          timed(tracer, "core.harvest_refined_system", session, [&] {
            (void)core::harvest_refined_system(
                inst.graph, inst.paths, *setup.coverage, inst.declared_sets,
                inference.measurement(), options.streaming.inference);
          }, true);

      parse_ms.push_back(1e3 * parse_s);
      push_ms.push_back(1e3 * push_s);
      replay_ms.push_back(1e3 * replay_s);
      rest_ms.push_back(1e3 * (push_s - replay_s));
      json_ms.push_back(1e3 * json_s);
      window_ms.push_back(1e3 * (parse_s + push_s + err_s + json_s));
      usable.push_back(estimate.usable);
      ++traced_windows;
      if (estimate.usable) {
        gram_reused += estimate.gram_reused ? 1 : 0;
        warm_started += estimate.warm_started ? 1 : 0;
        iters.push_back(
            detail_count(estimate.inference.solver_detail, "iters"));
      }
    }
    tracer.close(session);
    const bool final_ok = check_final(report, err, batch_err);
    check_windows(report, usable, windows,
                  check_optimum(report, final_estimate, batch) && final_ok);
    unusable = static_cast<std::size_t>(
        std::count(usable.begin(), usable.end(), false));
  });

  double max_diff = 0.0;
  for (std::size_t k = 0; k < final_estimate.congestion_prob.size() &&
                          k < batch.congestion_prob.size();
       ++k) {
    max_diff = std::max(max_diff, std::fabs(final_estimate.congestion_prob[k] -
                                            batch.congestion_prob[k]));
  }

  const double windows_seen = static_cast<double>(traced_windows);
  report.metric("stream.batch_max_link_diff", max_diff, "prob");
  report.metric("stream.window_ms_p90", 1e3 * pct(gaps_s, 90), "ms");
  report.metric("stream.window_samples", static_cast<double>(gaps_s.size()),
                "count");
  report.metric("stream.parse_ms", median(parse_ms), "ms");
  report.metric("stream.push_ms_p50", median(push_ms), "ms");
  report.metric("stream.push_ms_p90", pct(push_ms, 90), "ms");
  report.metric("stream.harvest_replay_ms", median(replay_ms), "ms");
  report.metric("stream.solve_rest_ms", median(rest_ms), "ms");
  report.metric("stream.json_ms", median(json_ms), "ms");
  report.metric("stream.gram_reuse_ratio",
                static_cast<double>(gram_reused) / windows_seen, "ratio");
  report.metric("stream.warm_start_ratio",
                static_cast<double>(warm_started) / windows_seen, "ratio");
  report.metric("stream.nnls_iters_p50", median(iters), "count");
  report.metric("stream.unusable_windows", static_cast<double>(unusable),
                "count");
  report.metric("trace.overhead_frac",
                median(window_ms) / (1e3 * median(gaps_s)) - 1.0, "ratio");
}

}  // namespace perfbench
