// Shared plumbing of tomo_perfbench: command-line arguments, the
// result report (metrics, operation counts, correctness checks), the
// in-memory span recorder used by traced runs, and small timing helpers.
//
// Every workload drives the library only through its public headers; the
// spans are recorded here, around those calls, never inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement_block.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace core = tomo::core;
namespace graph = tomo::graph;
namespace sim = tomo::sim;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: core::shrink_for_tests topologies and short traces.
  bool test_scale = false;
};

/// Metrics, operation counts and named correctness checks of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records one evaluation of the named check; returns `ok`. A failing
  /// evaluation also prints `detail` to stderr.
  bool check(const std::string& name, bool ok, const std::string& detail = "");

  /// One unit of work (trial, window, replicate, shard); failed when any
  /// check on it failed.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void operations(std::size_t count, std::size_t failed) {
    attempted_ += count;
    failed_ += failed;
  }

  /// Prints one `check <name> pass|FAIL <evaluations> <failures>` line per
  /// check, then the result object as the last line of stdout.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    std::size_t runs = 0;
    std::size_t fails = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// In-memory span recorder: name, start, end, parent span, workload id.
/// Disabled recorders keep nothing, so the untraced code path is the same
/// calls minus the bookkeeping.
class Tracer {
 public:
  Tracer(std::string workload, bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled). `replay` marks a
  /// call the benchmark re-runs only to time it (its work is not part of
  /// the workload's own pipeline).
  int open(const std::string& name, int parent = -1, bool replay = false);
  void close(int id);

  /// Writes every span as one JSON object per line (nothing when
  /// disabled).
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    bool replay;
    double start;
    double end;
  };
  std::string workload_;
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn()` under a span; returns its wall seconds (also when the
/// tracer is disabled).
template <typename Fn>
double timed(Tracer& tracer, const std::string& name, int parent, Fn&& fn,
             bool replay = false) {
  const int id = tracer.open(name, parent, replay);
  const Clock::time_point t0 = Clock::now();
  fn();
  const double s = seconds_between(t0, Clock::now());
  tracer.close(id);
  return s;
}

/// Host-speed calibration of the untraced single-threaded time metrics.
/// On a shared host the speed of one core swings by a third and more over
/// minutes, so raw wall times of runs minutes apart differ by more than any
/// bound a regression check could use. A gauge runs a fixed calibration
/// loop (the probe: no library code) before the first operation and after
/// each one, and scales the operation's wall time by
/// kProbeReferenceSeconds over the mean of the two probes around it: the
/// time the operation would take on a host where the probe takes its
/// reference time. The probe never changes with the library, so a slower
/// or faster program still moves the scaled time by the same share.
/// Operations on nproc threads are not scaled: the probe does not track
/// them (see README.md, "Host-speed calibration").
constexpr double kProbeReferenceSeconds = 0.016;

/// Wall seconds of one run of the probe on the calling thread.
double run_probe();

class SpeedGauge {
 public:
  /// Warms the probe up and runs the first one.
  SpeedGauge();

  /// Runs the probe and returns the scale for the wall time since the
  /// previous probe: kProbeReferenceSeconds / mean of the two probes.
  double scale();

  /// Median wall seconds of the probes run so far.
  double median_probe_s() const;
  std::size_t probes() const { return probes_s_.size(); }

 private:
  std::vector<double> probes_s_;
};

/// Wall seconds, each with the SpeedGauge scale of the operation it was
/// measured in (1 for an operation that is not scaled).
struct ScaledTimes {
  std::vector<double> wall_s, scale;
  void add(double wall, double k = 1.0) {
    wall_s.push_back(wall);
    scale.push_back(k);
  }
};

/// Reports the untraced speed metrics: latency_ms_p50, the median of the
/// scaled `latency`, and ops_per_s, `ops` over the sum of the scaled
/// `busy` seconds. Prints the sample count and, when `gauge` is given,
/// the same two figures from unscaled wall time and the median probe.
void report_speed(Report& report, const ScaledTimes& latency, double ops,
                  const ScaledTimes& busy, const SpeedGauge* gauge);

/// Median and p-th percentile of a sample (linear interpolation).
double median(std::vector<double> values);
double pct(std::vector<double> values, double p);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// What setup leaves for the measured loop: the scenario, its coverage
/// index and one simulated measurement block. Setup repeats (at least 3
/// times and, at full scale, 2 s) so setup_s, the median of `total_s`
/// scaled by a SpeedGauge, is steady; the last build is kept.
struct Setup {
  core::ScenarioInstance instance;
  std::unique_ptr<graph::CoverageIndex> coverage;
  sim::MeasurementBlock block;
  std::vector<double> total_s, build_s, coverage_s, simulate_s;
};

/// Builds registry scenario `scenario` (at its canonical topology seed;
/// shrunk by core::shrink_for_tests at self-test scale), its coverage
/// index and a simulation under spans;
/// `extra` (may be empty) runs last in each repeat and counts toward
/// total_s. Reports setup_s and the setup layers' per-layer metrics.
Setup run_setup(const Args& args, const std::string& scenario,
                const sim::SimulatorConfig& sim, Tracer& tracer,
                Report& report,
                const std::function<void(Setup&)>& extra = {});

/// Mean absolute error of `estimate` against the instance's ground truth
/// over `population` (the potentially congested links).
double mean_error(const core::ScenarioInstance& instance,
                  const std::vector<double>& estimate,
                  const std::vector<std::size_t>& population);

/// The N of `<key>=N` in a solver detail string (0 when absent).
double detail_count(const std::string& detail, const std::string& key);

/// Keeps running `body(i)` for i = 0, 1, ... until `seconds` of wall time
/// have passed and at least `min_iterations` ran; returns the count.
template <typename Body>
std::size_t run_for(double seconds, std::size_t min_iterations, Body&& body) {
  const Clock::time_point t0 = Clock::now();
  std::size_t i = 0;
  while (i < min_iterations || seconds_between(t0, Clock::now()) < seconds) {
    body(i);
    ++i;
  }
  return i;
}

void run_mesh_batch(const Args& args, Tracer& tracer, Report& report);
void run_stream_replay(const Args& args, Tracer& tracer, Report& report);
void run_shard_hier(const Args& args, Tracer& tracer, Report& report);

/// The bootstrap layer's per-layer metrics and checks, for a traced
/// mesh-batch run on its setup (bootstrap_layer.cpp).
void trace_bootstrap(const Args& args, const Setup& setup, Tracer& tracer,
                     Report& report);

}  // namespace perfbench
