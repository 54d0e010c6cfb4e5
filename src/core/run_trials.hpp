// Parallel multi-trial experiment engine.
//
// Every figure binary averages independent Monte-Carlo trials; each trial
// is an isolated simulate → infer → score pipeline whose only input is a
// seed. run_trials fans those trials across the executor and returns the
// results in trial order, so callers reduce serially and get bit-identical
// output regardless of the width. Determinism rests on per-trial
// seed derivation: TrialContext::seed(tag) mixes (base seed, tag + trial)
// through mix_seed, giving every trial — and every component inside it —
// its own RNG stream with no shared mutable state.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {

/// Handed to each trial body: the trial index plus deterministic seed
/// derivation. `tag` namespaces independent consumers within one trial
/// (scenario vs. simulator vs. bootstrap), matching the benches'
/// long-standing mix_seed(seed, tag + trial) convention.
struct TrialContext {
  std::size_t trial = 0;
  std::uint64_t base_seed = 0;

  std::uint64_t seed(std::uint64_t tag) const {
    return mix_seed(base_seed, tag + trial);
  }
};

/// One trial's result plus its wall time (measured on the worker, so
/// parallel runs still report honest per-trial cost).
template <typename R>
struct Trial {
  std::size_t index = 0;
  double seconds = 0.0;
  R value{};
};

/// Runs body(ctx) for trials 0..trials-1 at the calling thread's parallel
/// width (util::ScopedWidth) and returns the outcomes in trial order.
/// The body must draw all randomness from ctx.seed(...); under that
/// contract the returned values are independent of the width. Exceptions
/// propagate (lowest trial index wins) after all trials settle.
template <typename Body>
auto run_trials(std::size_t trials, std::uint64_t base_seed, Body&& body)
    -> std::vector<Trial<decltype(body(std::declval<const TrialContext&>()))>> {
  using R = decltype(body(std::declval<const TrialContext&>()));
  std::vector<Trial<R>> out(trials);
  util::parallel_for(trials, [&](std::size_t i) {
    const TrialContext ctx{i, base_seed};
    const Stopwatch stopwatch;
    out[i].value = body(ctx);
    out[i].seconds = stopwatch.seconds();
    out[i].index = i;
  });
  return out;
}

}  // namespace tomo::core
