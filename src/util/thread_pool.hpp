// The process-wide executor and the deterministic parallel_for on top of it.
//
// Items derive their RNG streams from (seed, index) and write only their
// own slots, so the output is bit-identical however many threads ran. The
// width is a thread's ScopedWidth (default 1): a call at width w runs on
// the caller plus w-1 workers of one persistent pool, started lazily and
// joined at exit. A parallel_for inside the body of a call that fanned out
// runs inline; a call that does not fan out leaves the width to the layers
// below.
#pragma once

#include <cstddef>
#include <functional>

namespace tomo::util {

/// Resolves a `--jobs`-style request into a width: 0 means "all hardware
/// cores" (at least 1); anything else is used as given.
std::size_t resolve_jobs(std::size_t requested);

/// Sets the calling thread's width to resolve_jobs(jobs) for the scope's
/// lifetime and restores the previous width on exit (also when unwinding).
class ScopedWidth {
 public:
  explicit ScopedWidth(std::size_t jobs);
  ~ScopedWidth();

  ScopedWidth(const ScopedWidth&) = delete;
  ScopedWidth& operator=(const ScopedWidth&) = delete;

 private:
  std::size_t saved_;
};

/// The width the next parallel_for on this thread runs at: 1 inside the
/// body of a call that fanned out, else the innermost open scope's width.
std::size_t parallel_width();

/// Runs body(i) for every i in [0, n) on up to min(parallel_width(), n)
/// threads, the caller included. Indices are claimed dynamically, so
/// uneven item costs balance; determinism is the *caller's* contract
/// (write only to slot i). If items throw, every remaining item still
/// runs, and the exception from the lowest index is rethrown once all
/// items have settled.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace tomo::util
