/**
 * @file
 * Fork-join loop over an index range — the one host-parallel
 * primitive the world synthesizer uses to build LiDAR scans.
 *
 * Determinism is the caller's contract, not the scheduler's: each
 * body writes only to its own index-placed slot and draws from its
 * own per-index RNG, so the result never depends on which thread ran
 * which index.
 */

#ifndef AVSCOPE_UTIL_PARALLEL_HH
#define AVSCOPE_UTIL_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace av::util {

/**
 * Call @p fn(i) exactly once for every i in [0, n).
 *
 * Runs on T = min(hardware_concurrency(), n) threads, the caller
 * being one of them; thread w takes the strided indices w, w + T,
 * w + 2T, ... With n <= 1 (or one hardware thread) the loop runs
 * inline on the caller.
 *
 * A body that throws stops only its own thread. Every thread is
 * joined before this returns, then the exception of the
 * lowest-numbered failing thread is rethrown on the caller.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

} // namespace av::util

#endif // AVSCOPE_UTIL_PARALLEL_HH
