/**
 * @file
 * Abstract dynamic-instruction accounting.
 *
 * Every algorithm in the perception stack reports the operations it
 * executes through these counters. They power two experiments from
 * the paper: the instruction-mix breakdown (Fig. 7) and, combined
 * with the cache/branch models, the IPC estimate of Table VII that
 * converts work into simulated CPU cycles.
 */

#ifndef AVSCOPE_UARCH_OPCOUNTS_HH
#define AVSCOPE_UARCH_OPCOUNTS_HH

#include <cstdint>
#include <string>

namespace av::uarch {

/**
 * Dynamic operation counts of one kernel/invocation/node.
 *
 * Categories follow the paper's Fig. 7 mix (loads, stores, branches,
 * and "other" split into integer/floating-point/etc. classes).
 */
struct OpCounts
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t intAlu = 0;
    std::uint64_t fpAlu = 0;   ///< add/sub/mul treated uniformly
    std::uint64_t fpDiv = 0;   ///< divide/sqrt class (long latency)
    std::uint64_t simd = 0;    ///< packed ops (vectorized kernels)
    std::uint64_t other = 0;   ///< moves, address-gen leftovers

    /** Total dynamic instructions. */
    std::uint64_t total() const
    {
        return loads + stores + branches + intAlu + fpAlu + fpDiv +
               simd + other;
    }

    OpCounts &operator+=(const OpCounts &o);
    OpCounts operator+(const OpCounts &o) const;

    /** Scale all categories by an integer factor (trace expansion). */
    OpCounts scaled(std::uint64_t factor) const;

    /** Fraction of total that are loads+stores; 0 when empty. */
    double memFraction() const;

    /** One-line mix summary, e.g. "ld 32% st 18% br 12% ...". */
    std::string mixString() const;
};

} // namespace av::uarch

#endif // AVSCOPE_UARCH_OPCOUNTS_HH
