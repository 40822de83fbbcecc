/**
 * @file
 * Gshare branch predictor model.
 *
 * Stands in for the PAPI branch-misprediction counters of Table VII.
 * Instrumented algorithms report the outcome of their *data-dependent*
 * branches (the compare inside SSD's output-layer sort, kd-tree
 * descent direction, clustering frontier tests); loop back-edges and
 * other trivially predictable branches are reported in bulk as
 * predictable so they dilute the rate exactly as a real predictor
 * would absorb them.
 */

#ifndef AVSCOPE_UARCH_BRANCH_HH
#define AVSCOPE_UARCH_BRANCH_HH

#include <cstdint>
#include <vector>

#include "util/hash.hh"

namespace av::uarch {

/** Predictor sizing. */
struct BranchConfig
{
    std::uint32_t tableBits = 12;   ///< 4K two-bit counters
    std::uint32_t historyBits = 12; ///< global history length
};

void
fields(auto &&ar, util::MaybeConst<BranchConfig> auto &c)
{
    auto &[tableBits, historyBits] = c;
    ar(tableBits, historyBits);
}

/** Outcome counters. */
struct BranchStats
{
    std::uint64_t predicted = 0;
    std::uint64_t mispredicted = 0;

    std::uint64_t total() const { return predicted + mispredicted; }
    double missRate() const
    {
        return total() ? static_cast<double>(mispredicted) /
                             static_cast<double>(total())
                       : 0.0;
    }
    BranchStats &operator+=(const BranchStats &o)
    {
        predicted += o.predicted;
        mispredicted += o.mispredicted;
        return *this;
    }
};

/**
 * Classic gshare: global history XOR branch site indexes a table of
 * two-bit saturating counters.
 */
class GsharePredictor
{
  public:
    explicit GsharePredictor(const BranchConfig &config = BranchConfig());

    /**
     * Record one dynamic branch.
     * @param site  static identity of the branch (any stable value)
     * @param taken actual outcome
     * @return true when the prediction was correct
     *
     * Runs once per traced data-dependent branch (every kd-tree
     * node visit, every sort comparison), so it lives here to
     * inline into the instrumented loops.
     */
    bool
    record(std::uint64_t site, bool taken)
    {
        // Fold the 64-bit site down and XOR with history (gshare).
        const std::uint32_t folded = static_cast<std::uint32_t>(
            site ^ (site >> 17) ^ (site >> 31));
        const std::uint32_t index = (folded ^ history_) & tableMask_;
        std::uint8_t &counter = table_[index];
        const bool correct = (counter >= 2) == taken;

        // Saturating two-bit update, written without data-dependent
        // jumps: the outcomes fed here are the unpredictable ones.
        counter = static_cast<std::uint8_t>(
            counter + (taken && counter < 3) - (!taken && counter > 0));
        history_ = ((history_ << 1) | (taken ? 1u : 0u)) & historyMask_;

        stats_.predicted += correct;
        stats_.mispredicted += !correct;
        return correct;
    }

    /**
     * Record @p count statically well-behaved branches (loop
     * back-edges and similar) without simulating them individually;
     * they count as predicted with probability @p accuracy.
     */
    void recordBulkPredictable(std::uint64_t count,
                               double accuracy = 0.999);

    const BranchStats &stats() const { return stats_; }

    void reset();
    void resetStats() { stats_ = BranchStats(); }

  private:
    BranchConfig config_;
    std::vector<std::uint8_t> table_; ///< 2-bit counters
    std::uint32_t history_ = 0;
    std::uint32_t historyMask_;
    std::uint32_t tableMask_;
    BranchStats stats_;
    // Deterministic fractional accounting of bulk accuracy.
    double bulkResidual_ = 0.0;
};

} // namespace av::uarch

#endif // AVSCOPE_UARCH_BRANCH_HH
