/**
 * @file
 * Analytic superscalar pipeline model.
 *
 * Converts a kernel's dynamic instruction profile plus its measured
 * L1 miss and branch misprediction rates into cycles-per-instruction.
 * This is the piece that turns the instrumented algorithms' work into
 * simulated CPU time, and it reproduces the IPC column of the paper's
 * Table VII.
 *
 * The model is a first-order stall decomposition:
 *
 *   CPI = 1/peakIpc                      (ideal issue)
 *       + memFrac * memIssueCost         (address dependences, AGUs)
 *       + loadFrac * missRateRd * readMissPenalty    (MLP-discounted)
 *       + storeFrac * missRateWr * writeMissPenalty  (write buffered)
 *       + branchFrac * mispredRate * flushPenalty
 *       + divFrac * divExtraLatency      (unpipelined div/sqrt)
 *
 * Parameters default to a 2019-class 4-wide out-of-order core and are
 * documented in EXPERIMENTS.md.
 */

#ifndef AVSCOPE_UARCH_PIPELINE_HH
#define AVSCOPE_UARCH_PIPELINE_HH

#include "uarch/opcounts.hh"
#include "util/hash.hh"

namespace av::uarch {

/** Tunable stall-model parameters. */
struct PipelineConfig
{
    double peakIpc = 2.5;          ///< sustained issue ceiling
    double memIssueCost = 0.30;    ///< cycles/inst per mem-fraction
    double readMissPenalty = 10.0; ///< effective (MLP folded in)
    double writeMissPenalty = 2.0; ///< mostly hidden by write buffer
    double flushPenalty = 15.0;    ///< pipeline refill on mispredict
    double divExtraLatency = 20.0; ///< unpipelined fdiv/fsqrt
    double simdBonus = 0.5;        ///< SIMD ops retire wider
    /**
     * Fraction of L1 misses that reach DRAM (the rest hit in the
     * L2/LLC). Scales the dramBytes estimate that drives
     * memory-bandwidth interference and memory power.
     */
    double l2MissFactor = 0.30;
};

void
fields(auto &&ar, util::MaybeConst<PipelineConfig> auto &c)
{
    auto &[peakIpc, memIssueCost, readMissPenalty, writeMissPenalty,
           flushPenalty, divExtraLatency, simdBonus, l2MissFactor] = c;
    ar(peakIpc, memIssueCost, readMissPenalty, writeMissPenalty,
       flushPenalty, divExtraLatency, simdBonus, l2MissFactor);
}

/**
 * Pure function object computing CPI from a profile.
 */
class PipelineModel
{
  public:
    explicit PipelineModel(const PipelineConfig &config = PipelineConfig())
        : config_(config)
    {}

    /**
     * Cycles per instruction for work with the given mix and
     * measured memory/branch behaviour.
     *
     * @param ops          dynamic instruction mix
     * @param l1_read_miss L1D read miss rate in [0,1]
     * @param l1_write_miss L1D write miss rate in [0,1]
     * @param br_miss      branch misprediction rate in [0,1]
     */
    double cpi(const OpCounts &ops, double l1_read_miss,
               double l1_write_miss, double br_miss) const;

    /** Total cycles for the profile (cpi * instructions). */
    double cycles(const OpCounts &ops, double l1_read_miss,
                  double l1_write_miss, double br_miss) const;

    const PipelineConfig &config() const { return config_; }

  private:
    PipelineConfig config_;
};

} // namespace av::uarch

#endif // AVSCOPE_UARCH_PIPELINE_HH
