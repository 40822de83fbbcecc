#include "uarch/branch.hh"

#include "util/logging.hh"

namespace av::uarch {

GsharePredictor::GsharePredictor(const BranchConfig &config)
    : config_(config)
{
    AV_ASSERT(config_.tableBits >= 4 && config_.tableBits <= 24,
              "gshare table bits out of range");
    AV_ASSERT(config_.historyBits <= 32, "history too long");
    table_.assign(std::size_t(1) << config_.tableBits, 1); // weakly NT
    historyMask_ = config_.historyBits >= 32
                       ? ~0u
                       : ((1u << config_.historyBits) - 1);
    tableMask_ = (1u << config_.tableBits) - 1;
}

void
GsharePredictor::recordBulkPredictable(std::uint64_t count,
                                       double accuracy)
{
    const double expected_miss =
        static_cast<double>(count) * (1.0 - accuracy) + bulkResidual_;
    const std::uint64_t misses =
        static_cast<std::uint64_t>(expected_miss);
    bulkResidual_ = expected_miss - static_cast<double>(misses);
    stats_.mispredicted += misses;
    stats_.predicted += count - misses;
}

void
GsharePredictor::reset()
{
    table_.assign(table_.size(), 1);
    history_ = 0;
    stats_ = BranchStats();
    bulkResidual_ = 0.0;
}

} // namespace av::uarch
