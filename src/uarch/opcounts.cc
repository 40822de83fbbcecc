#include "uarch/opcounts.hh"

#include <sstream>

namespace av::uarch {

OpCounts &
OpCounts::operator+=(const OpCounts &o)
{
    loads += o.loads;
    stores += o.stores;
    branches += o.branches;
    intAlu += o.intAlu;
    fpAlu += o.fpAlu;
    fpDiv += o.fpDiv;
    simd += o.simd;
    other += o.other;
    return *this;
}

OpCounts
OpCounts::operator+(const OpCounts &o) const
{
    OpCounts out = *this;
    out += o;
    return out;
}

OpCounts
OpCounts::scaled(std::uint64_t factor) const
{
    OpCounts out = *this;
    out.loads *= factor;
    out.stores *= factor;
    out.branches *= factor;
    out.intAlu *= factor;
    out.fpAlu *= factor;
    out.fpDiv *= factor;
    out.simd *= factor;
    out.other *= factor;
    return out;
}

double
OpCounts::memFraction() const
{
    const std::uint64_t t = total();
    if (t == 0)
        return 0.0;
    return static_cast<double>(loads + stores) / static_cast<double>(t);
}

std::string
OpCounts::mixString() const
{
    const double t = static_cast<double>(total());
    if (t == 0.0)
        return "(empty)";
    std::ostringstream os;
    const auto pct = [&](std::uint64_t v) {
        return static_cast<int>(100.0 * static_cast<double>(v) / t + 0.5);
    };
    os << "ld " << pct(loads) << "% st " << pct(stores) << "% br "
       << pct(branches) << "% int " << pct(intAlu) << "% fp "
       << pct(fpAlu + fpDiv) << "% simd " << pct(simd) << "% other "
       << pct(other) << "%";
    return os.str();
}

} // namespace av::uarch
