#include "cache/direct.hh"

namespace vcache
{

DirectMappedCache::DirectMappedCache(const AddressLayout &layout)
    : Cache(layout, "direct-mapped"),
      tags_(std::uint64_t{1} << layout.indexBits())
{
}

void
DirectMappedCache::reset()
{
    Cache::reset();
    tags_.invalidateAll();
}

bool
DirectMappedCache::verifySteadyRun(Addr base, std::int64_t stride,
                                   std::uint64_t length) const
{
    if (length == 0)
        return true;
    // The period/distinctness arguments need one word per line and a
    // non-wrapping progression.
    if (layout_.offsetBits() != 0 ||
        !spansWithoutWrap(base, stride, length))
        return false;
    const std::uint64_t period =
        steadyRunPeriod(tags_.size(), stride);
    const std::uint64_t distinct = period < length ? period : length;
    // Frame r must hold the last element of residue class r: r
    // itself when the run is no longer than one period; otherwise r +
    // q*period for the classes up to (length - 1) mod period and one
    // period less after them.  One divide serves every class, and the
    // address steps by `stride` (wrap-free mod 2^64 arithmetic: every
    // address is a true member of the run).
    std::uint64_t last = 0;
    std::uint64_t cut = distinct;
    if (period < length) {
        last = (length - 1) / period * period;
        cut = length - last;
    }
    const Addr step = static_cast<Addr>(stride);
    Addr addr = base + step * last;
    for (std::uint64_t r = 0; r < distinct; ++r, addr += step) {
        if (r == cut)
            addr -= step * period;
        const std::uint64_t f = frameOf(addr);
        if (!tags_.resident(f, addr))
            return false;
        // Classes with two or more distinct addresses get their frame
        // refilled on replay; a flag bit there would mean a writeback
        // or a flag change, breaking the fixed point.
        if (stride != 0 && r + period < length && tags_.flags(f) != 0)
            return false;
    }
    return true;
}

bool
DirectMappedCache::appendRunState(Addr base, std::int64_t stride,
                                  std::uint64_t length,
                                  std::vector<std::uint64_t> &out) const
{
    if (length == 0)
        return true;
    if (layout_.offsetBits() != 0 ||
        !spansWithoutWrap(base, stride, length))
        return false;
    // The frame-index sequence repeats with the gcd period, so the
    // first min(length, period) elements index every frame the run
    // can touch.
    const std::uint64_t period =
        steadyRunPeriod(tags_.size(), stride);
    const std::uint64_t distinct = period < length ? period : length;
    for (std::uint64_t r = 0; r < distinct; ++r) {
        const Addr addr = static_cast<Addr>(
            static_cast<std::int64_t>(base) +
            stride * static_cast<std::int64_t>(r));
        const std::uint64_t f = frameOf(addr);
        out.push_back(f);
        out.push_back(tags_.valid(f));
        out.push_back(tags_.lineOrZero(f));
        out.push_back(tags_.flags(f));
    }
    return true;
}

} // namespace vcache
