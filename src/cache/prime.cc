#include "cache/prime.hh"

#include "util/logging.hh"

namespace vcache
{

PrimeMappedCache::PrimeMappedCache(const AddressLayout &layout,
                                   bool require_prime)
    : Cache(layout, "prime-mapped"),
      tags_(mersenne(layout.indexBits()))
{
    if (require_prime) {
        vc_assert(isMersenneExponent(layout.indexBits()),
                  "2^", layout.indexBits(),
                  " - 1 is not a Mersenne prime; pick c from "
                  "{2,3,5,7,13,17,19,31}");
    }
}

void
PrimeMappedCache::reset()
{
    Cache::reset();
    tags_.invalidateAll();
}

bool
PrimeMappedCache::verifySteadyRun(Addr base, std::int64_t stride,
                                  std::uint64_t length) const
{
    if (length == 0)
        return true;
    // Mod-(2^c - 1) periodicity only holds for the true integer
    // progression: one word per line, no 2^64 wraparound.
    if (layout_.offsetBits() != 0 ||
        !spansWithoutWrap(base, stride, length))
        return false;
    const std::uint64_t period =
        steadyRunPeriod(tags_.size(), stride);
    const std::uint64_t distinct = period < length ? period : length;
    // Last element of each residue class, stepped without a divide
    // per frame (see the direct-mapped twin).
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
        if (stride != 0 && r + period < length && tags_.flags(f) != 0)
            return false;
    }
    return true;
}

bool
PrimeMappedCache::appendRunState(Addr base, std::int64_t stride,
                                 std::uint64_t length,
                                 std::vector<std::uint64_t> &out) const
{
    if (length == 0)
        return true;
    if (layout_.offsetBits() != 0 ||
        !spansWithoutWrap(base, stride, length))
        return false;
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
