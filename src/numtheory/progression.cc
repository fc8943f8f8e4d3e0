#include "numtheory/progression.hh"

#include <utility>

namespace vcache
{

namespace
{

using u128 = unsigned __int128;
using i128 = __int128;

/**
 * Inverse of a modulo m for coprime a < m (m >= 1), by extended
 * Euclid: 64-bit remainders, and Bezout coefficients in 128 bits,
 * where they stay within (-m, m) and need no division.
 */
std::uint64_t
inverseMod(std::uint64_t a, std::uint64_t m)
{
    std::uint64_t old_r = a, r = m;
    i128 old_x = 1, x = 0;
    while (r != 0) {
        const std::uint64_t q = old_r / r;
        old_r = std::exchange(r, old_r - q * r);
        old_x = std::exchange(x, old_x - static_cast<i128>(q) * x);
    }
    if (old_x < 0)
        old_x += m;
    return static_cast<std::uint64_t>(old_x) % m;
}

std::uint64_t
gcd64(std::uint64_t a, std::uint64_t b)
{
    while (b != 0)
        a = std::exchange(b, a % b);
    return a;
}

} // namespace

std::optional<Progression>
progressionOf(std::uint64_t base, std::int64_t stride,
              std::uint64_t length)
{
    if (length == 0)
        return Progression{};
    if (stride == 0 || length == 1)
        return Progression{base, 0, 1};
    const i128 end = static_cast<i128>(base) +
                     static_cast<i128>(stride) *
                         static_cast<i128>(length - 1);
    if (end < 0 || end > static_cast<i128>(~std::uint64_t{0}))
        return std::nullopt;
    // A decreasing stream visits the same set as the increasing one
    // that starts from its far end.
    if (stride < 0) {
        return Progression{static_cast<std::uint64_t>(end),
                           static_cast<std::uint64_t>(-(stride + 1)) + 1,
                           length};
    }
    return Progression{base, static_cast<std::uint64_t>(stride), length};
}

bool
progressionContains(const Progression &p, std::uint64_t x)
{
    if (p.count == 0 || x < p.first || x > p.last())
        return false;
    return p.count == 1 || (x - p.first) % p.step == 0;
}

bool
progressionsIntersect(const Progression &a, const Progression &b)
{
    if (a.count == 0 || b.count == 0)
        return false;
    if (a.count == 1)
        return progressionContains(b, a.first);
    if (b.count == 1)
        return progressionContains(a, b.first);
    const std::uint64_t lo = a.first > b.first ? a.first : b.first;
    const std::uint64_t a_last = a.last();
    const std::uint64_t b_last = b.last();
    const std::uint64_t hi = a_last < b_last ? a_last : b_last;
    if (lo > hi)
        return false;

    // Common members solve x == a.first (mod a.step), x == b.first
    // (mod b.step): solvable iff g = gcd(steps) divides the offset,
    // and then periodic with L = lcm(steps).  All divisions stay in
    // 64 bits; only products widen.
    const std::uint64_t g = gcd64(a.step, b.step);
    const bool below = b.first < a.first;
    const std::uint64_t dist =
        below ? a.first - b.first : b.first - a.first;
    if (dist % g != 0)
        return false;
    // x = a.first + a.step * k with a.step * k == b.first - a.first
    // (mod b.step), i.e. (a.step/g) * k == (b.first - a.first)/g
    // (mod m).
    const std::uint64_t m = b.step / g;
    std::uint64_t rhs = dist / g % m;
    if (below && rhs != 0)
        rhs = m - rhs;
    const std::uint64_t k = static_cast<std::uint64_t>(
        static_cast<u128>(rhs) * inverseMod(a.step / g % m, m) % m);
    const u128 period = static_cast<u128>(a.step) * m;
    // x lies in [a.first, a.first + period), so it is the smallest
    // common value at or above a.first; step up to lo if needed.
    u128 x = static_cast<u128>(a.first) + static_cast<u128>(a.step) * k;
    if (x < lo) {
        const std::uint64_t gap = lo - static_cast<std::uint64_t>(x);
        if (period >= gap) {
            x += period;
        } else {
            const std::uint64_t p = static_cast<std::uint64_t>(period);
            x += static_cast<u128>(gap / p + (gap % p != 0)) * p;
        }
    }
    return x <= hi;
}

bool
progressionCovers(const Progression &outer, const Progression &inner)
{
    if (inner.count == 0)
        return true;
    if (inner.count == 1)
        return progressionContains(outer, inner.first);
    // inner has two or more distinct members from here on.
    return outer.count >= 2 && inner.step % outer.step == 0 &&
           inner.last() <= outer.last() &&
           progressionContains(outer, inner.first);
}

} // namespace vcache
