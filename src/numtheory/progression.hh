/**
 * @file
 * Exact set tests on finite arithmetic progressions of addresses.
 *
 * A constant-stride vector stream over one-word lines touches the
 * lines {base + i*stride : 0 <= i < length}.  Deciding whether two
 * such streams share a line, or whether one lies inside another, is a
 * linear-congruence question (the same one Section 3.2 asks about
 * banks): x == a.first (mod a.step) and x == b.first (mod b.step)
 * inside the overlap of the two spans.  These helpers answer it in
 * O(log step) with no enumeration, which is what lets the CC
 * simulator's first-touch ledger (sim/first_touch.hh) classify a
 * whole stream before it runs.
 *
 * Progressions are kept in a canonical form over exact integers, so
 * a stream whose addresses would wrap past 2^64 (where VectorRef's
 * mod-2^64 arithmetic stops being a progression of integers) is
 * refused up front.
 */

#ifndef VCACHE_NUMTHEORY_PROGRESSION_HH
#define VCACHE_NUMTHEORY_PROGRESSION_HH

#include <cstdint>
#include <optional>

namespace vcache
{

/**
 * The set {first + k*step : 0 <= k < count} of non-negative integers,
 * in canonical form: step >= 1 when count >= 2, step == 0 when count
 * <= 1, and last() fits in 64 bits.  Negative strides are folded into
 * an increasing progression and repeated values (stride 0) into a
 * single point, so two canonical progressions describe the same set
 * exactly when they are equal.
 */
struct Progression
{
    std::uint64_t first = 0;
    std::uint64_t step = 0;
    std::uint64_t count = 0;

    /** Largest member (first when count <= 1). */
    std::uint64_t
    last() const
    {
        return count <= 1 ? first : first + (count - 1) * step;
    }

    bool empty() const { return count == 0; }

    bool operator==(const Progression &) const = default;
};

/**
 * Canonical progression of the values base + i*stride, 0 <= i <
 * length, as exact integers.
 *
 * @return nullopt when some value leaves [0, 2^64), i.e. the mod-2^64
 *         sequence wraps and is not an integer progression
 */
std::optional<Progression> progressionOf(std::uint64_t base,
                                         std::int64_t stride,
                                         std::uint64_t length);

/** True when x is a member of p. */
bool progressionContains(const Progression &p, std::uint64_t x);

/** True when a and b share at least one member. */
bool progressionsIntersect(const Progression &a, const Progression &b);

/** True when every member of inner is a member of outer. */
bool progressionCovers(const Progression &outer,
                       const Progression &inner);

} // namespace vcache

#endif // VCACHE_NUMTHEORY_PROGRESSION_HH
