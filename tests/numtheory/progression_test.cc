/**
 * Progression set tests against brute force: every (base, stride,
 * length) in a small box, at both ends of the 64-bit address range,
 * with negative strides, stride 0 and lengths 0 and 1 included.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "numtheory/progression.hh"

namespace vcache
{
namespace
{

/** One stream of the box with its members as a bit set. */
struct Case
{
    std::uint64_t base;
    std::int64_t stride;
    std::uint64_t length;
    Progression p;
    /** Bit v set iff origin + v is a member. */
    std::uint64_t members;
};

/**
 * Every stream of the box whose values stay inside [origin, origin +
 * 64) as exact integers; streams that leave [0, 2^64) must be refused
 * and are checked here, the rest are returned.
 */
std::vector<Case>
boxCases(std::uint64_t origin, std::uint64_t base_lo,
         std::uint64_t base_hi)
{
    std::vector<Case> out;
    for (std::uint64_t base = base_lo;; ++base) {
        for (std::int64_t stride = -5; stride <= 5; ++stride) {
            for (std::uint64_t length = 0; length <= 6; ++length) {
                bool wraps = false;
                std::uint64_t members = 0;
                for (std::uint64_t i = 0; i < length; ++i) {
                    const __int128 v =
                        static_cast<__int128>(base) +
                        static_cast<__int128>(stride) *
                            static_cast<__int128>(i);
                    if (v < 0 || v > static_cast<__int128>(
                                         ~std::uint64_t{0})) {
                        wraps = true;
                        break;
                    }
                    const __int128 off =
                        v - static_cast<__int128>(origin);
                    EXPECT_TRUE(off >= 0 && off < 64);
                    members |= std::uint64_t{1}
                               << static_cast<unsigned>(off);
                }
                const auto p = progressionOf(base, stride, length);
                if (wraps) {
                    EXPECT_FALSE(p.has_value())
                        << base << " " << stride << " " << length;
                    continue;
                }
                if (!p.has_value()) {
                    ADD_FAILURE() << "refused a non-wrapping stream "
                                  << base << " " << stride << " "
                                  << length;
                    continue;
                }
                out.push_back({base, stride, length, *p, members});
            }
        }
        if (base == base_hi)
            break;
    }
    return out;
}

void
checkBox(std::uint64_t origin, const std::vector<Case> &cases)
{
    ASSERT_FALSE(cases.empty());
    for (const Case &c : cases) {
        const Progression &p = c.p;
        // Canonical form.
        if (p.count >= 2) {
            EXPECT_GE(p.step, 1u);
        } else {
            EXPECT_EQ(p.step, 0u);
        }
        EXPECT_EQ(p.empty(), c.members == 0);
        for (unsigned v = 0; v < 64; ++v) {
            const bool want = (c.members >> v) & 1u;
            EXPECT_EQ(progressionContains(p, origin + v), want)
                << c.base << " " << c.stride << " " << c.length
                << " value " << origin + v;
        }
    }
    for (const Case &a : cases) {
        for (const Case &b : cases) {
            const bool meet = (a.members & b.members) != 0;
            const bool covers = (b.members & ~a.members) == 0;
            ASSERT_EQ(progressionsIntersect(a.p, b.p), meet)
                << "(" << a.base << "," << a.stride << "," << a.length
                << ") vs (" << b.base << "," << b.stride << ","
                << b.length << ")";
            ASSERT_EQ(progressionCovers(a.p, b.p), covers)
                << "(" << a.base << "," << a.stride << "," << a.length
                << ") covers (" << b.base << "," << b.stride << ","
                << b.length << ")";
            // Canonical forms are equal exactly for equal sets.
            ASSERT_EQ(a.p == b.p, a.members == b.members);
        }
    }
}

TEST(Progression, MatchesBruteForceNearZero)
{
    // Negative strides from small bases must be refused as wrapping
    // below zero.
    checkBox(0, boxCases(0, 0, 24));
}

TEST(Progression, MatchesBruteForceNearTwoToThe64)
{
    // Positive strides from bases just below 2^64 wrap past the top.
    const std::uint64_t top = ~std::uint64_t{0};
    checkBox(top - 63, boxCases(top - 63, top - 24, top));
}

TEST(Progression, RefusesWrapAtExtremeStrides)
{
    const std::uint64_t top = ~std::uint64_t{0};
    EXPECT_FALSE(progressionOf(top, 1, 2).has_value());
    EXPECT_FALSE(progressionOf(0, -1, 2).has_value());
    EXPECT_FALSE(progressionOf(1, INT64_MIN, 2).has_value());
    const auto p = progressionOf(top, INT64_MIN, 2);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->first, top - (std::uint64_t{1} << 63));
    EXPECT_EQ(p->step, std::uint64_t{1} << 63);
    EXPECT_EQ(p->last(), top);
    EXPECT_TRUE(progressionOf(0, INT64_MAX, 3).has_value());
    EXPECT_FALSE(progressionOf(2, INT64_MAX, 3).has_value());
}

TEST(Progression, LargeCoprimeStridesMeetOnlyInsideBothSpans)
{
    // Strides whose lcm overflows 64 bits: the common members are
    // spaced ~2^80 apart, so only x == 0 is shared below 2^64.
    const std::uint64_t s1 = (std::uint64_t{1} << 40) + 15;
    const std::uint64_t s2 = (std::uint64_t{1} << 40) + 9;
    const auto a = progressionOf(0, static_cast<std::int64_t>(s1), 1000);
    const auto b = progressionOf(0, static_cast<std::int64_t>(s2), 1000);
    ASSERT_TRUE(a && b);
    EXPECT_TRUE(progressionsIntersect(*a, *b));
    const auto a1 =
        progressionOf(s1, static_cast<std::int64_t>(s1), 999);
    EXPECT_FALSE(progressionsIntersect(*a1, *b));
    EXPECT_TRUE(progressionCovers(*a, *a1));
    EXPECT_FALSE(progressionCovers(*a1, *a));
    // Stride 6 from 4 meets stride 10 from 0 first at 10, then every
    // 30: 10, 40, 70, ...
    const auto c = progressionOf(4, 6, 2);  // {4, 10}
    const auto d = progressionOf(0, 10, 2); // {0, 10}
    EXPECT_TRUE(progressionsIntersect(*c, *d));
    const auto e = progressionOf(4, 6, 1); // {4}
    EXPECT_FALSE(progressionsIntersect(*e, *d));
}

} // namespace
} // namespace vcache
