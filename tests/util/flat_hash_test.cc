#include "util/flat_hash.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.hh"

namespace
{

using namespace vcache;

TEST(FlatSet, InsertFindErase)
{
    FlatSet<std::uint64_t> set;
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(7));
    EXPECT_FALSE(set.insert(7));
    EXPECT_TRUE(set.contains(7));
    EXPECT_FALSE(set.contains(8));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.erase(7));
    EXPECT_FALSE(set.erase(7));
    EXPECT_TRUE(set.empty());
}

TEST(FlatSet, ClearKeepsWorking)
{
    FlatSet<std::uint64_t> set;
    for (std::uint64_t i = 0; i < 100; ++i)
        set.insert(i);
    set.clear();
    EXPECT_EQ(set.size(), 0u);
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_FALSE(set.contains(i));
    EXPECT_TRUE(set.insert(3));
    EXPECT_EQ(set.size(), 1u);
}

TEST(FlatSet, GrowsAcrossRehash)
{
    FlatSet<std::uint64_t> set;
    constexpr std::uint64_t kN = 10000;
    for (std::uint64_t i = 0; i < kN; ++i)
        EXPECT_TRUE(set.insert(i * 0x10001));
    EXPECT_EQ(set.size(), kN);
    for (std::uint64_t i = 0; i < kN; ++i)
        EXPECT_TRUE(set.contains(i * 0x10001));
    EXPECT_FALSE(set.contains(1));
}

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

/** ~0 is the empty-slot marker, so the real ~0 key lives beside the
 *  table; it must behave like any other key. */
TEST(FlatSet, AllOnesKeyInsertContainsErase)
{
    FlatSet<std::uint64_t> set;
    EXPECT_FALSE(set.contains(kAllOnes));
    EXPECT_FALSE(set.erase(kAllOnes));
    EXPECT_TRUE(set.insert(kAllOnes));
    EXPECT_FALSE(set.insert(kAllOnes));
    EXPECT_TRUE(set.contains(kAllOnes));
    EXPECT_FALSE(set.contains(kAllOnes - 1));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_FALSE(set.empty());
    EXPECT_TRUE(set.insert(kAllOnes - 1));
    EXPECT_EQ(set.size(), 2u);
    EXPECT_TRUE(set.erase(kAllOnes));
    EXPECT_FALSE(set.erase(kAllOnes));
    EXPECT_FALSE(set.contains(kAllOnes));
    EXPECT_TRUE(set.contains(kAllOnes - 1));
    EXPECT_EQ(set.size(), 1u);
    set.insert(kAllOnes);
    set.clear();
    EXPECT_FALSE(set.contains(kAllOnes));
    EXPECT_TRUE(set.empty());
}

TEST(FlatSet, AllOnesKeySurvivesRehash)
{
    FlatSet<std::uint64_t> set;
    EXPECT_TRUE(set.insert(kAllOnes));
    const std::size_t before = set.capacity();
    std::uint64_t n = 0;
    while (set.capacity() == before)
        set.insert(n++);
    EXPECT_TRUE(set.contains(kAllOnes));
    EXPECT_EQ(set.size(), n + 1);
    std::uint64_t visits = 0;
    set.forEach([&](std::uint64_t key) {
        visits += key == kAllOnes ? 1 : 0;
    });
    EXPECT_EQ(visits, 1u);
    EXPECT_TRUE(set.erase(kAllOnes));
    EXPECT_EQ(set.size(), n);
}

TEST(FlatSet, ReserveThenNoGrowth)
{
    FlatSet<std::uint64_t> set;
    set.reserve(1000);
    const std::size_t reserved = set.capacity();
    // Maximum load is 1/2.
    EXPECT_GE(reserved, 2000u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_TRUE(set.insert(i * 0x9e3779b97f4a7c15ull));
    EXPECT_EQ(set.capacity(), reserved);
    // The side-flagged ~0 key takes no slot.
    EXPECT_TRUE(set.insert(kAllOnes));
    EXPECT_EQ(set.capacity(), reserved);
    // Reserving less than the table holds is a no-op; reserving more
    // keeps every key.
    set.reserve(10);
    EXPECT_EQ(set.capacity(), reserved);
    set.reserve(5000);
    EXPECT_GE(set.capacity(), 10000u);
    EXPECT_EQ(set.size(), 1001u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_TRUE(set.contains(i * 0x9e3779b97f4a7c15ull));
    EXPECT_TRUE(set.contains(kAllOnes));
}

TEST(FlatSet, ClearKeepsCapacity)
{
    FlatSet<std::uint64_t> set;
    for (std::uint64_t i = 0; i < 5000; ++i)
        set.insert(i);
    const std::size_t grown = set.capacity();
    set.clear();
    EXPECT_EQ(set.capacity(), grown);
    EXPECT_TRUE(set.empty());
    for (std::uint64_t i = 0; i < 5000; ++i)
        EXPECT_TRUE(set.insert(i + 7));
    EXPECT_EQ(set.capacity(), grown);
}

TEST(FlatMap, OperatorIndexAndFind)
{
    FlatMap<std::uint64_t, int> map;
    map[5] = 50;
    map[6] = 60;
    ASSERT_NE(map.find(5), nullptr);
    EXPECT_EQ(*map.find(5), 50);
    EXPECT_EQ(map.find(7), nullptr);
    map[5] = 51;
    EXPECT_EQ(*map.find(5), 51);
    EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMap, InsertOrAssignReportsFreshness)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.insertOrAssign(1, 10));
    EXPECT_FALSE(map.insertOrAssign(1, 11));
    EXPECT_EQ(*map.find(1), 11);
}

/** Colliding hash: every key lands on one bucket, so every probe
 *  chain is maximal and erase's backward shift is fully exercised. */
struct CollidingHash
{
    std::size_t operator()(std::uint64_t) const { return 0; }
};

TEST(FlatMap, EraseBackwardShiftUnderFullCollision)
{
    FlatMap<std::uint64_t, std::uint64_t, CollidingHash> map;
    for (std::uint64_t k = 0; k < 8; ++k)
        map.insertOrAssign(k, k * 10);
    // Remove from the middle of the single chain, then verify every
    // survivor is still reachable.
    EXPECT_TRUE(map.erase(3));
    EXPECT_TRUE(map.erase(0));
    for (std::uint64_t k = 0; k < 8; ++k) {
        if (k == 3 || k == 0) {
            EXPECT_EQ(map.find(k), nullptr) << k;
        } else {
            ASSERT_NE(map.find(k), nullptr) << k;
            EXPECT_EQ(*map.find(k), k * 10);
        }
    }
    // Reinsertion after the shift keeps the chain consistent.
    EXPECT_TRUE(map.insertOrAssign(3, 33));
    EXPECT_EQ(*map.find(3), 33u);
}

/** Identity hash: key == bucket, so tests can place chains exactly. */
struct IdentityHash
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        return static_cast<std::size_t>(x);
    }
};

/**
 * UB-audit regression (hot-path vectorization review): the erase
 * backward shift compares probe distances with wraparound arithmetic
 * (`(j - home) & mask`).  Pin the case where the probe chain crosses
 * the table-end boundary -- home slots near capacity-1, displaced
 * entries at indices 0 and 1 -- and erase from every position in the
 * wrapped chain.  The probe loop itself is a linear scan with no
 * match masks, so there is no __builtin_ctz-on-zero to misfire; this
 * pins the one place the index arithmetic wraps.
 */
TEST(FlatMap, EraseBackwardShiftAcrossWraparound)
{
    // Table stays at kMinCapacity = 16 below 14 entries; keys 15, 31
    // and 47 all land on bucket 15 (key & 15), so with 14 occupying
    // slot 14 the chain wraps into slots 0 and 1.
    for (std::uint64_t victim : {14ull, 15ull, 31ull, 47ull}) {
        FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
        const std::uint64_t keys[] = {14, 15, 31, 47};
        for (const std::uint64_t k : keys)
            map.insertOrAssign(k, k + 1000);
        EXPECT_TRUE(map.erase(victim));
        EXPECT_FALSE(map.erase(victim));
        for (const std::uint64_t k : keys) {
            if (k == victim) {
                EXPECT_EQ(map.find(k), nullptr) << k;
            } else {
                ASSERT_NE(map.find(k), nullptr)
                    << "lost key " << k << " erasing " << victim;
                EXPECT_EQ(*map.find(k), k + 1000);
            }
        }
        // The survivors' chain still accepts reinsertion and lookup
        // across the boundary.
        EXPECT_TRUE(map.insertOrAssign(victim, 7));
        EXPECT_EQ(*map.find(victim), 7u);
    }
}

/**
 * An entry whose home slot follows the gap around the wrap boundary
 * must NOT be shifted back (its probe distance does not reach the
 * gap); erasing slot 15 with an independent chain at 0 must leave
 * that chain alone.
 */
TEST(FlatMap, EraseAtBoundaryLeavesIndependentChain)
{
    FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map;
    map.insertOrAssign(15, 150);
    map.insertOrAssign(0, 100);
    map.insertOrAssign(16, 200); // 16 & 15 == 0: same home as key 0
    EXPECT_TRUE(map.erase(15));
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 100u);
    ASSERT_NE(map.find(16), nullptr);
    EXPECT_EQ(*map.find(16), 200u);
    EXPECT_EQ(map.find(15), nullptr);
}

/**
 * The key-only FlatSet layout gets the same wraparound pin: keys 15,
 * 31 and 47 share home slot 15, so with 14 in slot 14 the chain wraps
 * into slots 0 and 1 of the 16-slot table (4 keys stay under its 1/2
 * load, so the table does not grow).
 */
TEST(FlatSet, EraseBackwardShiftAcrossWraparound)
{
    const std::uint64_t keys[] = {14, 15, 31, 47};
    for (const std::uint64_t victim : keys) {
        FlatSet<std::uint64_t, IdentityHash> set;
        for (const std::uint64_t k : keys)
            set.insert(k);
        ASSERT_EQ(set.capacity(), 16u);
        EXPECT_TRUE(set.erase(victim));
        EXPECT_FALSE(set.erase(victim));
        for (const std::uint64_t k : keys)
            EXPECT_EQ(set.contains(k), k != victim)
                << "key " << k << " erasing " << victim;
        EXPECT_TRUE(set.insert(victim));
        EXPECT_TRUE(set.contains(victim));
        EXPECT_EQ(set.size(), 4u);
    }

    // An independent chain homed after the gap must stay put.
    FlatSet<std::uint64_t, IdentityHash> set;
    set.insert(15);
    set.insert(0);
    set.insert(16); // 16 & 15 == 0: same home as key 0
    EXPECT_TRUE(set.erase(15));
    EXPECT_TRUE(set.contains(0));
    EXPECT_TRUE(set.contains(16));
    EXPECT_FALSE(set.contains(15));
}

/**
 * Differential test: random interleavings of insert/erase/find/clear
 * against the std containers, with a key range small enough that
 * erases hit and chains overlap, across enough operations to cross
 * several growth rehashes.  The set's key range includes ~0.
 */
TEST(FlatHashDifferential, SetMatchesUnorderedSet)
{
    Rng rng(2024);
    FlatSet<std::uint64_t> flat;
    std::unordered_set<std::uint64_t> ref;

    // The top two draws stand for ~0 (the side-flagged key) and ~0-1
    // (an ordinary key next to the empty marker).
    auto keyOf = [](std::uint64_t draw) {
        return draw >= 4094 ? kAllOnes - (draw - 4094) : draw;
    };
    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = keyOf(rng.uniformInt(0, 4095));
        const std::uint64_t what = rng.uniformInt(0, 99);
        if (what < 55) {
            EXPECT_EQ(flat.insert(key), ref.insert(key).second);
        } else if (what < 85) {
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        } else if (what < 99) {
            EXPECT_EQ(flat.contains(key), ref.count(key) > 0);
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    // Full-content sweep at the end.
    for (std::uint64_t draw = 0; draw < 4096; ++draw)
        EXPECT_EQ(flat.contains(keyOf(draw)), ref.count(keyOf(draw)) > 0);
    std::uint64_t seen = 0;
    flat.forEach([&](std::uint64_t key) {
        ++seen;
        EXPECT_TRUE(ref.count(key)) << key;
    });
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatHashDifferential, MapMatchesUnorderedMap)
{
    Rng rng(77);
    FlatMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    for (int op = 0; op < 200000; ++op) {
        const std::uint64_t key = rng.uniformInt(0, 2047);
        const std::uint64_t what = rng.uniformInt(0, 99);
        if (what < 35) {
            const std::uint64_t value = rng.next();
            EXPECT_EQ(flat.insertOrAssign(key, value),
                      ref.insert_or_assign(key, value).second);
        } else if (what < 55) {
            // operator[] default-constructs on first touch, like std.
            EXPECT_EQ(flat[key], ref[key]);
            const std::uint64_t value = rng.next();
            flat[key] = value;
            ref[key] = value;
        } else if (what < 85) {
            EXPECT_EQ(flat.erase(key), ref.erase(key) > 0);
        } else if (what < 99) {
            const auto *hit = flat.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(hit != nullptr, it != ref.end());
            if (hit) {
                EXPECT_EQ(*hit, it->second);
            }
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size());
    }

    std::uint64_t seen = 0;
    flat.forEach([&](std::uint64_t key, std::uint64_t value) {
        ++seen;
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end()) << key;
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(seen, ref.size());
}

} // namespace
