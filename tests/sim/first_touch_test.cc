/**
 * First-touch ledger (sim/first_touch.hh): classification soundness
 * against a brute-force touched set, every fallback condition, and
 * the guarantee that the paper-default workload is classified without
 * a fallback -- so a change that silently sends it back to the
 * per-element set fails here instead of only running slower.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "sim/cc_sim.hh"
#include "sim/first_touch.hh"
#include "sim/reference.hh"
#include "trace/vcm.hh"
#include "util/rng.hh"

namespace vcache
{
namespace
{

CacheConfig
smallDirect(unsigned offset_bits = 0)
{
    CacheConfig config;
    config.indexBits = 10;
    config.offsetBits = offset_bits;
    return config;
}

VectorOp
single(Addr base, std::int64_t stride, std::uint64_t length)
{
    VectorOp op;
    op.first = VectorRef{base, stride, length};
    return op;
}

TEST(FirstTouchLedger, ClassifiesFreshCoveredAndLookup)
{
    const auto cache = makeCache(smallDirect());
    FirstTouchLedger ledger(*cache);

    EXPECT_EQ(ledger.classify(single(1000, 3, 300)).first,
              StreamClass::Fresh);
    // Inside the recorded progression: every other member from 1030.
    EXPECT_EQ(ledger.classify(single(1030, 6, 64)).first,
              StreamClass::Covered);
    // Decreasing over the same set.
    EXPECT_EQ(ledger.classify(single(1897, -3, 300)).first,
              StreamClass::Covered);
    // Shares 1000 + 3k lines with it but leaves it.
    EXPECT_EQ(ledger.classify(single(1000, 1, 100)).first,
              StreamClass::Lookup);
    // Disjoint residue class: fresh.
    EXPECT_EQ(ledger.classify(single(2001, 3, 100)).first,
              StreamClass::Fresh);
    // Stride 0 repeats one line: never fresh.
    EXPECT_EQ(ledger.classify(single(50000, 0, 100)).first,
              StreamClass::Lookup);

    // Partners that overlap each other both look up; disjoint
    // partners stay fresh.
    VectorOp pair = single(70000, 2, 100);
    pair.second = VectorRef{70010, 2, 100};
    OpClasses c = ledger.classify(pair);
    EXPECT_EQ(c.first, StreamClass::Lookup);
    EXPECT_EQ(c.second, StreamClass::Lookup);
    pair = single(80000, 2, 100);
    pair.second = VectorRef{80001, 2, 100};
    c = ledger.classify(pair);
    EXPECT_EQ(c.first, StreamClass::Fresh);
    EXPECT_EQ(c.second, StreamClass::Fresh);

    EXPECT_EQ(ledger.stats().fallbacks, 0u);
    EXPECT_TRUE(ledger.classifying());
    EXPECT_EQ(ledger.stats().freshStreams, 4u);
    EXPECT_EQ(ledger.stats().coveredStreams, 2u);
    EXPECT_EQ(ledger.stats().lookupStreams, 4u);
}

/** Classify `op` and expect the ledger to have fallen back. */
void
expectFallback(FirstTouchLedger &ledger, const VectorOp &op,
               const std::string &why)
{
    const OpClasses c = ledger.classify(op);
    EXPECT_EQ(c.first, StreamClass::Lookup) << why;
    EXPECT_FALSE(ledger.classifying()) << why;
    EXPECT_EQ(ledger.stats().fallbacks, 1u) << why;
    // Fallback is for good: a stream it would have classified Fresh
    // now looks up too.
    EXPECT_EQ(ledger.classify(single(900000, 1, 100)).first,
              StreamClass::Lookup)
        << why;
    EXPECT_EQ(ledger.stats().fallbacks, 1u) << why;
    ledger.clear();
    EXPECT_TRUE(ledger.classifying()) << why;
    EXPECT_EQ(ledger.stats().fallbacks, 0u) << why;
}

TEST(FirstTouchLedger, EveryFallbackConditionFires)
{
    {
        const auto wide = makeCache(smallDirect(2));
        FirstTouchLedger ledger(*wide);
        expectFallback(ledger, single(0, 1, 100), "wide lines");
    }
    const auto cache = makeCache(smallDirect());
    FirstTouchLedger ledger(*cache);
    expectFallback(ledger, single(~Addr{0} - 10, 1, 100), "wrap");
    expectFallback(ledger, single(0, -1, 100), "wrap below zero");
    expectFallback(
        ledger,
        single(0, 1, FirstTouchLedger::kMinStreamElements - 1),
        "short stream");

    for (std::size_t i = 0; i < FirstTouchLedger::kMaxProgressions;
         ++i) {
        EXPECT_EQ(ledger.classify(single(i * 1000, 1, 100)).first,
                  StreamClass::Fresh);
    }
    EXPECT_TRUE(ledger.classifying());
    // Repeats are covered and add nothing.
    EXPECT_EQ(ledger.classify(single(0, 1, 100)).first,
              StreamClass::Covered);
    expectFallback(ledger, single(999999, 1, 100), "progression cap");

    ledger.seed({1, 2, 3});
    EXPECT_FALSE(ledger.classifying());
    EXPECT_FALSE(ledger.insert(2));
    EXPECT_TRUE(ledger.insert(4));
}

TEST(FirstTouchLedger, FallbackKeepsEveryTouchedLine)
{
    const auto cache = makeCache(smallDirect());
    FirstTouchLedger ledger(*cache);
    ASSERT_EQ(ledger.classify(single(100, 7, 200)).first,
              StreamClass::Fresh);
    ledger.fallBack();
    for (std::uint64_t i = 0; i < 200; ++i)
        EXPECT_FALSE(ledger.insert(100 + 7 * i)) << i;
    EXPECT_TRUE(ledger.insert(101));
}

/**
 * Random op sequences against a std::set of touched lines: a Fresh
 * stream must be untouched and repeat-free and disjoint from its
 * partner, a Covered stream wholly touched, and a Lookup stream's
 * per-element inserts must report exactly the first touches.  forEach
 * must enumerate the touched set exactly once per line.
 */
TEST(FirstTouchLedger, RandomOpsMatchBruteForce)
{
    const auto cache = makeCache(smallDirect());
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        FirstTouchLedger ledger(*cache);
        std::set<Addr> touched;
        std::vector<VectorOp> ops;
        for (int k = 0; k < 30; ++k) {
            VectorOp op;
            if (!ops.empty() && rng.bernoulli(0.3)) {
                op = ops[rng.uniformInt(0, ops.size() - 1)];
            } else {
                const auto ref = [&] {
                    return VectorRef{
                        rng.uniformInt(5000, 7000),
                        static_cast<std::int64_t>(rng.uniformInt(0, 8)) -
                            4,
                        rng.uniformInt(60, 200)};
                };
                op.first = ref();
                if (rng.bernoulli(0.5))
                    op.second = ref();
            }
            ops.push_back(op);

            const OpClasses c = ledger.classify(op);
            const std::uint64_t len2 =
                op.second ? std::min(op.second->length, op.first.length)
                          : 0;
            const auto linesOf = [](const VectorRef &r,
                                    std::uint64_t len) {
                std::vector<Addr> v;
                for (std::uint64_t i = 0; i < len; ++i)
                    v.push_back(r.element(i));
                return v;
            };
            const std::vector<Addr> l1 =
                linesOf(op.first, op.first.length);
            const std::vector<Addr> l2 =
                op.second ? linesOf(*op.second, len2)
                          : std::vector<Addr>{};
            const auto check = [&](StreamClass cls,
                                   const std::vector<Addr> &mine,
                                   const std::vector<Addr> &other) {
                const std::set<Addr> own(mine.begin(), mine.end());
                if (cls == StreamClass::Fresh) {
                    EXPECT_EQ(own.size(), mine.size()) << seed;
                    for (const Addr a : mine) {
                        EXPECT_FALSE(touched.count(a)) << seed;
                        for (const Addr b : other)
                            EXPECT_NE(a, b) << seed;
                    }
                } else if (cls == StreamClass::Covered) {
                    for (const Addr a : mine)
                        EXPECT_TRUE(touched.count(a)) << seed;
                }
            };
            check(c.first, l1, l2);
            if (op.second)
                check(c.second, l2, l1);

            // The element loop's interleaving: first then second.
            for (std::uint64_t i = 0; i < op.first.length; ++i) {
                const Addr a = l1[i];
                if (c.first == StreamClass::Lookup) {
                    EXPECT_EQ(ledger.insert(a), !touched.count(a))
                        << seed;
                }
                touched.insert(a);
                if (i < len2) {
                    const Addr b = l2[i];
                    if (c.second == StreamClass::Lookup) {
                        EXPECT_EQ(ledger.insert(b), !touched.count(b))
                            << seed;
                    }
                    touched.insert(b);
                }
            }
        }
        std::multiset<Addr> seen;
        ledger.forEach([&](Addr a) { seen.insert(a); });
        EXPECT_EQ(seen, std::multiset<Addr>(touched.begin(),
                                            touched.end()))
            << seed;
    }
}

/** The CC trace of the paper-default evaluatePoint request. */
Trace
paperDefaultTrace(std::uint64_t seed)
{
    VcmParams p;
    p.blockingFactor = 1024;
    p.reuseFactor = 8;
    p.pDoubleStream = 0.2;
    p.blocks = 2;
    p.maxStride = 8192;
    return generateVcmTrace(p, seed);
}

/** True when the op's two streams share a line. */
bool
partnersOverlap(const VectorOp &op)
{
    if (!op.second)
        return false;
    std::set<Addr> first;
    for (std::uint64_t i = 0; i < op.first.length; ++i)
        first.insert(op.first.element(i));
    const std::uint64_t len2 =
        std::min(op.second->length, op.first.length);
    for (std::uint64_t i = 0; i < len2; ++i)
        if (first.count(op.second->element(i)))
            return true;
    return false;
}

TEST(FirstTouchLedger, PaperDefaultWorkloadNeverFallsBack)
{
    const MachineParams machine; // the CC geometry of the paper point
    const std::uint64_t reuse = 8;
    for (const std::uint64_t seed :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 7919u}) {
        const Trace trace = paperDefaultTrace(seed);
        const auto cache =
            makeCache(ccCacheConfig(machine, CacheScheme::Direct));
        FirstTouchLedger ledger(*cache);
        std::uint64_t fresh_firsts = 0;
        for (std::size_t k = 0; k < trace.size(); ++k) {
            const OpClasses c = ledger.classify(trace[k]);
            const std::string where = "seed " + std::to_string(seed) +
                                      " op " + std::to_string(k);
            if (k % reuse == 0) {
                // A block's first pass is fresh unless its own
                // partner stream overlaps it.
                EXPECT_EQ(c.first, partnersOverlap(trace[k])
                                       ? StreamClass::Lookup
                                       : StreamClass::Fresh)
                    << where;
                fresh_firsts += c.first == StreamClass::Fresh;
            } else {
                EXPECT_EQ(c.first, StreamClass::Covered) << where;
            }
            // Lookup streams insert their elements as they run.
            const VectorOp &op = trace[k];
            for (std::uint64_t i = 0; i < op.first.length; ++i) {
                if (c.first == StreamClass::Lookup)
                    ledger.insert(op.first.element(i));
                if (op.second && i < op.second->length &&
                    c.second == StreamClass::Lookup)
                    ledger.insert(op.second->element(i));
            }
        }
        EXPECT_EQ(ledger.stats().fallbacks, 0u) << seed;

        // The simulators see the same classes: no fallback on either
        // scheme or engine, and the results match the reference.
        for (const CacheScheme scheme :
             {CacheScheme::Direct, CacheScheme::Prime}) {
            ReferenceCcSimulator ref(machine,
                                     ccCacheConfig(machine, scheme));
            const SimResult want = ref.run(trace);
            for (const SimEngine engine :
                 {SimEngine::Auto, SimEngine::Scalar}) {
                CcSimulator sim(machine, scheme);
                sim.setEngine(engine);
                const SimResult got = sim.run(trace);
                EXPECT_EQ(got.totalCycles, want.totalCycles) << seed;
                EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses)
                    << seed;
                const FirstTouchStats &s = sim.firstTouchStats();
                EXPECT_EQ(s.fallbacks, 0u) << seed;
                EXPECT_EQ(s.fallbackStreams, 0u) << seed;
                if (engine == SimEngine::Scalar) {
                    // Every op runs element-wise and is classified.
                    EXPECT_GE(s.freshStreams, fresh_firsts) << seed;
                    EXPECT_GE(s.coveredStreams,
                              trace.size() - trace.size() / reuse)
                        << seed;
                }
            }
        }
    }
}

} // namespace
} // namespace vcache
