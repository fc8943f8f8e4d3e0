/**
 * Randomized differential suite: every CC execution path against the
 * naive reference model (sim/reference.hh), which tracks first touches
 * in a std::unordered_set and shares no code with the first-touch
 * ledger, the gang probes, the run-batched tiers or the closed forms.
 *
 * Auto, Scalar, gang-off and the shared-trace gang runner all classify
 * first touches through the same ledger, so comparing them with each
 * other cannot catch a ledger bug; comparing each with the reference
 * can.  Every SimResult field and every cache counter must match over
 * a matrix of workloads (VCM at three P_ds, overlapping double
 * streams, negative and zero strides, multistride, a kernel, random
 * ops), cache organizations, miss modes, memory times and bank
 * mappings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/reference.hh"
#include "trace/matmul.hh"
#include "trace/multistride.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"
#include "util/rng.hh"

namespace vcache
{
namespace
{

void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &label)
{
    EXPECT_EQ(got.totalCycles, want.totalCycles) << label;
    EXPECT_EQ(got.stallCycles, want.stallCycles) << label;
    EXPECT_EQ(got.results, want.results) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.misses, want.misses) << label;
    EXPECT_EQ(got.compulsoryMisses, want.compulsoryMisses) << label;
}

void
expectSameStats(const CacheStats &got, const CacheStats &want,
                const std::string &label)
{
    EXPECT_EQ(got.accesses, want.accesses) << label;
    EXPECT_EQ(got.reads, want.reads) << label;
    EXPECT_EQ(got.writes, want.writes) << label;
    EXPECT_EQ(got.hits, want.hits) << label;
    EXPECT_EQ(got.misses, want.misses) << label;
    EXPECT_EQ(got.evictions, want.evictions) << label;
    EXPECT_EQ(got.writebacks, want.writebacks) << label;
}

/** Small caches (128 lines) so every workload also conflicts. */
std::vector<std::pair<std::string, CacheConfig>>
caches()
{
    std::vector<std::pair<std::string, CacheConfig>> out;
    CacheConfig direct;
    direct.indexBits = 7;
    out.emplace_back("direct", direct);

    CacheConfig prime = direct;
    prime.organization = Organization::PrimeMapped;
    out.emplace_back("prime", prime);

    CacheConfig assoc = direct;
    assoc.organization = Organization::SetAssociative;
    assoc.associativity = 4;
    out.emplace_back("4-way", assoc);

    CacheConfig xor_mapped = direct;
    xor_mapped.organization = Organization::XorMapped;
    out.emplace_back("xor", xor_mapped);

    // Two-word lines: the ledger must fall back to its set.
    CacheConfig wide = direct;
    wide.offsetBits = 1;
    out.emplace_back("direct-2word", wide);
    return out;
}

/**
 * Memory times below and above the fixed strip start-up (stripOverhead
 * + startupBase = 45 cycles), and a machine with no fixed start-up at
 * all, where each strip's start-up equals t_m: the boundary of the
 * closed form's banks-are-free-at-every-strip condition.
 */
std::vector<std::pair<std::string, MachineParams>>
machines()
{
    std::vector<std::pair<std::string, MachineParams>> out;
    for (const BankMapping mapping :
         {BankMapping::LowOrder, BankMapping::Skewed,
          BankMapping::PrimeModulo}) {
        const std::string m =
            mapping == BankMapping::LowOrder
                ? "low"
                : (mapping == BankMapping::Skewed ? "skewed" : "prime");
        MachineParams p;
        p.bankBits = 4;
        p.bankMapping = mapping;
        p.memoryTime = 8;
        out.emplace_back(m + "/tm8", p);
        p.memoryTime = 96;
        out.emplace_back(m + "/tm96", p);
        p.memoryTime = 24;
        p.stripOverhead = 0.0;
        p.startupBase = 0.0;
        out.emplace_back(m + "/tm24-no-overhead", p);
    }
    return out;
}

Trace
vcmTrace(double pds, std::uint64_t seed)
{
    VcmParams p;
    p.blockingFactor = 160;
    p.reuseFactor = 4;
    p.blocks = 3;
    p.pDoubleStream = pds;
    p.maxStride = 200;
    return generateVcmTrace(p, seed);
}

/** Double streams a few words apart with equal strides, repeated. */
Trace
overlappingDoubles(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace;
    for (int k = 0; k < 8; ++k) {
        const std::int64_t s =
            static_cast<std::int64_t>(rng.uniformInt(1, 5));
        const Addr base = rng.uniformInt(0, 2000);
        VectorOp op;
        op.first = VectorRef{base, s, 150};
        op.second = VectorRef{base + rng.uniformInt(0, 3) *
                                         static_cast<Addr>(s),
                              s, 120};
        trace.push_back(op);
        trace.push_back(op);
        // The same streams in the other roles.
        VectorOp swapped;
        swapped.first = *op.second;
        swapped.second = op.first;
        trace.push_back(swapped);
    }
    return trace;
}

/** Negative, zero and mixed-sign strides, with repeats and stores. */
Trace
negativeAndZeroStrides(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace;
    for (int k = 0; k < 10; ++k) {
        VectorOp op;
        const Addr base = 4000 + rng.uniformInt(0, 3000);
        const std::int64_t s1 =
            -static_cast<std::int64_t>(rng.uniformInt(0, 9));
        op.first = VectorRef{base, s1, rng.uniformInt(64, 200)};
        if (rng.bernoulli(0.5)) {
            const std::int64_t s2 =
                static_cast<std::int64_t>(rng.uniformInt(0, 12)) - 6;
            op.second =
                VectorRef{base - rng.uniformInt(0, 400), s2,
                          rng.uniformInt(1, 200)};
        }
        if (rng.bernoulli(0.3))
            op.store = VectorRef{9000, 1, op.first.length};
        trace.push_back(op);
        if (rng.bernoulli(0.5))
            trace.push_back(op);
    }
    return trace;
}

Trace
multistrideTrace(std::uint64_t seed)
{
    MultistrideParams p{200, 6, 0.25, 200, 0, 3};
    MultistrideTraceSource source(p, seed);
    Trace trace;
    VectorOp op;
    while (source.next(op))
        trace.push_back(op);
    return trace;
}

Trace
kernelTrace(std::uint64_t seed)
{
    MatmulParams p;
    p.n = 32;
    p.b = 8;
    p.baseA = seed * 7;
    return generateMatmulTrace(p);
}

/**
 * Random ops: any base, stride in [-40, 40], length up to 300 (so
 * both sides of the ledger's short-stream cutoff), optional second
 * stream and store, and frequent exact repeats.
 */
Trace
randomOps(std::uint64_t seed)
{
    Rng rng(seed);
    Trace trace;
    for (int k = 0; k < 24; ++k) {
        if (!trace.empty() && rng.bernoulli(0.3)) {
            trace.push_back(trace.back());
            continue;
        }
        VectorOp op;
        const auto stride = [&] {
            return static_cast<std::int64_t>(rng.uniformInt(0, 80)) -
                   40;
        };
        op.first = VectorRef{rng.uniformInt(20000, 30000), stride(),
                             rng.uniformInt(0, 300)};
        if (rng.bernoulli(0.4))
            op.second = VectorRef{rng.uniformInt(20000, 30000),
                                  stride(), rng.uniformInt(0, 300)};
        if (rng.bernoulli(0.2))
            op.store = VectorRef{0, 1, rng.uniformInt(1, 64)};
        trace.push_back(op);
    }
    return trace;
}

struct Workload
{
    std::string name;
    Trace (*make)(std::uint64_t seed);
};

Trace vcm0(std::uint64_t seed) { return vcmTrace(0.0, seed); }
Trace vcm02(std::uint64_t seed) { return vcmTrace(0.2, seed); }
Trace vcm1(std::uint64_t seed) { return vcmTrace(1.0, seed); }

class ReferenceDifferential : public ::testing::TestWithParam<Workload>
{
};

TEST_P(ReferenceDifferential, EveryPathMatchesTheReference)
{
    const Workload &w = GetParam();
    for (const std::uint64_t seed : {3u, 17u}) {
        const Trace trace = w.make(seed);
        ASSERT_FALSE(trace.empty());
        for (const auto &[cname, config] : caches()) {
            for (const auto &[mname, machine] : machines()) {
                for (const bool non_blocking : {false, true}) {
                    const std::string label =
                        w.name + " seed " + std::to_string(seed) + " " +
                        cname + " " + mname +
                        (non_blocking ? " non-blocking" : " blocking");

                    ReferenceCcSimulator ref(machine, config);
                    ref.setNonBlockingMisses(non_blocking);
                    const SimResult want = ref.run(trace);

                    for (const SimEngine engine :
                         {SimEngine::Auto, SimEngine::Scalar}) {
                        for (const bool gang : {true, false}) {
                            CcSimulator sim(machine, config);
                            sim.setNonBlockingMisses(non_blocking);
                            sim.setEngine(engine);
                            sim.setGangReplay(gang);
                            const std::string path =
                                label +
                                (engine == SimEngine::Auto ? " auto"
                                                           : " scalar") +
                                (gang ? "" : " gang-off");
                            expectSameResult(sim.run(trace), want, path);
                            expectSameStats(sim.cache().stats(),
                                            ref.cache().stats(), path);
                        }
                    }

                    // The gang runner models blocking misses only; one
                    // of its lanes runs this machine's t_m.
                    if (non_blocking)
                        continue;
                    const GangLane lanes[] = {
                        GangLane{machine.memoryTime, nullptr},
                        GangLane{machine.memoryTime + 5, nullptr}};
                    TraceVectorSource source(trace);
                    const auto got =
                        simulateCcGang(machine, config, source, lanes);
                    ASSERT_EQ(got.size(), 2u);
                    for (std::size_t i = 0; i < 2; ++i) {
                        MachineParams lane_machine = machine;
                        lane_machine.memoryTime = lanes[i].memoryTime;
                        ReferenceCcSimulator lane_ref(lane_machine,
                                                      config);
                        ASSERT_TRUE(got[i].ok()) << label;
                        expectSameResult(got[i].value(),
                                         lane_ref.run(trace),
                                         label + " gang lane " +
                                             std::to_string(i));
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ReferenceDifferential,
    ::testing::Values(Workload{"vcm-pds0", vcm0},
                      Workload{"vcm-pds0.2", vcm02},
                      Workload{"vcm-pds1", vcm1},
                      Workload{"overlapping-doubles", overlappingDoubles},
                      Workload{"negative-zero-strides",
                               negativeAndZeroStrides},
                      Workload{"multistride", multistrideTrace},
                      Workload{"matmul", kernelTrace},
                      Workload{"random-ops", randomOps}),
    [](const ::testing::TestParamInfo<Workload> &info) {
        std::string name = info.param.name;
        for (char &c : name)
            if (c == '-' || c == '.')
                c = '_';
        return name;
    });

} // namespace
} // namespace vcache
