/**
 * @file
 * The stepped forms of evaluatePoint/evaluateBatch, the scalar
 * oracle, and the per-layer probe shared by the VCM workloads.
 */

#include "analytic/model.hh"
#include "bench.hh"
#include "cache/direct.hh"
#include "cache/prime.hh"
#include "sim/cc_sim.hh"
#include "sim/gang.hh"
#include "sim/mm_sim.hh"
#include "sim/runner.hh"
#include "trace/source.hh"
#include "trace/vcm.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

constexpr std::uint64_t kCcMaxStride = 8192;

/** The three analytic figures, one span per evaluate() call. */
void
steppedModels(const EvalRequest &req, EvalResult &out)
{
    const MachineParams machine = evalMachine(req);
    const WorkloadParams workload = evalWorkload(req);
    {
        Tracer::Scope s("analytic.evaluate");
        out.modelMm =
            evaluate(MachineKind::MemoryOnly, machine, workload)
                .cyclesPerResult;
    }
    {
        Tracer::Scope s("analytic.evaluate");
        out.modelDirect =
            evaluate(MachineKind::DirectCache, machine, workload)
                .cyclesPerResult;
    }
    {
        Tracer::Scope s("analytic.evaluate");
        out.modelPrime =
            evaluate(MachineKind::PrimeCache, machine, workload)
                .cyclesPerResult;
    }
}

void
steppedValidate(const EvalRequest &req)
{
    Tracer::Scope s("validate");
    if (auto valid = validateEvalRequest(req); !valid.ok())
        throw VcError(valid.error());
}

VcmParams
vcmFor(const EvalRequest &req, std::uint64_t max_stride)
{
    // evaluatePoint's workload (sim/evaluate.cc vcmPoint): R = 8
    // passes over 2 blocks of B elements.
    VcmParams p;
    p.blockingFactor = req.blockingFactor;
    p.reuseFactor = 8;
    p.pDoubleStream = req.pDoubleStream;
    p.blocks = 2;
    p.maxStride = max_stride;
    return p;
}

void
fillSimFigures(EvalResult &out)
{
    out.simMm = out.mm.cyclesPerResult();
    out.simDirect = out.direct.cyclesPerResult();
    out.simPrime = out.prime.cyclesPerResult();
}

} // namespace

EvalResult
stepPoint(const EvalRequest &req, std::uint64_t rid,
          PointTraces *traces)
{
    Tracer::Scope root("steps.point", rid);
    steppedValidate(req);
    EvalResult out;
    steppedModels(req, out);
    if (!req.sim)
        return out;

    const MachineParams machine = evalMachine(req);
    PointTraces local;
    PointTraces &t = traces ? *traces : local;
    {
        Tracer::Scope s("trace.gen");
        t.mm = generateVcmTrace(vcmFor(req, machine.banks()), req.seed);
    }
    {
        Tracer::Scope s("sim.mm");
        TraceVectorSource source(t.mm);
        out.mm = simulateMm(machine, source, nullptr, req.engine);
    }
    {
        Tracer::Scope s("trace.gen");
        t.cc = generateVcmTrace(vcmFor(req, kCcMaxStride), req.seed);
    }
    TraceVectorSource cc_source(t.cc);
    {
        Tracer::Scope s("sim.cc_direct");
        out.direct = simulateCc(machine, CacheScheme::Direct, cc_source,
                                nullptr, req.engine);
    }
    cc_source.reset();
    {
        Tracer::Scope s("sim.cc_prime");
        out.prime = simulateCc(machine, CacheScheme::Prime, cc_source,
                               nullptr, req.engine);
    }
    fillSimFigures(out);
    return out;
}

std::vector<EvalResult>
stepBatch(std::span<const EvalRequest> reqs, std::uint64_t rid)
{
    Tracer::Scope root("steps.batch", rid);
    std::vector<EvalResult> out(reqs.size());
    for (const EvalRequest &req : reqs)
        steppedValidate(req);
    for (std::size_t k = 0; k < reqs.size(); ++k)
        steppedModels(reqs[k], out[k]);

    TraceArena arena;
    {
        Tracer::Scope s("trace.gen");
        arena = buildTraceArena(reqs.front());
    }
    std::vector<GangLane> lanes;
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        Tracer::Scope s("sim.mm");
        TraceVectorSource source(arena.mm);
        out[k].mm = simulateMm(evalMachine(reqs[k]), source, nullptr,
                               reqs[k].engine);
        lanes.push_back(GangLane{reqs[k].memoryTime, nullptr});
    }
    const MachineParams base = evalMachine(reqs.front());
    TraceVectorSource cc_source(arena.cc);
    std::vector<Expected<SimResult>> direct, prime;
    {
        Tracer::Scope s("sim.gang_direct");
        direct = simulateCcGang(base, CacheScheme::Direct, cc_source,
                                lanes);
    }
    cc_source.reset();
    {
        Tracer::Scope s("sim.gang_prime");
        prime = simulateCcGang(base, CacheScheme::Prime, cc_source,
                               lanes);
    }
    for (std::size_t k = 0; k < reqs.size(); ++k) {
        out[k].direct = direct[k].value();
        out[k].prime = prime[k].value();
        fillSimFigures(out[k]);
    }
    return out;
}

bool
sameSim(const SimResult &a, const SimResult &b)
{
    return a.totalCycles == b.totalCycles &&
           a.stallCycles == b.stallCycles && a.results == b.results &&
           a.hits == b.hits && a.misses == b.misses &&
           a.compulsoryMisses == b.compulsoryMisses;
}

bool
sameResult(const EvalResult &a, const EvalResult &b)
{
    return a.modelMm == b.modelMm && a.modelDirect == b.modelDirect &&
           a.modelPrime == b.modelPrime && a.simMm == b.simMm &&
           a.simDirect == b.simDirect && a.simPrime == b.simPrime &&
           sameSim(a.mm, b.mm) && sameSim(a.direct, b.direct) &&
           sameSim(a.prime, b.prime) && a.mmCi == b.mmCi &&
           a.directCi == b.directCi && a.primeCi == b.primeCi;
}

MachineRuns
oracleRuns(const MachineParams &machine, const Trace &mm, const Trace &cc)
{
    MachineRuns out;
    MmSimulator mm_sim(machine);
    mm_sim.setEngine(SimEngine::Scalar);
    mm_sim.setGangReplay(false);
    out.mm = mm_sim.run(mm);
    for (const CacheScheme scheme :
         {CacheScheme::Direct, CacheScheme::Prime}) {
        CcSimulator cc_sim(machine, scheme);
        cc_sim.setEngine(SimEngine::Scalar);
        cc_sim.setGangReplay(false);
        (scheme == CacheScheme::Direct ? out.direct : out.prime) =
            cc_sim.run(cc);
    }
    return out;
}

bool
sameRuns(const MachineRuns &a, const MachineRuns &b)
{
    return sameSim(a.mm, b.mm) && sameSim(a.direct, b.direct) &&
           sameSim(a.prime, b.prime);
}

EvalResult
oracleEval(const EvalRequest &req)
{
    EvalResult out;
    const MachineParams machine = evalMachine(req);
    const WorkloadParams workload = evalWorkload(req);
    out.modelMm = evaluate(MachineKind::MemoryOnly, machine, workload)
                      .cyclesPerResult;
    out.modelDirect =
        evaluate(MachineKind::DirectCache, machine, workload)
            .cyclesPerResult;
    out.modelPrime = evaluate(MachineKind::PrimeCache, machine, workload)
                         .cyclesPerResult;
    if (!req.sim)
        return out;

    const MachineRuns runs = oracleRuns(
        machine, generateVcmTrace(vcmFor(req, machine.banks()), req.seed),
        generateVcmTrace(vcmFor(req, kCcMaxStride), req.seed));
    out.mm = runs.mm;
    out.direct = runs.direct;
    out.prime = runs.prime;
    fillSimFigures(out);
    return out;
}

void
accumulate(SimResult &into, const SimResult &r)
{
    into.totalCycles += r.totalCycles;
    into.stallCycles += r.stallCycles;
    into.results += r.results;
    into.hits += r.hits;
    into.misses += r.misses;
    into.compulsoryMisses += r.compulsoryMisses;
}

void
publishSimStats(Report &report, const SimResult &mm,
                const SimResult &direct, const SimResult &prime)
{
    report.set("sim.mm.cycles_per_result", mm.cyclesPerResult(),
               "cycles");
    report.set("sim.cc_direct.cycles_per_result",
               direct.cyclesPerResult(), "cycles");
    report.set("sim.cc_prime.cycles_per_result", prime.cyclesPerResult(),
               "cycles");
    report.set("cache.cc_direct.miss_ratio", direct.missRatio(), "ratio");
    report.set("cache.cc_prime.miss_ratio", prime.missRatio(), "ratio");
    report.set("memory.mm.stall_frac",
               mm.totalCycles ? static_cast<double>(mm.stallCycles) /
                                    static_cast<double>(mm.totalCycles)
                              : 0.0,
               "ratio");
}

// ---------------------------------------------------------------------
// SimProbe.
// ---------------------------------------------------------------------

void
SimProbe::add(const EvalRequest &req, const EvalResult &stepped,
              const PointTraces &t, Report &report)
{
    ++n;
    mmOps += t.mm.size();
    ccOps += t.cc.size();
    mmElements += totalElements(t.mm);
    ccElements += totalElements(t.cc);
    accumulate(mm, stepped.mm);
    accumulate(direct, stepped.direct);
    accumulate(prime, stepped.prime);
    auto gap = [](double sim, double model) {
        return model != 0.0 ? std::abs(sim - model) / model : 0.0;
    };
    gapMm += gap(stepped.simMm, stepped.modelMm);
    gapDirect += gap(stepped.simDirect, stepped.modelDirect);
    gapPrime += gap(stepped.simPrime, stepped.modelPrime);

    // Re-time the same simulator calls under both engines, Auto and
    // Scalar back to back so both see the same cache warmth.
    const MachineParams machine = evalMachine(req);
    bool same = true;
    for (const SimEngine engine : {SimEngine::Auto, SimEngine::Scalar}) {
        const bool scalar = engine == SimEngine::Scalar;
        double mm_ns = 0.0, cc_ns = 0.0;
        {
            Tracer::Scope s(scalar ? "probe.sim.mm.scalar"
                                   : "probe.sim.mm.auto");
            TraceVectorSource source(t.mm);
            SimResult r;
            mm_ns = cpuNs([&] {
                r = simulateMm(machine, source, nullptr, engine);
            });
            same = same && sameSim(r, stepped.mm);
        }
        TraceVectorSource cc_source(t.cc);
        for (const CacheScheme scheme :
             {CacheScheme::Direct, CacheScheme::Prime}) {
            Tracer::Scope s(scalar ? "probe.sim.cc.scalar"
                                   : "probe.sim.cc.auto");
            cc_source.reset();
            SimResult r;
            cc_ns += cpuNs([&] {
                r = simulateCc(machine, scheme, cc_source, nullptr,
                               engine);
            });
            same = same && sameSim(r, scheme == CacheScheme::Direct
                                          ? stepped.direct
                                          : stepped.prime);
        }
        (scalar ? scalarMmNs : autoMmNs) += mm_ns;
        (scalar ? scalarCcNs : autoCcNs) += cc_ns;
    }
    report.verify(same, "Auto and Scalar simulator results differ, "
                        "seed " + std::to_string(req.seed));

    // Functional cache replay of the CC trace (no timing model); the
    // prime figure includes the Mersenne index computation.
    const AddressLayout layout(0, machine.cacheIndexBits, 32);
    {
        Tracer::Scope s("probe.cache.direct");
        DirectMappedCache cache(layout);
        cacheDirectNs +=
            cpuNs([&] { runTraceThroughCache(cache, t.cc); });
    }
    {
        Tracer::Scope s("probe.cache.prime");
        PrimeMappedCache cache(layout);
        cachePrimeNs +=
            cpuNs([&] { runTraceThroughCache(cache, t.cc); });
    }
}

void
SimProbe::publish(Report &report, std::int64_t from, std::int64_t to,
                  double units) const
{
    if (n == 0)
        return;
    const auto layers = Tracer::get().layers(from, to);
    auto self_us = [&](const char *name) {
        const auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.selfCpuNs / 1e3 / units;
    };
    const double pts = static_cast<double>(n);
    report.set("trace.gen_us", self_us("trace.gen"), "us");
    report.set("trace.ops", static_cast<double>(mmOps + ccOps) / pts,
               "count");
    report.set("trace.elements",
               static_cast<double>(mmElements + ccElements) / pts,
               "count");
    report.set("analytic.model_us", self_us("analytic.evaluate"), "us");
    report.set("sim.mm_us", self_us("sim.mm"), "us");
    report.set("sim.cc_direct_us", self_us("sim.cc_direct"), "us");
    report.set("sim.cc_prime_us", self_us("sim.cc_prime"), "us");
    report.set("sim.mm.elements_per_us",
               static_cast<double>(mmElements) / (autoMmNs / 1e3),
               "1/us");
    report.set("sim.cc.elements_per_us",
               2.0 * static_cast<double>(ccElements) / (autoCcNs / 1e3),
               "1/us");
    report.set("sim.mm.auto_over_scalar", scalarMmNs / autoMmNs, "ratio");
    report.set("sim.cc.auto_over_scalar", scalarCcNs / autoCcNs, "ratio");
    report.set("cache.direct.access_ns",
               cacheDirectNs / static_cast<double>(ccElements), "ns");
    report.set("cache.prime.access_ns",
               cachePrimeNs / static_cast<double>(ccElements), "ns");
    publishSimStats(report, mm, direct, prime);
    report.set("analytic.gap_mm", gapMm / pts, "ratio");
    report.set("analytic.gap_direct", gapDirect / pts, "ratio");
    report.set("analytic.gap_prime", gapPrime / pts, "ratio");
}

} // namespace perfbench
