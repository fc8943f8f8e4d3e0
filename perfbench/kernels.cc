/**
 * @file
 * Workload `kernels`: the structured traces behind tab_algorithms,
 * fig11 and fig12 -- blocked matmul and LU (n=256, b=64), the 2-D FFT
 * (256x256) and the row/column mix -- each generated, then replayed
 * through simulateMm and simulateCc (direct and prime) on one thread.
 * It uses the simulators the opposite way from `point`: the FFT is
 * ~130k short ops, where per-op overhead dominates, and trace
 * generation is a real share of the time.
 */

#include <cmath>
#include <functional>

#include "analytic/model.hh"
#include "analytic/presets.hh"
#include "bench.hh"
#include "cache/direct.hh"
#include "cache/prime.hh"
#include "core/defaults.hh"
#include "sim/runner.hh"
#include "trace/fft.hh"
#include "trace/lu.hh"
#include "trace/matmul.hh"
#include "trace/matrix_access.hh"
#include "trace/source.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

constexpr int kWindows = 10;

enum Stream : std::uint64_t
{
    kBase = 6,
    kRowCol = 7,
};

struct Kernel
{
    const char *name;
    std::function<Trace()> generate;
    /** The kernel as a VCM tuple, for the analytic gap. */
    WorkloadParams model;
};

/** The four kernels; the seed places each one's data in memory. */
std::vector<Kernel>
kernelSuite(std::uint64_t seed)
{
    auto base = [&](std::uint64_t k) {
        return static_cast<Addr>(mixSeed(seed, kBase, k) % (1u << 20));
    };
    RowColumnMixParams rowcol;
    rowcol.shape = MatrixShape{1024, 1024, base(3)};
    rowcol.rowFraction = 0.5;
    rowcol.operations = 2048;
    rowcol.length = 256;
    const std::uint64_t rowcol_seed = mixSeed(seed, kRowCol, 0);
    return {
        {"matmul",
         [=] {
             return generateMatmulTrace(MatmulParams{256, 64, base(0), 0});
         },
         matmulWorkload(64, 256)},
        {"lu", [=] { return generateLuTrace(LuParams{256, 64, base(1)}); },
         luWorkload(64, 256)},
        {"fft",
         [=] { return generateFft2dTrace(Fft2dParams{256, 256, base(2)}); },
         fftWorkload(256, 65536)},
        {"rowcol",
         [=] { return generateRowColumnMix(rowcol, rowcol_seed); },
         rowColumnWorkload(4096, 64, 65536)},
    };
}

MachineParams
kernelMachine()
{
    MachineParams machine = paperMachineM64();
    machine.memoryTime = 32; // tab_algorithms' and fig11's machine
    return machine;
}

MachineRuns
replay(const MachineParams &machine, const Trace &trace, SimEngine engine)
{
    MachineRuns r;
    TraceVectorSource source(trace);
    {
        Tracer::Scope s("sim.mm");
        r.mm = simulateMm(machine, source, nullptr, engine);
    }
    source.reset();
    {
        Tracer::Scope s("sim.cc_direct");
        r.direct = simulateCc(machine, CacheScheme::Direct, source, nullptr,
                              engine);
    }
    source.reset();
    {
        Tracer::Scope s("sim.cc_prime");
        r.prime = simulateCc(machine, CacheScheme::Prime, source, nullptr,
                             engine);
    }
    return r;
}

} // namespace

void
runKernels(const Options &opts, Report &report)
{
    const MachineParams machine = kernelMachine();
    std::vector<Kernel> suite;
    std::vector<std::uint64_t> elements; // per kernel
    std::vector<MachineRuns> first;      // pass 0, per kernel
    std::vector<std::size_t> ops;

    // One pass: generate and replay every kernel.  Pass 0 keeps its
    // results; later passes must reproduce them exactly.
    auto pass = [&](std::uint64_t rid) {
        Tracer::Scope root("kernels.pass", rid);
        const bool keep = first.empty();
        for (std::size_t k = 0; k < suite.size(); ++k) {
            Trace trace;
            {
                Tracer::Scope s("trace.gen");
                trace = suite[k].generate();
            }
            const MachineRuns r = replay(machine, trace, SimEngine::Auto);
            if (keep) {
                first.push_back(r);
                elements.push_back(totalElements(trace));
                ops.push_back(trace.size());
            } else {
                report.verify(sameRuns(r, first[k]),
                              std::string(suite[k].name) +
                                  " replay differs from the first pass");
            }
        }
    };

    report.set("setup_s", medianSetupSeconds(3, [&](int) {
                   suite = kernelSuite(opts.seed);
                   first.clear();
                   elements.clear();
                   ops.clear();
                   pass(0);
               }),
               "s");
    double pass_elements = 0.0;
    for (const std::uint64_t e : elements)
        pass_elements += 3.0 * static_cast<double>(e);

    std::uint64_t next = 0;
    auto window = [&](double seconds, Windows &w) {
        std::vector<double> lat;
        const auto t0 = Clock::now();
        const std::int64_t cpu0 = threadCpuNs();
        while (secondsSince(t0) < seconds) {
            const std::int64_t a = threadCpuNs();
            pass(++next);
            lat.push_back(static_cast<double>(threadCpuNs() - a) / 1e6);
            report.attempted += 3 * suite.size();
        }
        const double passes = static_cast<double>(lat.size());
        w.add(passes, static_cast<double>(threadCpuNs() - cpu0) / 1e9,
              std::move(lat));
    };

    const double replays = 3.0 * static_cast<double>(suite.size());
    if (!opts.trace) {
        Windows w;
        for (int win = 0; win < kWindows; ++win)
            window(opts.seconds / kWindows, w);
        const Windows::Figures q = w.quiet();
        report.set("units_per_s", pass_elements * q.rate, "1/s");
        report.set("max_rps", replays * q.rate, "1/s");
        report.set("p50_ms", q.p50, "ms");
        report.set("p99_ms", q.p99, "ms");
    } else {
        Tracer &tracer = Tracer::get();
        tracer.nameThread("kernels");
        Windows plain, traced;
        std::int64_t from = 0, to = 0;
        for (int win = 0; win < 2 * kWindows; ++win) {
            const bool on = win % 2 == 1;
            tracer.enable(on);
            if (on && from == 0)
                from = nowNs();
            window(0.6 * opts.seconds / (2 * kWindows), on ? traced : plain);
            to = nowNs();
        }
        tracer.enable(false);
        report.set("obs.trace_overhead_frac",
                   plain.quiet().rate / traced.quiet().rate - 1.0,
                   "ratio");

        const auto layers = tracer.layers(from, to);
        const double passes =
            static_cast<double>(layers.at("kernels.pass").count);
        auto self_ns = [&](const char *name) {
            return layers.at(name).selfCpuNs;
        };
        std::uint64_t total_ops = 0, total_elements = 0;
        for (std::size_t k = 0; k < suite.size(); ++k) {
            total_ops += ops[k];
            total_elements += elements[k];
        }
        const double el = static_cast<double>(total_elements) * passes;
        report.set("trace.gen_us", self_ns("trace.gen") / 1e3 / passes,
                   "us");
        report.set("trace.ops", static_cast<double>(total_ops), "count");
        report.set("trace.elements", static_cast<double>(total_elements),
                   "count");
        report.set("sim.mm_us", self_ns("sim.mm") / 1e3 / passes, "us");
        report.set("sim.cc_direct_us",
                   self_ns("sim.cc_direct") / 1e3 / passes, "us");
        report.set("sim.cc_prime_us", self_ns("sim.cc_prime") / 1e3 / passes,
                   "us");
        report.set("sim.mm.elements_per_us", el / (self_ns("sim.mm") / 1e3),
                   "1/us");
        report.set("sim.cc.elements_per_us",
                   2.0 * el /
                       ((self_ns("sim.cc_direct") + self_ns("sim.cc_prime")) /
                        1e3),
                   "1/us");

        // Probe: each kernel once more under Auto and Scalar, the
        // functional caches, the model and the simulated statistics.
        double auto_mm = 0, scalar_mm = 0, auto_cc = 0, scalar_cc = 0;
        double cache_direct = 0, cache_prime = 0, model_ns = 0;
        double gap_mm = 0, gap_direct = 0, gap_prime = 0;
        SimResult mm, direct, prime;
        const AddressLayout layout(0, machine.cacheIndexBits, 32);
        tracer.enable(true);
        for (std::size_t k = 0; k < suite.size(); ++k) {
            const Trace trace = suite[k].generate();
            for (const SimEngine engine :
                 {SimEngine::Auto, SimEngine::Scalar}) {
                TraceVectorSource source(trace);
                SimResult r;
                const double mm_ns = cpuNs([&] {
                    Tracer::Scope s("probe.sim.mm");
                    r = simulateMm(machine, source, nullptr, engine);
                });
                double cc_ns = 0.0;
                for (const CacheScheme scheme :
                     {CacheScheme::Direct, CacheScheme::Prime}) {
                    source.reset();
                    cc_ns += cpuNs([&] {
                        Tracer::Scope s("probe.sim.cc");
                        r = simulateCc(machine, scheme, source, nullptr,
                                       engine);
                    });
                }
                (engine == SimEngine::Auto ? auto_mm : scalar_mm) += mm_ns;
                (engine == SimEngine::Auto ? auto_cc : scalar_cc) += cc_ns;
            }
            {
                Tracer::Scope s("probe.cache.direct");
                DirectMappedCache cache(layout);
                cache_direct +=
                    cpuNs([&] { runTraceThroughCache(cache, trace); });
            }
            {
                Tracer::Scope s("probe.cache.prime");
                PrimeMappedCache cache(layout);
                cache_prime +=
                    cpuNs([&] { runTraceThroughCache(cache, trace); });
            }
            double model[3] = {};
            const MachineKind kinds[3] = {MachineKind::MemoryOnly,
                                          MachineKind::DirectCache,
                                          MachineKind::PrimeCache};
            for (int m = 0; m < 3; ++m) {
                Tracer::Scope s("analytic.evaluate");
                model_ns += cpuNs([&] {
                    model[m] = evaluate(kinds[m], machine, suite[k].model)
                                   .cyclesPerResult;
                });
            }
            const MachineRuns &r = first[k];
            auto gap = [](double sim, double m) {
                return m != 0.0 ? std::abs(sim - m) / m : 0.0;
            };
            gap_mm += gap(r.mm.cyclesPerResult(), model[0]);
            gap_direct += gap(r.direct.cyclesPerResult(), model[1]);
            gap_prime += gap(r.prime.cyclesPerResult(), model[2]);
            accumulate(mm, r.mm);
            accumulate(direct, r.direct);
            accumulate(prime, r.prime);
        }
        tracer.enable(false);
        const double kernels = static_cast<double>(suite.size());
        report.set("sim.mm.auto_over_scalar", scalar_mm / auto_mm, "ratio");
        report.set("sim.cc.auto_over_scalar", scalar_cc / auto_cc, "ratio");
        report.set("cache.direct.access_ns",
                   cache_direct / static_cast<double>(total_elements), "ns");
        report.set("cache.prime.access_ns",
                   cache_prime / static_cast<double>(total_elements), "ns");
        report.set("analytic.model_us", model_ns / 1e3 / kernels, "us");
        report.set("analytic.gap_mm", gap_mm / kernels, "ratio");
        report.set("analytic.gap_direct", gap_direct / kernels, "ratio");
        report.set("analytic.gap_prime", gap_prime / kernels, "ratio");
        publishSimStats(report, mm, direct, prime);
    }

    // Verification, outside the timed region: pass 0 against the
    // scalar, gang-off oracle.
    for (std::size_t k = 0; k < suite.size(); ++k) {
        const Trace trace = suite[k].generate();
        report.verify(sameRuns(oracleRuns(machine, trace, trace), first[k]),
                      std::string(suite[k].name) +
                          " differs from the scalar oracle");
    }
    report.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace perfbench
