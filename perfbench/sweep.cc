/**
 * @file
 * Workload `sweep`: the sweep_grid surface of 192 points (banks
 * {32, 64} x t_m 4..64 step 4 x B 256..8192) with a shared seed per
 * surface, so each (m, B) column is a 16-member workload group,
 * evaluated through runCsvSweepBatched on at most nproc workers over
 * a sequence of base seeds.  Here evaluateBatch/simulateCcGang do
 * almost all CC work, which the `point` workload never reaches.
 */

#include <algorithm>
#include <atomic>
#include <map>

#include "bench.hh"
#include "sim/sweep.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

constexpr int kWindows = 10;
/** Rows re-checked against solo evaluatePoint per sampled surface. */
constexpr std::size_t kRowsPerSample = 4;
/** Every kSurfaceStride-th surface is sampled. */
constexpr std::uint64_t kSurfaceStride = 8;

enum Stream : std::uint64_t
{
    kMeasured = 3,
    kWarmup = 4,
    kProbe = 5,
};

struct GridPoint
{
    unsigned bankBits;
    std::uint64_t memoryTime;
    std::uint64_t blockingFactor;
};

/** The sweep_grid surface, in its grid order. */
std::vector<GridPoint>
surfaceGrid()
{
    std::vector<GridPoint> grid;
    for (const unsigned bank_bits : {5u, 6u})
        for (std::uint64_t tm = 4; tm <= 64; tm += 4)
            for (std::uint64_t b = 256; b <= 8192; b *= 2)
                grid.push_back({bank_bits, tm, b});
    return grid;
}

EvalRequest
requestFor(const GridPoint &g, std::uint64_t seed)
{
    EvalRequest req;
    req.bankBits = g.bankBits;
    req.memoryTime = g.memoryTime;
    req.blockingFactor = g.blockingFactor;
    req.seed = seed;
    return req;
}

/** One CSV row holding every figure and counter of a result. */
CsvRow
rowFor(const EvalResult &r)
{
    CsvRow row{"ok",
               canonicalDouble(r.modelMm),
               canonicalDouble(r.modelDirect),
               canonicalDouble(r.modelPrime),
               canonicalDouble(r.simMm),
               canonicalDouble(r.simDirect),
               canonicalDouble(r.simPrime)};
    for (const SimResult *s : {&r.mm, &r.direct, &r.prime}) {
        for (const std::uint64_t v :
             {s->totalCycles, s->stallCycles, s->results, s->hits,
              s->misses, s->compulsoryMisses})
            row.push_back(std::to_string(v));
    }
    return row;
}

/**
 * Surface runner.  Besides the rows it measures each surface's
 * critical path: the largest CPU time any one worker spent in the
 * sweep's callbacks.  Workers claim groups until none are left, so
 * none idles before the end, and the busiest worker's CPU time is the
 * surface's latency without the time the host's hypervisor withheld.
 */
class Surface
{
  public:
    Surface(unsigned jobs)
        : grid(surfaceGrid()), jobs(jobs), workerCpuNs(jobs)
    {
        std::map<std::string, std::size_t> group_of;
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const std::string key = workloadKey(requestFor(grid[i], 1));
            const auto [it, fresh] =
                group_of.try_emplace(key, groups.size());
            if (fresh)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }

    /** Evaluate the whole surface for one base seed. */
    CsvSweepResult
    run(std::uint64_t seed, std::uint64_t rid)
    {
        Tracer::Scope span("sweep.surface", rid);
        for (auto &ns : workerCpuNs)
            ns = 0;
        SweepOptions opts;
        opts.jobs = jobs;
        opts.seed = seed;
        opts.progress = false;
        opts.label = "perfbench";
        auto result = runCsvSweepBatched(
            grid.size(),
            [&](std::size_t i, SweepWorker &w) {
                Tracer::Scope s("sweep.point", rid);
                const auto t0 = nowNs();
                const auto c0 = threadCpuNs();
                const EvalResult r =
                    evaluatePoint(requestFor(grid[i], seed), &w.cancel)
                        .value();
                workerCpuNs[w.id] += threadCpuNs() - c0;
                busyNs += nowNs() - t0;
                return rowFor(r);
            },
            [&](std::span<const std::size_t> members, SweepWorker &w) {
                Tracer::Scope s("sweep.group", rid);
                const auto t0 = nowNs();
                const auto c0 = threadCpuNs();
                std::vector<EvalRequest> reqs;
                for (const std::size_t i : members)
                    reqs.push_back(requestFor(grid[i], seed));
                const auto results = evaluateBatch(reqs, {}, &w.cancel);
                std::vector<std::optional<CsvRow>> rows(members.size());
                for (std::size_t k = 0; k < members.size(); ++k)
                    if (results[k].ok())
                        rows[k] = rowFor(results[k].value());
                workerCpuNs[w.id] += threadCpuNs() - c0;
                busyNs += nowNs() - t0;
                return rows;
            },
            [&](const PointFailure &f) {
                return CsvRow{"failed:" +
                              std::string(errcName(f.error.code))};
            },
            groups, opts);
        return std::move(result).value();
    }

    /** Critical path of the last surface, in ms of CPU time. */
    double
    criticalMs() const
    {
        std::int64_t most = 0;
        for (const auto &ns : workerCpuNs)
            most = std::max<std::int64_t>(most, ns);
        return static_cast<double>(most) / 1e6;
    }

    const std::vector<GridPoint> grid;
    SweepGroups groups;
    const unsigned jobs;
    /** Summed callback wall time, for the pool's busy fraction. */
    std::atomic<std::int64_t> busyNs{0};
    /** Callback CPU time per worker during the current surface. */
    std::vector<std::atomic<std::int64_t>> workerCpuNs;
};

} // namespace

void
runSweep(const Options &opts, Report &report)
{
    const unsigned jobs = std::max(1u, std::min(4u, opts.nproc));
    report.context["sweep_workers"] = std::to_string(jobs);

    std::unique_ptr<Surface> surface;
    report.set("setup_s", medianSetupSeconds(5, [&](int rep) {
                   surface = std::make_unique<Surface>(jobs);
                   const auto warm = surface->run(
                       mixSeed(opts.seed, kWarmup, rep), 0);
                   if (!warm.complete())
                       throw std::runtime_error("warm-up surface failed");
               }),
               "s");

    // Sampled (surface seed, grid index, batched row) triples.
    std::vector<std::tuple<std::uint64_t, std::size_t, CsvRow>> samples;
    std::uint64_t next = 0;
    std::uint64_t retries = 0, batched = 0, swept = 0;
    auto window = [&](double seconds, Windows &w) {
        std::vector<double> lat;
        const auto t0 = Clock::now();
        while (secondsSince(t0) < seconds) {
            const std::uint64_t k = next++;
            const std::uint64_t seed = mixSeed(opts.seed, kMeasured, k);
            const CsvSweepResult r = surface->run(seed, k + 1);
            lat.push_back(surface->criticalMs());

            report.attempted += surface->grid.size();
            for (const CsvRow &row : r.rows)
                report.verify(!row.empty() && row[0] == "ok",
                              "sweep point failed: " +
                                  (row.empty() ? "" : row[0]));
            retries += r.outcome.retries;
            batched += r.outcome.batchedPoints;
            swept += r.outcome.points;
            if (k % kSurfaceStride == 0) {
                for (std::size_t m = 0; m < kRowsPerSample; ++m) {
                    const std::size_t i =
                        (k * 37 + m * 53) % surface->grid.size();
                    samples.emplace_back(seed, i, r.rows[i]);
                }
            }
        }
        double critical_s = 0.0;
        for (const double ms : lat)
            critical_s += ms / 1e3;
        const double surfaces = static_cast<double>(lat.size());
        w.add(surfaces, critical_s, std::move(lat));
    };

    const double points = static_cast<double>(surface->grid.size());
    if (!opts.trace) {
        Windows w;
        for (int win = 0; win < kWindows; ++win)
            window(opts.seconds / kWindows, w);
        const Windows::Figures q = w.quiet();
        report.set("units_per_s", points * q.rate, "1/s");
        report.set("max_rps", q.rate, "1/s");
        report.set("p50_ms", q.p50, "ms");
        report.set("p99_ms", q.p99, "ms");
    } else {
        Tracer &tracer = Tracer::get();
        tracer.nameThread("sweep caller");
        Windows plain, traced;
        double traced_wall = 0.0, traced_busy_ns = 0.0;
        for (int win = 0; win < 2 * kWindows; ++win) {
            const bool on = win % 2 == 1;
            tracer.enable(on);
            const std::int64_t busy0 = surface->busyNs;
            const auto t0 = Clock::now();
            window(0.5 * opts.seconds / (2 * kWindows), on ? traced : plain);
            if (on) {
                traced_wall += secondsSince(t0);
                traced_busy_ns +=
                    static_cast<double>(surface->busyNs - busy0);
            }
        }
        report.set("obs.trace_overhead_frac",
                   plain.quiet().rate / traced.quiet().rate - 1.0,
                   "ratio");
        report.set("sweep.busy_frac",
                   traced_busy_ns / 1e9 / (traced_wall * jobs),
                   "ratio");
        report.set("sweep.batched_frac",
                   static_cast<double>(batched) / static_cast<double>(swept),
                   "ratio");
        report.set("sweep.retries", static_cast<double>(retries), "count");

        // Probe A: every group of one fixed surface, one call vs its
        // stepped form, and the solo sum the batch replaces.
        const std::uint64_t probe_seed = mixSeed(opts.seed, kProbe, 0);
        std::vector<std::pair<EvalRequest, EvalResult>> probe_points;
        const std::int64_t batch_from = nowNs();
        double batch_ns = 0.0, solo_ns = 0.0;
        for (std::size_t g = 0; g < surface->groups.size(); ++g) {
            const std::uint64_t rid = (std::uint64_t{1} << 40) + g;
            std::vector<EvalRequest> reqs;
            for (const std::size_t i : surface->groups[g])
                reqs.push_back(requestFor(surface->grid[i], probe_seed));
            report.attempted += reqs.size();
            std::vector<Expected<EvalResult>> one_call;
            {
                Tracer::Scope s("evaluateBatch", rid);
                batch_ns +=
                    cpuNs([&] { one_call = evaluateBatch(reqs); });
            }
            const auto stepped = stepBatch(reqs, rid);
            for (std::size_t k = 0; k < reqs.size(); ++k) {
                Expected<EvalResult> solo = EvalResult{};
                {
                    Tracer::Scope s("evaluatePoint", rid);
                    solo_ns += cpuNs(
                        [&] { solo = evaluatePoint(reqs[k]); });
                }
                const bool ok = one_call[k].ok() && solo.ok();
                report.verify(
                    ok && sameResult(one_call[k].value(), stepped[k]) &&
                        sameResult(one_call[k].value(), solo.value()),
                    "batched, stepped and solo results differ, group " +
                        std::to_string(g));
                // Two t_m columns per group feed the per-point probe.
                if (ok && (reqs[k].memoryTime == 16 ||
                           reqs[k].memoryTime == 48))
                    probe_points.emplace_back(reqs[k], solo.value());
            }
        }
        const auto batch_layers = tracer.layers(batch_from, nowNs());
        const double groups = static_cast<double>(surface->groups.size());
        auto self_ns = [&](const char *name) {
            const auto it = batch_layers.find(name);
            return it == batch_layers.end() ? 0.0 : it->second.selfCpuNs;
        };
        report.set("sim.batch_us", batch_ns / 1e3 / groups, "us");
        report.set("sim.gang_us",
                   (self_ns("sim.gang_direct") + self_ns("sim.gang_prime")) /
                       1e3 / groups,
                   "us");
        report.set("sim.batch.lanes", points / groups, "count");
        report.set("sim.batch.speedup", solo_ns / batch_ns, "ratio");

        // Probe B: the per-point layers on those two columns.
        SimProbe probe;
        const std::int64_t from = nowNs();
        for (std::size_t k = 0; k < probe_points.size(); ++k) {
            const auto &[req, one] = probe_points[k];
            PointTraces traces;
            const EvalResult stepped =
                stepPoint(req, (std::uint64_t{2} << 40) + k, &traces);
            report.verify(sameResult(stepped, one),
                          "stepped evaluatePoint differs from the one "
                          "call");
            probe.add(req, stepped, traces, report);
        }
        probe.publish(report, from, nowNs(),
                      static_cast<double>(probe_points.size()));
        tracer.enable(false);
    }

    // Verification, outside the timed region: batched rows must equal
    // solo evaluatePoint rows.
    for (const auto &[seed, i, row] : samples) {
        const auto solo = evaluatePoint(requestFor(surface->grid[i], seed));
        report.verify(solo.ok() && rowFor(solo.value()) == row,
                      "batched sweep row differs from solo evaluatePoint");
    }
    report.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace perfbench
