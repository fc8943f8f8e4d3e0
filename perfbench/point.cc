/**
 * @file
 * Workload `point`: a closed loop of cold solo evaluatePoint calls on
 * the paper-default request, each with a fresh seed.  Nearly all host
 * time goes through the streamed MM and CC simulators; the sweep
 * pool, the batch/gang path, the server and the memo are bypassed.
 */

#include <cmath>
#include <iostream>

#include "bench.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

constexpr int kWindows = 10;
/** Every kSampleStride-th measured call is re-checked on the oracle. */
constexpr std::uint64_t kSampleStride = 97;
constexpr std::size_t kMaxSamples = 48;
/** Fixed probe set of the traced run. */
constexpr std::uint64_t kProbePoints = 48;

enum Stream : std::uint64_t
{
    kMeasured = 1,
    kProbe = 2,
};

/** Paper-default request (m=6, t_m=16, B=1024, p_ds=0.2, Auto). */
EvalRequest
paperRequest(std::uint64_t seed)
{
    EvalRequest req;
    req.seed = seed;
    return req;
}

} // namespace

void
runPoint(const Options &opts, Report &report)
{
    std::uint64_t next = 0;
    auto fresh = [&] {
        return paperRequest(mixSeed(opts.seed, kMeasured, next++));
    };

    // Set-up: warm code, allocator and SIMD dispatch with a few calls.
    report.set("setup_s", medianSetupSeconds(5, [&](int) {
                   for (int k = 0; k < 64; ++k)
                       evaluatePoint(fresh()).value();
               }),
               "s");

    std::vector<std::pair<EvalRequest, EvalResult>> samples;
    // One closed-loop window of one-call (or, traced, stepped) calls.
    auto window = [&](double seconds, bool stepped, Windows &w) {
        std::vector<double> lat;
        const auto t0 = Clock::now();
        const std::int64_t cpu0 = threadCpuNs();
        while (secondsSince(t0) < seconds) {
            const std::uint64_t index = next;
            const EvalRequest req = fresh();
            ++report.attempted;
            const std::int64_t a = threadCpuNs();
            if (stepped) {
                stepPoint(req, index + 1);
            } else {
                auto r = evaluatePoint(req);
                if (!r.ok()) {
                    report.verify(false, r.error().describe());
                    continue;
                }
                if (index % kSampleStride == 0 &&
                    samples.size() < kMaxSamples)
                    samples.emplace_back(req, r.value());
            }
            lat.push_back(static_cast<double>(threadCpuNs() - a) / 1e6);
        }
        const double calls = static_cast<double>(lat.size());
        w.add(calls, static_cast<double>(threadCpuNs() - cpu0) / 1e9,
              std::move(lat));
    };

    if (!opts.trace) {
        Windows w;
        for (int win = 0; win < kWindows; ++win)
            window(opts.seconds / kWindows, false, w);
        const Windows::Figures q = w.quiet();
        report.set("units_per_s", q.rate, "1/s");
        report.set("max_rps", q.rate, "1/s");
        report.set("p50_ms", q.p50, "ms");
        report.set("p99_ms", q.p99, "ms");
    } else {
        // Untraced and traced windows alternate so drift hits both.
        Tracer &tracer = Tracer::get();
        tracer.nameThread("point caller");
        Windows plain, traced;
        for (int win = 0; win < 2 * kWindows; ++win) {
            const bool on = win % 2 == 1;
            tracer.enable(on);
            window(0.6 * opts.seconds / (2 * kWindows), on,
                   on ? traced : plain);
        }
        report.set("obs.trace_overhead_frac",
                   plain.quiet().rate / traced.quiet().rate - 1.0,
                   "ratio");

        // Probe: one-call evaluatePoint beside its stepped form on a
        // fixed request set (alternating which runs first: the first
        // call on a fresh workload runs a few percent slower), then
        // the scalar and cache re-timings.
        SimProbe probe;
        const std::int64_t from = nowNs();
        for (std::uint64_t k = 0; k < kProbePoints; ++k) {
            const EvalRequest req =
                paperRequest(mixSeed(opts.seed, kProbe, k));
            const std::uint64_t rid = (std::uint64_t{1} << 40) + k;
            ++report.attempted;
            EvalResult one, stepped;
            PointTraces traces;
            auto oneCall = [&] {
                Tracer::Scope s("evaluatePoint", rid);
                one = evaluatePoint(req).value();
            };
            auto steppedCall = [&] {
                stepped = stepPoint(req, rid, &traces);
            };
            if (k % 2 == 0) {
                oneCall();
                steppedCall();
            } else {
                steppedCall();
                oneCall();
            }
            report.verify(sameResult(stepped, one),
                          "stepped evaluatePoint differs from the one "
                          "call, seed " + std::to_string(req.seed));
            probe.add(req, stepped, traces, report);
        }
        const std::int64_t to = nowNs();
        probe.publish(report, from, to, kProbePoints);

        // The stepped layers' self times must account for the one
        // call's time.
        const auto layers = tracer.layers(from, to);
        const LayerTime steps = layers.at("steps.point");
        const double children = steps.cpuNs - steps.selfCpuNs;
        const double one_call = layers.at("evaluatePoint").cpuNs;
        const double gap = std::abs(children - one_call) / one_call;
        report.set("obs.selftime_gap", gap, "ratio");
        if (gap > 0.05)
            report.fail("stepped layer self times miss the one-call "
                        "evaluatePoint time by " +
                        std::to_string(100.0 * gap) + "%");
        tracer.enable(false);
    }

    // Verification, outside the timed region.
    for (const auto &[req, result] : samples)
        report.verify(sameResult(oracleEval(req), result),
                      "evaluatePoint differs from the scalar oracle, "
                      "seed " + std::to_string(req.seed));
    report.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace perfbench
