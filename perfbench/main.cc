/**
 * @file
 * End-to-end benchmark program: runs one named workload for a fixed
 * time, verifies its outputs, and prints the run context and one
 * JSON result line (see perfbench/README.md).
 *
 *   perfbench --workload point|sweep|serve|kernels --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *
 * With --trace 0 the result carries the end-to-end metrics; with
 * --trace 1 it carries the per-layer metrics and FILE receives the
 * recorded spans as Perfetto trace-event JSON.
 */

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hh"
#include "simd/kernels.hh"
#include "util/buildinfo.hh"

namespace perfbench
{

namespace
{

struct MetricSpec
{
    const char *name;
    const char *unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
    {"units_per_s", "1/s"},  {"p50_ms", "ms"},
    {"p99_ms", "ms"},        {"max_rps", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"trace.gen_us", "us"},
    {"trace.ops", "count"},
    {"trace.elements", "count"},
    {"analytic.model_us", "us"},
    {"sim.mm_us", "us"},
    {"sim.mm.elements_per_us", "1/us"},
    {"sim.mm.auto_over_scalar", "ratio"},
    {"sim.cc_direct_us", "us"},
    {"sim.cc_prime_us", "us"},
    {"sim.cc.elements_per_us", "1/us"},
    {"sim.cc.auto_over_scalar", "ratio"},
    {"sim.batch_us", "us"},
    {"sim.gang_us", "us"},
    {"sim.batch.lanes", "count"},
    {"sim.batch.speedup", "ratio"},
    {"cache.direct.access_ns", "ns"},
    {"cache.prime.access_ns", "ns"},
    {"sweep.busy_frac", "ratio"},
    {"sweep.batched_frac", "ratio"},
    {"sweep.retries", "count"},
    {"sim.mm.cycles_per_result", "cycles"},
    {"sim.cc_direct.cycles_per_result", "cycles"},
    {"sim.cc_prime.cycles_per_result", "cycles"},
    {"cache.cc_direct.miss_ratio", "ratio"},
    {"cache.cc_prime.miss_ratio", "ratio"},
    {"memory.mm.stall_frac", "ratio"},
    {"analytic.gap_mm", "ratio"},
    {"analytic.gap_direct", "ratio"},
    {"analytic.gap_prime", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.selftime_gap", "ratio"},
};

/**
 * Per-layer metrics of the serve workload only.  `serve` is not one of
 * BENCHMARK.json's workloads (its wall-clock tail follows the host's
 * steal; see README.md), so these stay out of the listed set.
 */
constexpr MetricSpec kServeLayer[] = {
    {"serve.parse_us", "us"},
    {"serve.render_us", "us"},
    {"serve.overhead_us", "us"},
    {"serve.gen_late_ms", "ms"},
    {"memo.hit_ratio", "ratio"},
    {"serve.batched_frac", "ratio"},
    {"serve.batch_size_mean", "count"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.shed_frac", "ratio"},
    {"serve.queue_peak", "count"},
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload point|sweep|serve|kernels"
                 " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (*end != '\0')
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (*end != '\0' || !(opts.seconds > 0.0) ||
                opts.seconds > 600.0)
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            opts.trace = value == "1";
        } else if (flag == "--trace-out") {
            opts.traceOut = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
    opts.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 1;
    return opts;
}

/** The metric set of this mode, each present exactly once. */
void
selectMetrics(const Options &opts, Report &report)
{
    std::vector<MetricSpec> specs;
    if (!opts.trace) {
        specs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    } else {
        specs.assign(std::begin(kPerLayer), std::end(kPerLayer));
        if (opts.workload == "serve")
            specs.insert(specs.end(), std::begin(kServeLayer),
                         std::end(kServeLayer));
    }
    std::map<std::string, Report::Metric> out;
    for (const MetricSpec &spec : specs) {
        const auto it = report.metrics.find(spec.name);
        if (it == report.metrics.end()) {
            // A layer the workload never calls reads 0 in the traced
            // run; an end-to-end metric must always be measured.
            if (!opts.trace)
                report.fail(std::string("metric not measured: ") +
                            spec.name);
            out[spec.name] = Report::Metric{0.0, spec.unit};
            continue;
        }
        if (it->second.unit != spec.unit)
            report.fail(std::string("unit mismatch for ") + spec.name);
        if (!std::isfinite(it->second.value)) {
            report.fail(std::string("non-finite metric ") + spec.name);
            it->second.value = 0.0;
        }
        out[spec.name] = Report::Metric{it->second.value, spec.unit};
    }
    report.metrics = std::move(out);
}

void
printContext(const Options &opts, const Report &report)
{
    std::map<std::string, std::string> ctx = report.context;
    ctx["build"] = vcache::buildInfoString();
    ctx["build_type"] = vcache::buildTypeName();
    ctx["git"] = vcache::buildGitHash();
    ctx["compiler"] = PERFBENCH_COMPILER;
    ctx["vcache_native"] = PERFBENCH_NATIVE ? "ON" : "OFF";
    ctx["simd_backend"] =
        vcache::simd::backendName(vcache::simd::activeBackend());
    ctx["nproc"] = std::to_string(opts.nproc);
    ctx["workload"] = opts.workload;
    ctx["seed"] = std::to_string(opts.seed);
    ctx["seconds"] = vcache::canonicalDouble(opts.seconds);
    ctx["trace"] = opts.trace ? "1" : "0";
    std::string line = "{\"context\":{";
    bool first = true;
    for (const auto &[k, v] : ctx) {
        line += (first ? "" : ",") + jsonString(k) + ":" + jsonString(v);
        first = false;
    }
    std::cout << line << "}}\n";
}

void
printResult(const Report &report)
{
    std::string line = "{\"correct\":";
    line += report.correct ? "true" : "false";
    line += ",\"attempted\":" + std::to_string(report.attempted);
    line += ",\"failed\":" + std::to_string(report.failed);
    line += ",\"metrics\":{";
    bool first = true;
    for (const auto &[name, m] : report.metrics) {
        line += (first ? "" : ",") + jsonString(name) +
                ":{\"value\":" + vcache::canonicalDouble(m.value) +
                ",\"unit\":" + jsonString(m.unit) + "}";
        first = false;
    }
    std::cout << line << "}}" << std::endl;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opts = parseArgs(argc, argv);
    Report report;
    nowNs(); // fix the span epoch before any work
    const CpuJiffies start = cpuJiffies();
    try {
        if (opts.workload == "point")
            runPoint(opts, report);
        else if (opts.workload == "sweep")
            runSweep(opts, report);
        else if (opts.workload == "serve")
            runServe(opts, report);
        else if (opts.workload == "kernels")
            runKernels(opts, report);
        else
            usage("unknown workload " + opts.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload
                  << " aborted: " << e.what() << "\n";
        return 1;
    }
    // How much vCPU time the hypervisor gave to other tenants during
    // the run: wall-clock figures (serve) degrade with it.
    report.context["host_steal"] =
        vcache::canonicalDouble(stealFraction(start, cpuJiffies()));
    if (report.attempted == 0)
        report.fail("no operation was verified");
    if (opts.trace && !opts.traceOut.empty() &&
        !Tracer::get().writePerfetto(opts.traceOut))
        report.fail("cannot write " + opts.traceOut);
    selectMetrics(opts, report);
    printContext(opts, report);
    printResult(report);
    return 0;
}
