/**
 * @file
 * Shared pieces of the end-to-end benchmark program: options, the
 * report every workload fills, timing helpers, the in-memory span
 * recorder behind the traced run, and the decomposed ("stepped")
 * forms of the public evaluation calls.
 *
 * The program only calls the repository's public functions; every
 * span is recorded here, around those calls, never inside src/.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "sim/evaluate.hh"
#include "trace/access.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Monotonic wall-clock nanoseconds since the process's first call. */
std::int64_t nowNs();

/**
 * CPU time of the calling thread, in ns.  The benchmark times
 * CPU-bound work on this clock: on a shared virtual machine, wall time
 * also counts the time the hypervisor gives the vCPU to other tenants
 * (steal), which swings from 1% to over 40% within minutes there.
 */
std::int64_t threadCpuNs();

/** CPU time of the whole process (every thread), in ns. */
std::int64_t processCpuNs();

/** Seconds elapsed since `start`. */
double secondsSince(Clock::time_point start);

/** Quantile with linear interpolation between order statistics. */
double quantile(std::vector<double> values, double q);

/** Median of a non-empty sample. */
double median(std::vector<double> values);

/** 64-bit mix of (seed, stream, index): every input draw uses it. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index);

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Perfetto trace-event file written by a traced run. */
    std::string traceOut;
    /** Online CPUs; sizes every thread count. */
    unsigned nproc = 1;
};

/** What one run prints: the result object plus context. */
struct Report
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    /** Run context (thread counts and the like), printed beside. */
    std::map<std::string, std::string> context;

    void set(const std::string &name, double value,
             const std::string &unit);

    /**
     * Check one operation's output (the operation itself is counted
     * in `attempted` by the workload); a mismatch fails it.
     */
    void verify(bool ok, const std::string &what);

    /** A whole-run check (trace parse, self-time sum) failed. */
    void fail(const std::string &what);
};

/**
 * Per-window figures of a measured phase.  A phase is split into equal
 * windows, and quiet() reports the medians over the faster half of
 * them: other tenants of a shared host only ever slow a window down,
 * so the faster windows are the ones that measure the program.
 */
struct Windows
{
    struct Figures
    {
        /** Operations per second. */
        double rate = 0.0;
        /** Per-operation latency percentiles, in ms. */
        double p50 = 0.0;
        double p99 = 0.0;
    };

    std::vector<Figures> all;

    /** Close one window: `count` operations in `seconds`, with the
     *  given per-operation latencies in ms. */
    void add(double count, double seconds, std::vector<double> latencies);

    /** Medians over the faster half of the windows. */
    Figures quiet() const;
};

/**
 * Run `once` `reps` times and return the median process CPU time it
 * took, in seconds: the benchmark's set-up time, measured several
 * times so one slow start does not decide it.
 */
template <typename F>
double
medianSetupSeconds(int reps, F &&once)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const std::int64_t t0 = processCpuNs();
        once(i);
        times.push_back(static_cast<double>(processCpuNs() - t0) / 1e9);
    }
    return median(times);
}

/** Thread CPU nanoseconds one call of `f` takes. */
template <typename F>
double
cpuNs(F &&f)
{
    const std::int64_t t0 = threadCpuNs();
    f();
    return static_cast<double>(threadCpuNs() - t0);
}

/** Cumulative host CPU jiffies: all states, and stolen by the
 *  hypervisor (first line of /proc/stat). */
struct CpuJiffies
{
    double total = 0.0;
    double steal = 0.0;
};

CpuJiffies cpuJiffies();

/** Share of vCPU time stolen between two snapshots (0 if unknown). */
double stealFraction(const CpuJiffies &a, const CpuJiffies &b);

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/** One recorded interval around a public call. */
struct Span
{
    const char *name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Thread CPU time at start and end (0 for detached spans). */
    std::int64_t cpuStart = 0;
    std::int64_t cpuEnd = 0;
    /** Index of the enclosing span in the same lane, or kNoParent. */
    std::uint32_t parent = 0;
    /** Request id shared by one request's spans (0 = none). */
    std::uint64_t rid = 0;
    /**
     * Recorded after the fact with explicit bounds (client-side
     * request spans); such spans may overlap on one thread.
     */
    bool detached = false;
};

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

/** Aggregate of all spans with one name, in thread CPU time. */
struct LayerTime
{
    std::uint64_t count = 0;
    double cpuNs = 0.0;
    /** CPU time minus the CPU time covered by child spans. */
    double selfCpuNs = 0.0;
};

/**
 * Process-wide span recorder.  Spans stay in memory, one lane per
 * thread, and are written as Perfetto trace-event JSON at exit.
 * Disabled, a scope costs one branch.
 */
class Tracer
{
  public:
    struct Lane
    {
        std::uint32_t tid = 0;
        std::string name;
        std::vector<Span> spans;
        std::vector<std::uint32_t> open;
    };

    /** RAII span around one call. */
    class Scope
    {
      public:
        Scope(const char *name, std::uint64_t rid = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Lane *lane = nullptr;
        std::uint32_t index = 0;
    };

    static Tracer &get();

    void enable(bool on) { enabled.store(on, std::memory_order_relaxed); }
    bool on() const { return enabled.load(std::memory_order_relaxed); }

    /** Name the calling thread's lane (Perfetto thread_name). */
    void nameThread(const std::string &name);

    /** Record a finished span with explicit bounds (detached). */
    void record(const char *name, std::int64_t start, std::int64_t end,
                std::uint64_t rid);

    /** Self and total CPU time per span name, over the spans started
     *  in [from, to). */
    std::map<std::string, LayerTime> layers(std::int64_t from,
                                            std::int64_t to) const;

    /** Write every span as trace-event JSON; false on I/O error. */
    bool writePerfetto(const std::string &path) const;

  private:
    Lane &lane();

    std::atomic<bool> enabled{false};
    mutable std::mutex mtx;
    std::deque<Lane> lanes;
};

// ---------------------------------------------------------------------
// Stepped evaluation: the public calls evaluatePoint/evaluateBatch
// make, issued one by one so each gets its own span.
// ---------------------------------------------------------------------

/** Materialized MM and CC traces of one request's workload. */
struct PointTraces
{
    vcache::Trace mm;
    vcache::Trace cc;
};

/**
 * evaluatePoint(req) as its public steps: validateEvalRequest, the
 * three analytic evaluate calls, trace generation, simulateMm and
 * the two simulateCc calls, each in its own span under a
 * "steps.point" root.  `traces` (optional) receives the generated
 * traces for the probes that replay them.
 */
vcache::EvalResult stepPoint(const vcache::EvalRequest &req,
                             std::uint64_t rid,
                             PointTraces *traces = nullptr);

/**
 * evaluateBatch(reqs) for one shared-workload group of exact-engine
 * sim requests, as its public steps: validation, models,
 * buildTraceArena, simulateMm per member, and one simulateCcGang
 * pass per scheme, under a "steps.batch" root.
 */
std::vector<vcache::EvalResult>
stepBatch(std::span<const vcache::EvalRequest> reqs, std::uint64_t rid);

/** Every counter and figure of two results compares equal. */
bool sameResult(const vcache::EvalResult &a, const vcache::EvalResult &b);

/** Exact equality of two simulator results. */
bool sameSim(const vcache::SimResult &a, const vcache::SimResult &b);

/** One replay on the MM machine and both CC machines. */
struct MachineRuns
{
    vcache::SimResult mm, direct, prime;
};

/**
 * The most naive public path: MmSimulator and CcSimulator with
 * SimEngine::Scalar and gang replay off.
 */
MachineRuns oracleRuns(const vcache::MachineParams &machine,
                       const vcache::Trace &mm, const vcache::Trace &cc);

bool sameRuns(const MachineRuns &a, const MachineRuns &b);

/** evaluatePoint(req) recomputed through oracleRuns, models through
 *  analytic evaluate(). */
vcache::EvalResult oracleEval(const vcache::EvalRequest &req);

/**
 * Per-layer probes shared by the VCM workloads (point, sweep,
 * serve): accumulates simulated statistics, analytic gaps, scalar
 * re-timings and functional cache timings over a fixed set of
 * requests.
 */
class SimProbe
{
  public:
    /**
     * Account one stepped point (stepPoint's result and traces), then
     * re-time its simulators under Auto and Scalar and replay its CC
     * trace through the functional caches.
     */
    void add(const vcache::EvalRequest &req,
             const vcache::EvalResult &stepped, const PointTraces &traces,
             Report &report);

    /**
     * Publish the trace/analytic/sim/cache metrics.  Layer times are
     * the self times of spans started in [from, to), divided by
     * `units` (the points stepped there).
     */
    void publish(Report &report, std::int64_t from, std::int64_t to,
                 double units) const;

    std::uint64_t points() const { return n; }

  private:
    std::uint64_t n = 0;
    std::uint64_t mmOps = 0, ccOps = 0;
    std::uint64_t mmElements = 0, ccElements = 0;
    vcache::SimResult mm, direct, prime;
    double gapMm = 0.0, gapDirect = 0.0, gapPrime = 0.0;
    double autoMmNs = 0.0, autoCcNs = 0.0;
    double scalarMmNs = 0.0, scalarCcNs = 0.0;
    double cacheDirectNs = 0.0, cachePrimeNs = 0.0;
};

/** Add one simulator result's counters into an accumulator. */
void accumulate(vcache::SimResult &into, const vcache::SimResult &r);

/** Publish the exact simulated-statistics metrics of summed runs. */
void publishSimStats(Report &report, const vcache::SimResult &mm,
                     const vcache::SimResult &direct,
                     const vcache::SimResult &prime);

// Workloads.
void runPoint(const Options &opts, Report &report);
void runSweep(const Options &opts, Report &report);
void runServe(const Options &opts, Report &report);
void runKernels(const Options &opts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
