#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench.hh"
#include "obs/trace_events.hh"

namespace perfbench
{

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

namespace
{

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

} // namespace

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0 || values[lo] == values[hi])
        return values[lo];
    // Infinite samples (missed answers) make the quantile infinite
    // rather than NaN.
    if (std::isinf(values[hi]))
        return values[hi];
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    // splitmix64 over a combination of the three inputs.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^
                      (stream + 0x632be59bd9b4e019ull) *
                          0xbf58476d1ce4e5b9ull ^
                      index * 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

void
Report::verify(bool ok, const std::string &what)
{
    if (!ok) {
        ++failed;
        correct = false;
        std::cerr << "perfbench: verification failed: " << what << "\n";
    }
}

void
Report::fail(const std::string &what)
{
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

void
Windows::add(double count, double seconds, std::vector<double> latencies)
{
    Figures f;
    f.rate = count / seconds;
    f.p50 = quantile(latencies, 0.50);
    f.p99 = quantile(std::move(latencies), 0.99);
    all.push_back(f);
    std::cerr << "window " << all.size() << ": rate " << f.rate
              << "/s, p50 " << f.p50 << " ms, p99 " << f.p99 << " ms\n";
}

Windows::Figures
Windows::quiet() const
{
    std::vector<Figures> sorted = all;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Figures &a, const Figures &b) {
                         return a.rate > b.rate;
                     });
    sorted.resize(std::max<std::size_t>(1, sorted.size() / 2));
    std::vector<double> rate, p50, p99;
    for (const Figures &f : sorted) {
        rate.push_back(f.rate);
        p50.push_back(f.p50);
        p99.push_back(f.p99);
    }
    return {median(rate), median(p50), median(p99)};
}

CpuJiffies
cpuJiffies()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    CpuJiffies out;
    stat >> cpu;
    double v = 0.0;
    for (int field = 0; field < 8 && stat >> v; ++field) {
        out.total += v;
        if (field == 7)
            out.steal = v;
    }
    return out;
}

double
stealFraction(const CpuJiffies &a, const CpuJiffies &b)
{
    const double total = b.total - a.total;
    return total > 0.0 ? (b.steal - a.steal) / total : 0.0;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter survives execve,
    // so it would report the launching process's peak when larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    return 0.0;
}

// ---------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------

Tracer &
Tracer::get()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Lane &
Tracer::lane()
{
    thread_local Lane *mine = nullptr;
    if (!mine) {
        std::lock_guard<std::mutex> lock(mtx);
        Lane &fresh = lanes.emplace_back();
        fresh.tid = static_cast<std::uint32_t>(lanes.size());
        fresh.name = "thread " + std::to_string(fresh.tid);
        mine = &fresh;
    }
    return *mine;
}

void
Tracer::nameThread(const std::string &name)
{
    lane().name = name;
}

Tracer::Scope::Scope(const char *name, std::uint64_t rid)
{
    Tracer &t = get();
    if (!t.on())
        return;
    lane = &t.lane();
    Span s;
    s.name = name;
    s.parent = lane->open.empty() ? kNoParent : lane->open.back();
    s.rid = rid != 0 || s.parent == kNoParent
                ? rid
                : lane->spans[s.parent].rid;
    index = static_cast<std::uint32_t>(lane->spans.size());
    lane->open.push_back(index);
    s.start = nowNs();
    s.cpuStart = threadCpuNs();
    lane->spans.push_back(s);
}

Tracer::Scope::~Scope()
{
    if (!lane)
        return;
    Span &s = lane->spans[index];
    s.cpuEnd = threadCpuNs();
    s.end = nowNs();
    lane->open.pop_back();
}

void
Tracer::record(const char *name, std::int64_t start, std::int64_t end,
               std::uint64_t rid)
{
    if (!on())
        return;
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = kNoParent;
    s.rid = rid;
    s.detached = true;
    lane().spans.push_back(s);
}

std::map<std::string, LayerTime>
Tracer::layers(std::int64_t from, std::int64_t to) const
{
    std::map<std::string, LayerTime> out;
    std::lock_guard<std::mutex> lock(mtx);
    for (const Lane &l : lanes) {
        auto cpu = [](const Span &s) {
            return static_cast<double>(s.cpuEnd - s.cpuStart);
        };
        std::vector<double> child(l.spans.size(), 0.0);
        for (const Span &s : l.spans)
            if (s.parent != kNoParent)
                child[s.parent] += cpu(s);
        for (std::size_t i = 0; i < l.spans.size(); ++i) {
            const Span &s = l.spans[i];
            if (s.start < from || s.start >= to)
                continue;
            LayerTime &t = out[s.name];
            ++t.count;
            t.cpuNs += cpu(s);
            t.selfCpuNs += cpu(s) - child[i];
        }
    }
    return out;
}

bool
Tracer::writePerfetto(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    vcache::TraceEventWriter writer(os);
    auto us = [](std::int64_t ns) {
        return static_cast<vcache::Cycles>(ns / 1000);
    };
    auto args = [](const Span &s) {
        return s.rid != 0 ? "\"rid\":" + std::to_string(s.rid)
                          : std::string();
    };

    std::lock_guard<std::mutex> lock(mtx);
    std::uint32_t next_virtual = 1000;
    for (const Lane &l : lanes) {
        writer.threadName(l.tid, l.name);
        // Nested spans: B/E in recording order, closing every open
        // span that is not the next span's parent first.
        std::vector<std::uint32_t> open;
        std::vector<const Span *> detached;
        for (std::uint32_t i = 0; i < l.spans.size(); ++i) {
            const Span &s = l.spans[i];
            if (s.detached) {
                detached.push_back(&s);
                continue;
            }
            while (!open.empty() && open.back() != s.parent) {
                writer.endDuration(us(l.spans[open.back()].end), l.tid);
                open.pop_back();
            }
            writer.beginDuration("perfbench", s.name, us(s.start), l.tid,
                                 args(s));
            open.push_back(i);
        }
        while (!open.empty()) {
            writer.endDuration(us(l.spans[open.back()].end), l.tid);
            open.pop_back();
        }

        // Detached spans may overlap: pack them greedily into virtual
        // lanes so each lane's B/E pairs stay properly nested.
        std::sort(detached.begin(), detached.end(),
                  [](const Span *a, const Span *b) {
                      return a->start < b->start;
                  });
        std::vector<std::pair<std::uint32_t, std::int64_t>> slots;
        for (const Span *s : detached) {
            auto slot = std::find_if(slots.begin(), slots.end(),
                                     [&](const auto &v) {
                                         return v.second <= s->start;
                                     });
            if (slot == slots.end()) {
                slots.emplace_back(next_virtual++, 0);
                writer.threadName(slots.back().first,
                                  l.name + " requests " +
                                      std::to_string(slots.size()));
                slot = slots.end() - 1;
            }
            writer.beginDuration("perfbench", s->name, us(s->start),
                                 slot->first, args(*s));
            writer.endDuration(us(s->end), slot->first);
            slot->second = s->end;
        }
    }
    writer.finish();
    os.flush();
    return static_cast<bool>(os) && writer.dropped() == 0;
}

} // namespace perfbench
