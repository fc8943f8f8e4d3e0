/**
 * @file
 * Workload `serve`: an in-process EvalServer on loopback, driven
 * open-loop by one generator at fixed offered rates.  The mix is
 * mostly cold sim requests with never-reused seeds (B <= 2048), some
 * sent in same-workload-key bursts the server batches, repeats of
 * answered keys (memo hits), model-only requests and a few invalid
 * requests whose InvalidConfig answer is the correct output.  Parse,
 * admission queue, batching, memo and render only do real work here.
 *
 * Latency counts from each request's scheduled send time, so a late
 * generator or a growing queue shows in it.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <iostream>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hh"
#include "serve/proto.hh"
#include "serve/server.hh"

namespace perfbench
{

using namespace vcache;

namespace
{

constexpr int kWindows = 5;
/** Middle-rate windows; p50_ms/p99_ms use the least-stolen half. */
constexpr int kMiddleWindows = 8;
/** p99 latency limit of max_rps, in ms. */
constexpr double kLimitMs = 50.0;
/** Offered rates (requests/s); max_rps refines between rungs. */
constexpr double kLadder[] = {250, 500, 1000, 1500, 2250, 3400, 5000, 7500};
/** The rung whose latency p50_ms/p99_ms report. */
constexpr std::size_t kMiddle = 3;
constexpr int kBisections = 3;
/** Every kSampleStride-th answered request is re-checked. */
constexpr std::size_t kSampleStride = 23;
constexpr std::size_t kMaxSamples = 160;
/** Repeats pick keys planned at least this many requests earlier. */
constexpr std::size_t kRepeatLag = 256;
constexpr unsigned kBurst = 4;

constexpr double kInf = std::numeric_limits<double>::infinity();

enum Stream : std::uint64_t
{
    kColdSeed = 8,
    kDraw = 9,
};

enum class Kind : std::uint8_t
{
    Cold,
    Burst,
    Repeat,
    Model,
    Invalid,
};

enum class Outcome : std::uint8_t
{
    Pending,
    Ok,
    Invalid,
    Shed,
    Error,
};

struct Planned
{
    EvalRequest req;
    Kind kind = Kind::Cold;
    /** Scheduled send time, ns after the phase origin. */
    std::int64_t dueNs = 0;
};

/** One open-loop phase: its schedule and what came back. */
struct Phase
{
    std::uint32_t id = 0;
    double rate = 0.0;
    std::vector<Planned> reqs;

    // Filled while the phase runs, under the client's mutex.
    std::size_t received = 0;
    std::int64_t originNs = 0;
    std::vector<std::int64_t> sentNs;
    std::vector<std::int64_t> recvNs;
    std::vector<Outcome> outcome;
    std::vector<std::string> payload;
};

std::string
wireLine(const Planned &p, std::uint32_t phase, std::size_t index)
{
    const EvalRequest &r = p.req;
    std::string line = "{\"op\":\"eval\",\"id\":\"" + std::to_string(phase) +
                       ":" + std::to_string(index) + "\"";
    line += ",\"m\":" + std::to_string(r.bankBits);
    line += ",\"tm\":" + std::to_string(r.memoryTime);
    line += ",\"B\":" + std::to_string(r.blockingFactor);
    line += ",\"pds\":" + canonicalDouble(r.pDoubleStream);
    line += ",\"seed\":" + std::to_string(r.seed);
    line += r.sim ? ",\"sim\":true" : ",\"sim\":false";
    line += ",\"engine\":\"" + std::string(simEngineName(r.engine)) + "\"}";
    return line;
}

/** Draws the request mix; every draw derives from the run seed. */
class Planner
{
  public:
    explicit Planner(std::uint64_t seed) : seed(seed) {}

    /** `seconds` of requests at `rate`, evenly spaced. */
    std::unique_ptr<Phase>
    plan(std::uint32_t id, double rate, double seconds)
    {
        auto ph = std::make_unique<Phase>();
        ph->id = id;
        ph->rate = rate;
        const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
        const double gap_ns = 1e9 / rate;
        std::size_t slot = 0;
        while (slot < n) {
            const auto due = static_cast<std::int64_t>(
                static_cast<double>(slot) * gap_ns);
            const double u = draw(id, slot, 0);
            if (u < 0.05) {
                // Invalid: p_ds outside [0, 1].
                Planned p{cold(id, slot), Kind::Invalid, due};
                p.req.pDoubleStream = 1.0 + draw(id, slot, 1);
                ph->reqs.push_back(p);
            } else if (u < 0.20) {
                // Model-only with a distinct p_ds: a memo miss that
                // reads no trace.
                Planned p{cold(id, slot), Kind::Model, due};
                p.req.sim = false;
                p.req.pDoubleStream = draw(id, slot, 1);
                ph->reqs.push_back(p);
            } else if (u < 0.40 && history.size() > kRepeatLag) {
                const auto pick = static_cast<std::size_t>(
                    draw(id, slot, 1) *
                    static_cast<double>(history.size() - kRepeatLag));
                ph->reqs.push_back({history[pick], Kind::Repeat, due});
            } else if (u < 0.55 && slot + kBurst <= n) {
                // A burst of one workload at distinct t_m, sent at once
                // so the server can batch it.
                EvalRequest base = cold(id, slot);
                for (unsigned k = 0; k < kBurst; ++k) {
                    EvalRequest r = base;
                    r.memoryTime = 8 + 16 * k;
                    remember(r);
                    ph->reqs.push_back({r, Kind::Burst, due});
                }
                slot += kBurst;
                continue;
            } else {
                const EvalRequest r = cold(id, slot);
                remember(r);
                ph->reqs.push_back({r, Kind::Cold, due});
            }
            ++slot;
        }
        return ph;
    }

  private:
    double
    draw(std::uint32_t phase, std::size_t slot, unsigned k) const
    {
        const std::uint64_t bits = mixSeed(
            seed, kDraw, (std::uint64_t{phase} << 40) ^ (slot << 3) ^ k);
        return static_cast<double>(bits >> 11) * 0x1.0p-53;
    }

    /** A cold sim request with a seed never used before in the run. */
    EvalRequest
    cold(std::uint32_t phase, std::size_t slot)
    {
        EvalRequest r;
        r.bankBits = draw(phase, slot, 2) < 0.5 ? 5 : 6;
        r.memoryTime = 4 + 4 * static_cast<std::uint64_t>(
                                   draw(phase, slot, 3) * 16.0);
        r.blockingFactor = std::uint64_t{256}
                           << static_cast<unsigned>(draw(phase, slot, 4) * 4);
        r.seed = mixSeed(seed, kColdSeed, coldCount++);
        return r;
    }

    void remember(const EvalRequest &r) { history.push_back(r); }

    const std::uint64_t seed;
    std::uint64_t coldCount = 0;
    std::vector<EvalRequest> history;
};

/** Loopback client: one generator (the caller) and a reader thread
 *  per connection. */
class Client
{
  public:
    Client(std::uint16_t port, unsigned conns)
    {
        for (unsigned c = 0; c < conns; ++c) {
            const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (fd < 0)
                throw std::runtime_error("socket() failed");
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) != 0) {
                ::close(fd);
                throw std::runtime_error("connect() to the server failed");
            }
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            fds.push_back(fd);
        }
        for (unsigned c = 0; c < conns; ++c)
            readers.emplace_back([this, c] { receive(c); });
    }

    ~Client()
    {
        for (const int fd : fds)
            ::shutdown(fd, SHUT_RDWR);
        for (auto &t : readers)
            t.join();
        for (const int fd : fds)
            ::close(fd);
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Send `ph` on its schedule and wait for every answer (or a
     *  5 s grace period past the last send). */
    void
    run(Phase &ph)
    {
        const std::size_t n = ph.reqs.size();
        std::vector<std::string> lines(n);
        for (std::size_t i = 0; i < n; ++i)
            lines[i] = wireLine(ph.reqs[i], ph.id, i) + "\n";
        {
            std::lock_guard<std::mutex> lock(mtx);
            ph.sentNs.assign(n, 0);
            ph.recvNs.assign(n, 0);
            ph.outcome.assign(n, Outcome::Pending);
            ph.payload.assign(n, std::string());
            ph.originNs = nowNs() + 1'000'000;
            current = &ph;
        }

        std::size_t event = 0;
        for (std::size_t i = 0; i < n; ++event) {
            // Requests sharing a due time (a burst) go out together.
            std::string batch;
            const std::int64_t due = ph.reqs[i].dueNs;
            std::size_t j = i;
            for (; j < n && ph.reqs[j].dueNs == due; ++j)
                batch += lines[j];
            const std::int64_t wait = ph.originNs + due - nowNs();
            if (wait > 0)
                std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
            const std::int64_t sent = nowNs();
            {
                std::lock_guard<std::mutex> lock(mtx);
                for (std::size_t k = i; k < j; ++k)
                    ph.sentNs[k] = sent;
            }
            sendAll(fds[event % fds.size()], batch);
            i = j;
        }

        const std::int64_t last_due =
            n ? ph.originNs + ph.reqs.back().dueNs : nowNs();
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait_for(
            lock,
            std::chrono::nanoseconds(std::max<std::int64_t>(
                0, last_due + 5'000'000'000 - nowNs())),
            [&] { return ph.received == n; });
        current = nullptr;
    }

    /** Answers that matched no open phase (should stay 0). */
    std::uint64_t strays() const { return strayCount.load(); }

  private:
    static void
    sendAll(int fd, const std::string &data)
    {
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t k = ::send(fd, data.data() + off, data.size() - off,
                                     MSG_NOSIGNAL);
            if (k <= 0)
                throw std::runtime_error("send() to the server failed");
            off += static_cast<std::size_t>(k);
        }
    }

    void
    receive(unsigned c)
    {
        std::string buffer;
        char chunk[65536];
        for (;;) {
            const ssize_t k = ::recv(fds[c], chunk, sizeof chunk, 0);
            if (k <= 0)
                return;
            buffer.append(chunk, static_cast<std::size_t>(k));
            std::size_t start = 0;
            for (std::size_t nl; (nl = buffer.find('\n', start)) !=
                                 std::string::npos;
                 start = nl + 1)
                deliver(buffer.substr(start, nl - start));
            buffer.erase(0, start);
        }
    }

    void
    deliver(const std::string &line)
    {
        const std::int64_t now = nowNs();
        const auto id_at = line.find("\"id\":\"");
        if (id_at == std::string::npos) {
            ++strayCount;
            return;
        }
        // The id is "<phase>:<index>", as wireLine writes it.
        const char *p = line.data() + id_at + 6;
        const char *end = line.data() + line.size();
        std::uint32_t phase = 0;
        std::size_t index = 0;
        const auto a = std::from_chars(p, end, phase);
        if (a.ec != std::errc() || a.ptr >= end || *a.ptr != ':') {
            ++strayCount;
            return;
        }
        const auto b = std::from_chars(a.ptr + 1, end, index);
        if (b.ec != std::errc() || b.ptr >= end || *b.ptr != '"') {
            ++strayCount;
            return;
        }

        Outcome out = Outcome::Error;
        std::string payload;
        if (line.rfind("{\"ok\":true", 0) == 0) {
            out = Outcome::Ok;
            const auto r = line.find("\"result\":");
            if (r != std::string::npos && line.back() == '}')
                payload = line.substr(r + 9, line.size() - r - 10);
        } else if (line.find("\"error\":\"InvalidConfig\"") !=
                   std::string::npos) {
            out = Outcome::Invalid;
        } else if (line.find("\"error\":\"Overloaded\"") !=
                   std::string::npos) {
            out = Outcome::Shed;
        }

        // Under the lock, so run() cannot end the phase meanwhile.
        std::lock_guard<std::mutex> lock(mtx);
        Phase *ph = current;
        if (!ph || phase != ph->id || index >= ph->reqs.size() ||
            ph->outcome[index] != Outcome::Pending) {
            ++strayCount;
            return;
        }
        // Client-side request span, from the scheduled send time.
        Tracer::get().record("serve.request",
                             ph->originNs + ph->reqs[index].dueNs, now,
                             (std::uint64_t{phase} << 32) + index + 1);
        ph->recvNs[index] = now;
        ph->outcome[index] = out;
        ph->payload[index] = std::move(payload);
        if (++ph->received == ph->reqs.size())
            cv.notify_all();
    }

    std::vector<int> fds;
    std::vector<std::thread> readers;
    std::mutex mtx;
    std::condition_variable cv;
    /** The phase being sent; receivers only touch it under mtx. */
    Phase *current = nullptr;
    std::atomic<std::uint64_t> strayCount{0};
};

/** A planned request kept for verification and the probes. */
struct Sample
{
    Planned planned;
    Outcome outcome = Outcome::Pending;
    /** The served "result" fragment (Ok answers only). */
    std::string payload;
    /** Client latency from the scheduled send time, in ms. */
    double latencyMs = kInf;
};

/** What one settled phase measured. */
struct PhaseStats
{
    double p50 = kInf;
    double p99 = kInf;
    /** Answers per second, over the phase's span. */
    double achieved = 0.0;
    /** p99 of how late the generator sent, in ms. */
    double lateP99 = 0.0;
    bool passed = false;
    /** Share of the host's vCPU time stolen during the phase. */
    double steal = 0.0;
    /** Per-request latencies in ms (infinite when not answered). */
    std::vector<double> latencies;
};

/**
 * Check every answer of a closed phase and compute its figures.  Shed
 * and missing answers count as missing the latency limit; a missing
 * or wrong answer also fails the operation.
 */
PhaseStats
settle(const Phase &ph, double steal, Report &report,
       std::vector<Sample> *samples)
{
    const std::size_t n = ph.reqs.size();
    std::vector<double> lat, late;
    std::size_t answered = 0;
    std::int64_t last_sent = 0, last_recv = ph.originNs;
    for (std::size_t i = 0; i < n; ++i)
        last_sent = std::max(last_sent, ph.sentNs[i]);
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Planned &p = ph.reqs[i];
        const Outcome expected =
            p.kind == Kind::Invalid ? Outcome::Invalid : Outcome::Ok;
        const Outcome got = ph.outcome[i];
        ++report.attempted;
        double ms = kInf;
        if (got == Outcome::Pending || got == Outcome::Error) {
            report.verify(false, got == Outcome::Pending
                                     ? "request never answered"
                                     : "unexpected error answer");
        } else if (got != Outcome::Shed) {
            report.verify(got == expected, "wrong kind of answer");
            if (got == expected) {
                ms = static_cast<double>(ph.recvNs[i] - ph.originNs -
                                         p.dueNs) /
                     1e6;
                ++answered;
                last_recv = std::max(last_recv, ph.recvNs[i]);
            }
        }
        if (got == Outcome::Pending || ph.recvNs[i] > last_sent)
            ++backlog;
        lat.push_back(ms);
        late.push_back(
            static_cast<double>(ph.sentNs[i] - ph.originNs - p.dueNs) / 1e6);
        if (samples && i % kSampleStride == 0 &&
            samples->size() < kMaxSamples)
            samples->push_back(Sample{p, got, ph.payload[i], ms});
    }
    PhaseStats st;
    st.steal = steal;
    st.p50 = quantile(lat, 0.50);
    st.p99 = quantile(lat, 0.99);
    st.latencies = std::move(lat);
    st.lateP99 = quantile(late, 0.99);
    st.achieved = static_cast<double>(answered) /
                  (static_cast<double>(last_recv - ph.originNs) / 1e9);
    // A growing backlog: more requests outstanding when sending ends
    // than the latency limit lets the server drain.
    const double drainable = ph.rate * kLimitMs / 1e3 + 2 * kBurst;
    st.passed = st.p99 <= kLimitMs &&
                static_cast<double>(backlog) <= drainable;
    std::cerr << "serve phase " << ph.id << ": offered " << ph.rate
              << "/s, " << n << " requests, p50 " << st.p50 << " ms, p99 "
              << st.p99 << " ms, achieved " << st.achieved << "/s, backlog "
              << backlog << ", steal " << steal
              << (st.passed ? ", passed\n" : ", missed\n");
    return st;
}

/** Server counters as deltas between two snapshots. */
double
delta(const std::map<std::string, std::uint64_t> &after,
      const std::map<std::string, std::uint64_t> &before,
      const std::string &name)
{
    const auto a = after.find(name);
    const auto b = before.find(name);
    return static_cast<double>((a == after.end() ? 0 : a->second) -
                               (b == before.end() ? 0 : b->second));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
runServe(const Options &opts, Report &report)
{
    const unsigned workers = std::max(1u, std::min(2u, opts.nproc / 2));
    const unsigned conns = std::max(1u, std::min(2u, opts.nproc - workers));
    report.context["server_threads"] = std::to_string(workers);
    report.context["client_connections"] = std::to_string(conns);
    report.context["client_generators"] = "1";

    serve::ServerOptions so;
    so.threads = workers;
    so.allowRemoteShutdown = false;

    Planner planner(opts.seed);
    std::uint32_t phase_id = 0;
    std::unique_ptr<serve::EvalServer> server;
    std::unique_ptr<Client> client;
    Tracer &tracer = Tracer::get();

    // Set-up: start the server, connect, and answer 64 requests sent
    // within 3 ms; three times, keeping the last server.
    std::vector<double> setups;
    for (int rep = 0; rep < 3; ++rep) {
        client.reset();
        server.reset();
        const std::int64_t t0 = processCpuNs();
        server = serve::EvalServer::start(so).value();
        client = std::make_unique<Client>(server->port(), conns);
        auto warm = planner.plan(++phase_id, 20000.0, 64 / 20000.0);
        client->run(*warm);
        settle(*warm, 0.0, report, nullptr);
        setups.push_back(static_cast<double>(processCpuNs() - t0) / 1e9);
    }
    report.set("setup_s", median(setups), "s");

    std::vector<Sample> samples;
    auto phase = [&](double rate, double seconds, bool keep) {
        auto ph = planner.plan(++phase_id, rate, seconds);
        const CpuJiffies j0 = cpuJiffies();
        client->run(*ph);
        return settle(*ph, stealFraction(j0, cpuJiffies()), report,
                      keep ? &samples : nullptr);
    };
    const double middle = kLadder[kMiddle];

    if (!opts.trace) {
        std::vector<PhaseStats> windows;
        std::vector<double> steal;
        for (int w = 0; w < kMiddleWindows; ++w) {
            windows.push_back(
                phase(middle, 0.4 * opts.seconds / kMiddleWindows, true));
            steal.push_back(windows.back().steal);
        }
        // The figures pool the half of the windows in which the
        // hypervisor stole the least vCPU time: a window it starved
        // measures the host's other tenants, not the server.
        std::stable_sort(windows.begin(), windows.end(),
                         [](const PhaseStats &a, const PhaseStats &b) {
                             return a.steal < b.steal;
                         });
        windows.resize(kMiddleWindows / 2);
        std::vector<double> pooled, achieved;
        for (const PhaseStats &st : windows) {
            pooled.insert(pooled.end(), st.latencies.begin(),
                          st.latencies.end());
            achieved.push_back(st.achieved);
        }
        report.set("p50_ms", quantile(pooled, 0.50), "ms");
        report.set("p99_ms", quantile(pooled, 0.99), "ms");
        report.set("units_per_s", median(achieved), "1/s");
        report.context["serve_steal_median"] = canonicalDouble(median(steal));
        report.context["serve_steal_used_max"] =
            canonicalDouble(windows.back().steal);
        // Memory after a fixed amount of served work: the ladder's
        // length (and so the memo's size) depends on the host's speed.
        report.set("peak_rss_mb", peakRssMb(), "MiB");

        // Every rung of the ladder, then bisection between the highest
        // passing rung and the rung above it.  max_rps is the answer
        // rate achieved at the highest passing probe.
        const double probe_s = 0.6 * opts.seconds /
                               (std::size(kLadder) + kBisections);
        double best = 0.0, lo = 0.0, hi = 0.0;
        for (const double rate : kLadder) {
            const PhaseStats st = phase(rate, probe_s, false);
            if (st.passed) {
                best = st.achieved;
                lo = rate;
                hi = 0.0;
            } else if (hi == 0.0) {
                hi = rate;
            }
        }
        for (int b = 0; b < kBisections && lo > 0.0 && hi > lo; ++b) {
            const double mid = std::sqrt(lo * hi);
            const PhaseStats st = phase(mid, probe_s, false);
            if (st.passed) {
                best = st.achieved;
                lo = mid;
            } else {
                hi = mid;
            }
        }
        report.set("max_rps", best, "1/s");
    } else {
        // Untraced and traced windows at the middle rate alternate.
        const auto before = server->statsSnapshot();
        std::vector<double> plain, traced, late;
        for (int w = 0; w < 2 * kWindows; ++w) {
            const bool on = w % 2 == 1;
            tracer.enable(on);
            const PhaseStats st =
                phase(middle, 0.5 * opts.seconds / (2 * kWindows), true);
            (on ? traced : plain).push_back(st.p50);
            late.push_back(st.lateP99);
        }
        tracer.enable(false);
        const auto after = server->statsSnapshot();
        report.set("obs.trace_overhead_frac",
                   median(traced) / median(plain) - 1.0, "ratio");
        report.set("serve.gen_late_ms", median(late), "ms");

        const double hits = delta(after, before, "memo.hits");
        const double misses = delta(after, before, "memo.misses");
        const double requests = delta(after, before, "serve.requests");
        const double coalesced = delta(after, before, "serve.coalesced");
        report.set("memo.hit_ratio", ratio(hits, hits + misses), "ratio");
        report.set("serve.batched_frac",
                   ratio(delta(after, before, "serve.batched"),
                         misses - coalesced),
                   "ratio");
        report.set("serve.batch_size_mean",
                   ratio(delta(after, before, "serve.batched"),
                         delta(after, before, "serve.batches")),
                   "count");
        report.set("serve.coalesced_frac", ratio(coalesced, requests),
                   "ratio");
        report.set("serve.shed_frac",
                   ratio(delta(after, before, "serve.shed"), requests),
                   "ratio");
        report.set("serve.queue_peak",
                   static_cast<double>(after.at("serve.queue_peak")),
                   "count");
    }
    report.verify(client->strays() == 0, "answers matched no request");
    client.reset();
    server.reset();

    if (opts.trace) {
        tracer.enable(true);
        tracer.nameThread("serve probes");
        // Parse and render, measured on the sampled requests; the
        // stepped evaluation must render the served bytes.
        SimProbe probe;
        double parse_ns = 0.0, render_ns = 0.0, overhead_us = 0.0;
        std::size_t renders = 0, overheads = 0;
        const std::int64_t from = nowNs();
        for (std::size_t k = 0; k < samples.size(); ++k) {
            const Sample &s = samples[k];
            const EvalRequest &req = s.planned.req;
            const std::uint64_t rid = (std::uint64_t{1} << 40) + k;
            const std::string line = wireLine(s.planned, 0, k);
            Expected<serve::Request> parsed = serve::Request{};
            {
                Tracer::Scope span("serve.parse", rid);
                parse_ns += cpuNs(
                    [&] { parsed = serve::parseRequest(line); });
            }
            report.verify(parsed.ok() &&
                              canonicalEvalRequest(parsed.value().eval) ==
                                  canonicalEvalRequest(req),
                          "request line does not parse back");
            if (s.planned.kind == Kind::Invalid)
                continue;
            ++report.attempted;
            PointTraces traces;
            const EvalResult stepped = stepPoint(req, rid, &traces);
            std::string payload;
            {
                Tracer::Scope span("serve.render", rid);
                render_ns += cpuNs([&] {
                    payload = serve::renderResultPayload(req, stepped);
                });
            }
            ++renders;
            if (s.outcome == Outcome::Ok)
                report.verify(payload == s.payload,
                              "stepped evaluation renders other bytes "
                              "than the server sent");
            if (req.sim)
                probe.add(req, stepped, traces, report);
            if (s.planned.kind == Kind::Cold && s.outcome == Outcome::Ok) {
                Tracer::Scope span("evaluatePoint", rid);
                const double direct_ns =
                    cpuNs([&] { evaluatePoint(req).value(); });
                overhead_us += s.latencyMs * 1e3 - direct_ns / 1e3;
                ++overheads;
            }
        }
        const std::int64_t to = nowNs();
        report.set("serve.parse_us",
                   parse_ns / 1e3 / static_cast<double>(samples.size()),
                   "us");
        report.set("serve.render_us",
                   ratio(render_ns / 1e3, static_cast<double>(renders)), "us");
        report.set("serve.overhead_us",
                   ratio(overhead_us, static_cast<double>(overheads)), "us");
        probe.publish(report, from, to,
                      static_cast<double>(probe.points()));

        // The server's batches, re-run directly: each sampled burst's
        // group one call, stepped, and as solo calls.
        double batch_ns = 0.0, solo_ns = 0.0, gang_ns = 0.0, lanes = 0.0;
        std::size_t groups = 0;
        for (std::size_t k = 0; k < samples.size(); ++k) {
            if (samples[k].planned.kind != Kind::Burst)
                continue;
            std::vector<EvalRequest> reqs;
            for (unsigned b = 0; b < kBurst; ++b) {
                EvalRequest r = samples[k].planned.req;
                r.memoryTime = 8 + 16 * b;
                reqs.push_back(r);
            }
            const std::uint64_t rid = (std::uint64_t{2} << 40) + k;
            report.attempted += reqs.size();
            std::vector<Expected<EvalResult>> batched;
            {
                Tracer::Scope span("evaluateBatch", rid);
                batch_ns += cpuNs([&] { batched = evaluateBatch(reqs); });
            }
            const std::int64_t g0 = nowNs();
            const auto stepped = stepBatch(reqs, rid);
            const auto gl = tracer.layers(g0, nowNs());
            gang_ns += gl.at("sim.gang_direct").selfCpuNs +
                       gl.at("sim.gang_prime").selfCpuNs;
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                Expected<EvalResult> solo = EvalResult{};
                solo_ns += cpuNs([&] { solo = evaluatePoint(reqs[i]); });
                report.verify(batched[i].ok() && solo.ok() &&
                                  sameResult(batched[i].value(), stepped[i]) &&
                                  sameResult(solo.value(), stepped[i]),
                              "batched, stepped and solo results differ");
            }
            lanes += static_cast<double>(reqs.size());
            ++groups;
        }
        const double g = static_cast<double>(groups);
        report.set("sim.batch_us", ratio(batch_ns / 1e3, g), "us");
        report.set("sim.gang_us", ratio(gang_ns / 1e3, g), "us");
        report.set("sim.batch.lanes", ratio(lanes, g), "count");
        report.set("sim.batch.speedup", ratio(solo_ns, batch_ns), "ratio");
        tracer.enable(false);
    }

    // Verification, outside the timed region: sampled served payloads
    // must equal the one-call evaluation rendered locally.
    for (const Sample &s : samples) {
        if (s.outcome != Outcome::Ok)
            continue;
        const auto r = evaluatePoint(s.planned.req);
        report.verify(r.ok() && serve::renderResultPayload(
                                    s.planned.req, r.value()) == s.payload,
                      "served payload differs from evaluatePoint");
    }
    if (opts.trace)
        report.set("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace perfbench
