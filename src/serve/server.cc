#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hh"
#include "obs/registry.hh"
#include "serve/proto.hh"
#include "sim/cancel.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"

namespace vcache::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Reject a single request line larger than this: nothing in the
 * protocol is remotely this big, so it is garbage or abuse. */
constexpr std::size_t kMaxLineBytes = 1 << 20;

/**
 * SIGINT/SIGTERM latch for the graceful drain.  The handler only
 * sets the flag (async-signal-safe); a monitor thread turns it into
 * requestShutdown().  A lock-free atomic rather than volatile
 * sig_atomic_t because the reader is a *different thread*, not the
 * interrupted one — volatile alone is a cross-thread data race.
 */
std::atomic<int> g_serve_signal{0};
static_assert(std::atomic<int>::is_always_lock_free,
              "signal handler requires a lock-free flag");

void
serveSignalHandler(int)
{
    g_serve_signal.store(1, std::memory_order_relaxed);
}

/** One client connection; writers serialize on write_mtx. */
struct Connection
{
    explicit Connection(int fd) : fd(fd) {}

    int fd;
    std::mutex write_mtx;
    std::atomic<bool> dead{false};
};

using ConnPtr = std::shared_ptr<Connection>;

/** One admitted eval request. */
struct Job
{
    ConnPtr conn;
    std::string id;
    EvalRequest eval;
    /**
     * Workload identity (sim/evaluate.hh workloadKey), computed once
     * at admission: a worker wakeup drains only same-key neighbours
     * into its batch, because only they share a trace pass.
     */
    std::string wkey;
    bool hasDeadline = false;
    Clock::time_point deadline{};
};

/**
 * Per-request cancellation state, scanned by the deadline watchdog.
 * Epoch-tagged exactly like the sweep's: the watchdog cancels only
 * the epoch it snapshotted, so a deadline firing as a point
 * completes can never leak into the worker's next point.
 */
struct WorkerEntry
{
    CancelToken token;
    /** Deadline as ns since the clock epoch; 0 = none armed. */
    std::atomic<std::int64_t> deadlineNs{0};
    std::atomic<std::uint64_t> snapshot{0};
};

/**
 * One worker's cancellation entries: entry k guards the k-th request
 * of the batch the worker is evaluating (a solo request uses entry
 * 0), so each request in a batch keeps its own deadline.
 */
struct WorkerSlot
{
    std::vector<WorkerEntry> entries;
};

std::int64_t
toNs(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

} // namespace

class EvalServer::Impl
{
  public:
    explicit Impl(const ServerOptions &options) : opts(options) {}

    ~Impl()
    {
        requestShutdown();
        wait();
        if (accept_thread.joinable())
            accept_thread.join();
        if (lifecycle_thread.joinable())
            lifecycle_thread.join();
        if (signal_thread.joinable())
            signal_thread.join();
        if (listen_fd >= 0)
            ::close(listen_fd);
    }

    Expected<void>
    start()
    {
        auto memo_opened = MemoStore::open(opts.memo);
        if (!memo_opened.ok())
            return memo_opened.error();
        memo_store = std::move(memo_opened.value());

        auto bound = bindAndListen();
        if (!bound.ok())
            return bound.error();

        const unsigned workers =
            opts.threads > 0
                ? opts.threads
                : std::max(1u, std::thread::hardware_concurrency());
        slots = std::make_unique<WorkerSlot[]>(workers);
        const std::size_t batch_max = std::max<std::size_t>(
            1, opts.batchMax);
        for (unsigned i = 0; i < workers; ++i)
            slots[i].entries =
                std::vector<WorkerEntry>(batch_max);
        worker_threads.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            worker_threads.emplace_back(
                [this, i] { workerLoop(slots[i]); });
        watchdog_thread =
            std::thread([this, workers] { watchdogLoop(workers); });
        accept_thread = std::thread([this] { acceptLoop(); });
        lifecycle_thread = std::thread([this] { lifecycleLoop(); });
        if (opts.handleSignals) {
            g_serve_signal = 0;
            std::signal(SIGINT, serveSignalHandler);
            std::signal(SIGTERM, serveSignalHandler);
            signal_thread = std::thread([this] { signalLoop(); });
        }
        return {};
    }

    std::uint16_t port() const { return bound_port; }

    void
    requestShutdown()
    {
        {
            std::lock_guard<std::mutex> lock(lifecycle_mtx);
            if (drain)
                return;
            drain = true;
        }
        lifecycle_cv.notify_all();
        queue_cv.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(lifecycle_mtx);
        done_cv.wait(lock, [this] { return done; });
    }

    bool
    draining() const
    {
        std::lock_guard<std::mutex> lock(lifecycle_mtx);
        return drain;
    }

    std::map<std::string, std::uint64_t>
    statsSnapshot() const
    {
        std::map<std::string, std::uint64_t> out;
        out["serve.requests"] = requests.load();
        out["serve.malformed"] = malformed_count.load();
        out["serve.eval_ok"] = eval_ok.load();
        out["serve.eval_error"] = eval_error.load();
        out["serve.shed"] = shed.load();
        out["serve.deadline_exceeded"] = deadline_exceeded.load();
        out["serve.coalesced"] = coalesced.load();
        out["serve.connections"] = connections.load();
        out["serve.accept_faults"] = accept_faults.load();
        out["serve.queue_peak"] = queue_peak.load();
        out["serve.batched"] = batched.load();
        out["serve.batches"] = batches.load();
        {
            std::lock_guard<std::mutex> lock(batch_hist_mtx);
            out["serve.batch_size_max"] = batch_hist.max();
        }
        {
            std::lock_guard<std::mutex> lock(queue_mtx);
            out["serve.queue_depth"] = queue.size();
        }
        const MemoStats m = memo_store->stats();
        out["memo.hits"] = m.hits;
        out["memo.misses"] = m.misses;
        out["memo.inserts"] = m.inserts;
        out["memo.evictions"] = m.evictions;
        out["memo.collisions"] = m.collisions;
        out["memo.journal_loaded"] = m.journalLoaded;
        out["memo.journal_dropped"] = m.journalDropped;
        out["memo.journal_invalidated"] = m.journalInvalidated;
        out["memo.compactions"] = m.compactions;
        out["memo.entries"] = memo_store->size();
        return out;
    }

    const MemoStore &memo() const { return *memo_store; }

    void
    publishBatchHistogram(ObsRegistry &registry) const
    {
        std::lock_guard<std::mutex> lock(batch_hist_mtx);
        registry
            .histogram("serve.batch_size",
                       "requests per multi-request batched "
                       "evaluation")
            .merge(batch_hist);
    }

  private:
    // -----------------------------------------------------------------
    // Socket plumbing.
    // -----------------------------------------------------------------

    Expected<void>
    bindAndListen()
    {
        listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listen_fd < 0)
            return makeError(Errc::Io, "socket: " +
                                           std::string(
                                               std::strerror(errno)));
        const int one = 1;
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);

        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(opts.port);
        if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) !=
            1)
            return makeError(Errc::InvalidConfig,
                             "bad bind address '" + opts.host + "'");
        if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0)
            return makeError(Errc::Io,
                             "bind " + opts.host + ":" +
                                 std::to_string(opts.port) + ": " +
                                 std::strerror(errno));
        if (::listen(listen_fd, 128) != 0)
            return makeError(Errc::Io, "listen: " +
                                           std::string(
                                               std::strerror(errno)));
        sockaddr_in bound{};
        socklen_t len = sizeof bound;
        if (::getsockname(listen_fd,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) != 0)
            return makeError(Errc::Io, "getsockname: " +
                                           std::string(
                                               std::strerror(errno)));
        bound_port = ntohs(bound.sin_port);
        return {};
    }

    void
    writeLine(const ConnPtr &conn, const std::string &line)
    {
        if (conn->dead.load(std::memory_order_relaxed))
            return;
        std::string framed = line;
        framed.push_back('\n');
        std::lock_guard<std::mutex> lock(conn->write_mtx);
        std::size_t sent = 0;
        while (sent < framed.size()) {
            const ssize_t n =
                ::send(conn->fd, framed.data() + sent,
                       framed.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                // A vanished client is its own problem; evaluation
                // results it abandoned still landed in the memo.
                conn->dead.store(true, std::memory_order_relaxed);
                return;
            }
            sent += static_cast<std::size_t>(n);
        }
    }

    // -----------------------------------------------------------------
    // Accept / read / per-line dispatch.
    // -----------------------------------------------------------------

    void
    acceptLoop()
    {
        for (;;) {
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR)
                    continue;
                // shutdown() of the listen socket during drain lands
                // here; so would a transient accept failure under
                // fd exhaustion, which must not end the loop.
                if (draining())
                    return;
                continue;
            }
            if (draining()) {
                ::close(fd);
                continue;
            }
            // Each reply is one small write: with Nagle's algorithm on,
            // a reply sent while the previous one is unacknowledged
            // waits for the client's delayed ACK (tens of ms).
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            try {
                VCACHE_FAULT_POINT("serve.accept");
            } catch (const VcError &) {
                // An injected accept fault costs one connection,
                // never the server.
                accept_faults.fetch_add(1);
                ::close(fd);
                continue;
            }
            auto conn = std::make_shared<Connection>(fd);
            connections.fetch_add(1);
            {
                std::lock_guard<std::mutex> lock(conns_mtx);
                conns.push_back(conn);
                reader_threads.emplace_back(
                    [this, conn] { readerLoop(conn); });
            }
        }
    }

    void
    readerLoop(const ConnPtr &conn)
    {
        std::string buffer;
        char chunk[4096];
        for (;;) {
            const ssize_t n =
                ::recv(conn->fd, chunk, sizeof chunk, 0);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                break;
            }
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (;;) {
                const auto nl = buffer.find('\n', start);
                if (nl == std::string::npos)
                    break;
                // Per-connection isolation: a throwing handler must
                // not take down the reader, let alone the server.
                try {
                    handleLine(conn,
                               buffer.substr(start, nl - start));
                } catch (const std::exception &e) {
                    warn("serve: request handler error: ", e.what());
                }
                start = nl + 1;
            }
            buffer.erase(0, start);
            if (buffer.size() > kMaxLineBytes) {
                writeLine(conn,
                          renderError(
                              "", makeError(Errc::InvalidConfig,
                                            "request line exceeds " +
                                                std::to_string(
                                                    kMaxLineBytes) +
                                                " bytes")));
                break;
            }
        }
        conn->dead.store(true, std::memory_order_relaxed);
        ::shutdown(conn->fd, SHUT_RDWR);
    }

    void
    handleLine(const ConnPtr &conn, const std::string &line)
    {
        if (line.empty() ||
            line.find_first_not_of(" \t\r") == std::string::npos)
            return;
        requests.fetch_add(1);

        auto parsed = parseRequest(line);
        if (!parsed.ok()) {
            malformed_count.fetch_add(1);
            writeLine(conn, renderError("", parsed.error()));
            return;
        }
        Request &req = parsed.value();
        switch (req.verb) {
          case Verb::Hello:
            writeLine(conn, renderHello());
            return;
          case Verb::Stats:
            writeLine(conn, renderStats(statsSnapshot()));
            return;
          case Verb::Metrics:
            writeLine(conn, renderMetrics(statsSnapshot()));
            return;
          case Verb::Shutdown:
            if (!opts.allowRemoteShutdown) {
                writeLine(conn,
                          renderError(req.id,
                                      makeError(Errc::InvalidConfig,
                                                "remote shutdown is "
                                                "disabled")));
                return;
            }
            writeLine(conn, renderShutdownAck());
            requestShutdown();
            return;
          case Verb::Eval:
            admit(conn, req);
            return;
        }
    }

    void
    admit(const ConnPtr &conn, Request &req)
    {
        // Reject before admission: a malformed point must not spend
        // queue capacity or a worker wakeup.
        if (auto valid = validateEvalRequest(req.eval); !valid.ok()) {
            eval_error.fetch_add(1);
            writeLine(conn, renderError(req.id, valid.error()));
            return;
        }

        Job job;
        job.conn = conn;
        job.id = std::move(req.id);
        job.eval = req.eval;
        job.wkey = workloadKey(req.eval);
        const std::uint64_t deadline_ms =
            req.deadlineMs > 0 ? req.deadlineMs
                               : opts.defaultDeadlineMs;
        if (deadline_ms > 0) {
            job.hasDeadline = true;
            job.deadline = Clock::now() +
                           std::chrono::milliseconds(deadline_ms);
        }

        bool admitted = false;
        try {
            VCACHE_FAULT_POINT("serve.queue");
            std::lock_guard<std::mutex> lock(queue_mtx);
            if (!drainingRelaxed() &&
                queue.size() < opts.queueDepth) {
                queue.push_back(std::move(job));
                admitted = true;
                // Monotone-max update.  The CAS loop is the standard
                // fetch-max: a failed compare_exchange_weak reloads
                // `peak`, and the loop exits as soon as another
                // admitter has published an equal-or-higher peak, so
                // the counter can only grow and never regresses
                // under concurrent admits.  Admission itself holds
                // queue_mtx, but statsSnapshot reads queue_peak
                // without it -- the atomic is for that reader, and
                // the loop stays correct even if admission ever
                // stops serializing.
                const std::uint64_t depth = queue.size();
                std::uint64_t peak = queue_peak.load();
                while (depth > peak &&
                       !queue_peak.compare_exchange_weak(peak,
                                                         depth)) {
                }
            }
        } catch (const VcError &) {
            // An injected queue fault sheds this request, nothing
            // else.
            admitted = false;
        }
        if (!admitted) {
            if (drainingRelaxed()) {
                eval_error.fetch_add(1);
                writeLine(conn,
                          renderError(job.id,
                                      makeError(Errc::Cancelled,
                                                "server is "
                                                "draining")));
            } else {
                shed.fetch_add(1);
                writeLine(conn, renderOverloaded(job.id,
                                                 opts.retryAfterMs));
            }
            return;
        }
        queue_cv.notify_one();
    }

    // -----------------------------------------------------------------
    // Worker pool, coalescing and deadlines.
    // -----------------------------------------------------------------

    void
    workerLoop(WorkerSlot &slot)
    {
        for (;;) {
            std::vector<Job> jobs;
            {
                std::unique_lock<std::mutex> lock(queue_mtx);
                queue_cv.wait(lock, [this] {
                    return !queue.empty() || drainingRelaxed();
                });
                if (queue.empty())
                    return; // draining and nothing left: exit
                jobs.push_back(std::move(queue.front()));
                queue.pop_front();
                // Drain queued neighbours with the same workload key
                // into this wakeup: they share one trace pass.  The
                // scan keeps relative queue order for both the taken
                // and the left-behind jobs, so no request is
                // reordered past a compatible one.
                const std::size_t batch_max = slot.entries.size();
                for (auto it = queue.begin();
                     it != queue.end() &&
                     jobs.size() < batch_max;) {
                    if (it->wkey == jobs.front().wkey) {
                        jobs.push_back(std::move(*it));
                        it = queue.erase(it);
                    } else {
                        ++it;
                    }
                }
            }
            process(std::move(jobs), slot);
        }
    }

    void
    process(std::vector<Job> jobs, WorkerSlot &slot)
    {
        // Per-request admission-era treatment, exactly as a solo
        // wakeup would apply it: queued-deadline expiry, memo hits
        // and in-flight coalescing each retire a request before it
        // costs any evaluation.  Survivors carry their memo key.
        std::vector<Job> live;
        std::vector<std::uint64_t> keys;
        live.reserve(jobs.size());
        keys.reserve(jobs.size());
        for (Job &job : jobs) {
            if (job.hasDeadline && Clock::now() >= job.deadline) {
                deadline_exceeded.fetch_add(1);
                eval_error.fetch_add(1);
                writeLine(job.conn,
                          renderError(job.id,
                                      makeError(
                                          Errc::Timeout,
                                          "deadline expired while "
                                          "queued")));
                continue;
            }

            const std::string canonical =
                canonicalEvalRequest(job.eval);
            const std::uint64_t key = fnv1a64(canonical);

            if (auto hit = memo_store->lookup(key, canonical)) {
                eval_ok.fetch_add(1);
                writeLine(job.conn,
                          renderEvalOk(job.id, key, *hit,
                                       /*cached=*/true,
                                       /*coalesced=*/false));
                continue;
            }

            {
                // Coalesce with an identical in-flight computation:
                // the first requester computes, the rest wait for
                // its bytes.  Two identical requests in this very
                // batch coalesce the same way -- the first one
                // registers, the second parks behind it.
                std::lock_guard<std::mutex> lock(inflight_mtx);
                const auto it = inflight.find(key);
                if (it != inflight.end()) {
                    it->second.push_back(std::move(job));
                    continue;
                }
                inflight.emplace(key, std::vector<Job>{});
            }
            live.push_back(std::move(job));
            keys.push_back(key);
        }
        if (live.empty())
            return;

        if (live.size() > 1) {
            batched.fetch_add(live.size());
            batches.fetch_add(1);
            std::lock_guard<std::mutex> lock(batch_hist_mtx);
            batch_hist.add(live.size());
        }

        // The serve.evaluate fault site fires once per request,
        // before the batch runs, so an armed plan's hit counts stay
        // per-request; a tripped site costs that request alone.
        std::vector<Expected<EvalResult>> results;
        results.reserve(live.size());
        std::vector<const EvalRequest *> surviving;
        std::vector<const CancelToken *> cancels;
        std::vector<std::size_t> survivor_of;
        for (std::size_t k = 0; k < live.size(); ++k) {
            results.emplace_back(
                makeError(Errc::InternalInvariant,
                          "request never evaluated"));
            try {
                VCACHE_FAULT_POINT("serve.evaluate");
            } catch (const VcError &e) {
                results[k] = e.error();
                continue;
            }
            // Arm this request's own deadline watchdog entry.
            WorkerEntry &entry = slot.entries[k];
            entry.token.beginEpoch();
            entry.snapshot.store(entry.token.snapshot(),
                                 std::memory_order_release);
            entry.deadlineNs.store(
                live[k].hasDeadline ? toNs(live[k].deadline) : 0,
                std::memory_order_release);
            surviving.push_back(&live[k].eval);
            cancels.push_back(&entry.token);
            survivor_of.push_back(k);
        }

        if (!surviving.empty()) {
            std::vector<EvalRequest> reqs;
            reqs.reserve(surviving.size());
            for (const EvalRequest *req : surviving)
                reqs.push_back(*req);
            auto evaluated = [&] {
                try {
                    return evaluateBatch(reqs, cancels);
                } catch (const std::exception &e) {
                    const Error err = makeError(
                        Errc::InternalInvariant,
                        std::string("evaluator: ") + e.what());
                    return std::vector<Expected<EvalResult>>(
                        reqs.size(), Expected<EvalResult>(err));
                }
            }();
            for (std::size_t n = 0; n < survivor_of.size(); ++n) {
                slot.entries[survivor_of[n]].deadlineNs.store(
                    0, std::memory_order_release);
                if (n < evaluated.size())
                    results[survivor_of[n]] =
                        std::move(evaluated[n]);
            }
        }

        for (std::size_t k = 0; k < live.size(); ++k) {
            const Job &job = live[k];
            const std::uint64_t key = keys[k];
            const Expected<EvalResult> &result = results[k];

            std::string payload;
            if (result.ok()) {
                payload =
                    renderResultPayload(job.eval, result.value());
                memo_store->insert(key, canonicalEvalRequest(job.eval),
                                   payload);
            }

            std::vector<Job> waiters;
            {
                std::lock_guard<std::mutex> lock(inflight_mtx);
                const auto it = inflight.find(key);
                if (it != inflight.end()) {
                    waiters = std::move(it->second);
                    inflight.erase(it);
                }
            }

            auto respond = [&](const Job &j, bool was_coalesced) {
                if (result.ok()) {
                    eval_ok.fetch_add(1);
                    writeLine(j.conn,
                              renderEvalOk(j.id, key, payload,
                                           /*cached=*/false,
                                           was_coalesced));
                } else {
                    if (result.error().code == Errc::Timeout)
                        deadline_exceeded.fetch_add(1);
                    eval_error.fetch_add(1);
                    writeLine(j.conn,
                              renderError(j.id, result.error()));
                }
            };
            respond(job, false);
            for (const Job &waiter : waiters) {
                coalesced.fetch_add(1);
                respond(waiter, true);
            }
        }
    }

    void
    watchdogLoop(unsigned workers)
    {
        while (!watchdog_stop.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            const std::int64_t now = toNs(Clock::now());
            for (unsigned i = 0; i < workers; ++i) {
                for (WorkerEntry &entry : slots[i].entries) {
                    const std::int64_t dl = entry.deadlineNs.load(
                        std::memory_order_acquire);
                    if (dl != 0 && now >= dl) {
                        // Epoch-checked: if the worker finished and
                        // moved on between our load and this call,
                        // the stale snapshot makes it a no-op.
                        entry.token.requestCancelIf(
                            entry.snapshot.load(
                                std::memory_order_acquire),
                            CancelToken::Reason::Timeout);
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Lifecycle: drain, flush, join.
    // -----------------------------------------------------------------

    bool
    drainingRelaxed() const
    {
        std::lock_guard<std::mutex> lock(lifecycle_mtx);
        return drain;
    }

    void
    signalLoop()
    {
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(lifecycle_mtx);
                if (done || drain)
                    return;
            }
            if (g_serve_signal.load(std::memory_order_relaxed)) {
                inform("serve: signal received; draining");
                requestShutdown();
                return;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    void
    lifecycleLoop()
    {
        {
            std::unique_lock<std::mutex> lock(lifecycle_mtx);
            lifecycle_cv.wait(lock, [this] { return drain; });
        }
        // 1. Stop accepting (wakes a blocked accept()).
        ::shutdown(listen_fd, SHUT_RDWR);
        if (accept_thread.joinable())
            accept_thread.join();
        // 2. Let the workers finish everything already admitted.
        queue_cv.notify_all();
        for (auto &t : worker_threads)
            t.join();
        // 3. Watchdog has nothing left to watch.
        watchdog_stop.store(true, std::memory_order_release);
        if (watchdog_thread.joinable())
            watchdog_thread.join();
        // 4. Persist what we computed.
        if (auto flushed = memo_store->flush(); !flushed.ok())
            warn("serve: memo flush on drain failed: ",
                 flushed.error().message);
        // 5. Hang up on clients; readers unblock and exit.
        std::vector<std::thread> readers;
        {
            std::lock_guard<std::mutex> lock(conns_mtx);
            for (const ConnPtr &conn : conns) {
                conn->dead.store(true, std::memory_order_relaxed);
                ::shutdown(conn->fd, SHUT_RDWR);
            }
            readers.swap(reader_threads);
        }
        for (auto &t : readers)
            t.join();
        {
            std::lock_guard<std::mutex> lock(conns_mtx);
            for (const ConnPtr &conn : conns)
                ::close(conn->fd);
            conns.clear();
        }
        {
            std::lock_guard<std::mutex> lock(lifecycle_mtx);
            done = true;
        }
        done_cv.notify_all();
    }

    friend class EvalServer;

    ServerOptions opts;
    int listen_fd = -1;
    std::uint16_t bound_port = 0;
    std::unique_ptr<MemoStore> memo_store;

    std::unique_ptr<WorkerSlot[]> slots;
    std::vector<std::thread> worker_threads;
    std::thread accept_thread;
    std::thread watchdog_thread;
    std::thread lifecycle_thread;
    std::thread signal_thread;
    std::atomic<bool> watchdog_stop{false};

    mutable std::mutex queue_mtx;
    std::condition_variable queue_cv;
    std::deque<Job> queue;

    std::mutex inflight_mtx;
    std::unordered_map<std::uint64_t, std::vector<Job>> inflight;

    std::mutex conns_mtx;
    std::vector<ConnPtr> conns;
    std::vector<std::thread> reader_threads;

    mutable std::mutex lifecycle_mtx;
    std::condition_variable lifecycle_cv;
    std::condition_variable done_cv;
    bool drain = false;
    bool done = false;

    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> malformed_count{0};
    std::atomic<std::uint64_t> eval_ok{0};
    std::atomic<std::uint64_t> eval_error{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> coalesced{0};
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> accept_faults{0};
    std::atomic<std::uint64_t> queue_peak{0};
    /** Requests evaluated as part of a multi-request batch. */
    std::atomic<std::uint64_t> batched{0};
    /** Multi-request evaluateBatch calls issued. */
    std::atomic<std::uint64_t> batches{0};
    /** Batch-size distribution (multi-request drains only). */
    mutable std::mutex batch_hist_mtx;
    Log2Histogram batch_hist;
};

EvalServer::EvalServer(std::unique_ptr<Impl> impl)
    : impl(std::move(impl))
{
}

EvalServer::~EvalServer() = default;

Expected<std::unique_ptr<EvalServer>>
EvalServer::start(const ServerOptions &options)
{
    auto impl = std::make_unique<Impl>(options);
    auto started = impl->start();
    if (!started.ok())
        return started.error();
    return std::unique_ptr<EvalServer>(
        new EvalServer(std::move(impl)));
}

std::uint16_t
EvalServer::port() const
{
    return impl->port();
}

void
EvalServer::requestShutdown()
{
    impl->requestShutdown();
}

void
EvalServer::wait()
{
    impl->wait();
}

bool
EvalServer::draining() const
{
    return impl->draining();
}

std::map<std::string, std::uint64_t>
EvalServer::statsSnapshot() const
{
    return impl->statsSnapshot();
}

void
EvalServer::publishStats(ObsRegistry &registry) const
{
    for (const auto &[name, value] : impl->statsSnapshot())
        registry.counter(name, "serve counter (see serve/server.hh)") +=
            value;
    impl->publishBatchHistogram(registry);
}

const MemoStore &
EvalServer::memo() const
{
    return impl->memo();
}

} // namespace vcache::serve
