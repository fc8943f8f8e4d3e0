/**
 * @file
 * Pipelined bus model.
 *
 * The machine models connect processor and memory through three
 * pipelined buses (two read, one write), each able to move one line
 * per cycle.  A bus is a unit-rate resource: requests are accepted in
 * order, one per cycle.
 */

#ifndef VCACHE_MEMORY_BUS_HH
#define VCACHE_MEMORY_BUS_HH

#include <string>

#include "util/types.hh"

namespace vcache
{

/** One pipelined bus accepting one transfer per cycle. */
class PipelinedBus
{
  public:
    explicit PipelinedBus(std::string name);

    /**
     * Reserve the next slot at or after `earliest`.
     * @return the cycle in which the transfer occupies the bus
     */
    Cycles
    reserve(Cycles earliest)
    {
        const Cycles when = earliest > nextFree ? earliest : nextFree;
        waited += when - earliest;
        nextFree = when + 1;
        ++count;
        return when;
    }

    /**
     * Reserve `n` consecutive slots at or after `earliest` in closed
     * form -- equivalent to n calls to reserve(earliest), but O(1).
     * Once the first transfer is granted at w0 = max(earliest,
     * nextFree), the i-th departs at w0 + i, so the aggregate wait is
     * n*(w0 - earliest) plus the arithmetic series 0+1+...+(n-1).
     *
     * @return the cycle of the first transfer (w0); when n == 0,
     *         nothing is reserved and the hypothetical grant cycle is
     *         returned
     */
    Cycles reserveMany(Cycles earliest, std::uint64_t n);

    /**
     * Record `n` transfers whose grant cycles were derived in closed
     * form by a batched simulator path: the counters advance as if
     * reserve() had been called for each, every grant arriving with
     * the bus already free (zero contention), the last one at
     * `last_grant`.  No-op when n == 0.
     */
    void
    absorb(std::uint64_t n, Cycles last_grant)
    {
        if (n == 0)
            return;
        count += n;
        nextFree = last_grant + 1;
    }

    /** Earliest cycle at which the next transfer could start. */
    Cycles nextFreeAt() const { return nextFree; }

    /** Transfers carried so far. */
    std::uint64_t transfers() const { return count; }

    /** Cycles transfers spent waiting for the bus. */
    Cycles contentionCycles() const { return waited; }

    void reset();

    const std::string &name() const { return label; }

  private:
    std::string label;
    Cycles nextFree = 0;
    std::uint64_t count = 0;
    Cycles waited = 0;
};

/** The paper's bus complement: two read buses and one write bus. */
class BusSet
{
  public:
    BusSet();

    /**
     * Round-robin-free read bus: picks the earliest available.
     * Inline: every compulsory miss takes this step.
     */
    Cycles
    reserveRead(Cycles earliest)
    {
        // Two read buses serve the two concurrent vector streams; pick
        // whichever can accept the transfer sooner (ties favour bus 0).
        if (rd1.nextFreeAt() < rd0.nextFreeAt())
            return rd1.reserve(earliest);
        return rd0.reserve(earliest);
    }

    /**
     * reserveRead() with an Observer policy hook reporting how many
     * cycles the transfer waited for a free read bus.  With a
     * disabled observer this compiles to exactly reserveRead().
     */
    template <typename Observer>
    Cycles
    reserveReadObserved(Cycles earliest, Observer &obs)
    {
        const Cycles grant = reserveRead(earliest);
        if constexpr (Observer::kEnabled)
            obs.onBusWait(earliest, grant - earliest);
        return grant;
    }

    /**
     * Absorb a whole single-stream run of `n` read reservations whose
     * grant cycles a batched simulator derived in closed form.
     *
     * With one request per (strictly increasing) cycle and two read
     * buses, no request ever waits and the grants strictly alternate:
     * the first goes to the bus reserveRead() would pick now (the
     * earlier nextFree, ties to read bus 0), the rest ping-pong.  The
     * end state therefore only needs the grant cycles of the last two
     * requests: the last request's bus frees at last_grant + 1, the
     * other bus at prev_grant + 1 (unused when n == 1).
     */
    void
    absorbReadRun(std::uint64_t n, Cycles last_grant,
                  Cycles prev_grant)
    {
        if (n == 0)
            return;
        PipelinedBus *first = rd1.nextFreeAt() < rd0.nextFreeAt()
                                  ? &rd1
                                  : &rd0;
        PipelinedBus *other = first == &rd0 ? &rd1 : &rd0;
        // Requests 0, 2, 4, ... ride `first`; the last request
        // (index n - 1) lands on `first` exactly when n is odd.
        PipelinedBus *last = (n % 2 == 1) ? first : other;
        PipelinedBus *prev = last == first ? other : first;
        prev->absorb(n / 2, prev_grant);
        last->absorb((n + 1) / 2, last_grant);
    }

    /** The single write bus. */
    Cycles reserveWrite(Cycles earliest);

    /** Drain `n` writes queued at `earliest` through the write bus. */
    Cycles reserveWrites(Cycles earliest, std::uint64_t n);

    void reset();

    const PipelinedBus &read0() const { return rd0; }
    const PipelinedBus &read1() const { return rd1; }
    const PipelinedBus &write() const { return wr; }

  private:
    PipelinedBus rd0;
    PipelinedBus rd1;
    PipelinedBus wr;
};

} // namespace vcache

#endif // VCACHE_MEMORY_BUS_HH
