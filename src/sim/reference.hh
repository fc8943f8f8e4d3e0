/**
 * @file
 * Naive reference model of the CC machine: the oracle the production
 * simulator (sim/cc_sim.hh) and the gang runner (sim/gang.hh) are
 * differentially tested against.
 *
 * It implements the timing rules listed in sim/cc_sim.hh one element
 * at a time, in the plainest form available: every access goes
 * through the virtual Cache::access(), the first-touch set is a
 * std::unordered_set of line addresses, and there are no templates,
 * no SIMD probes, no run batching, no closed forms and no first-touch
 * ledger.  It is slow on purpose; only tests use it.  Prefetching is
 * not modelled.
 */

#ifndef VCACHE_SIM_REFERENCE_HH
#define VCACHE_SIM_REFERENCE_HH

#include <memory>
#include <unordered_set>

#include "analytic/machine.hh"
#include "cache/cache.hh"
#include "cache/factory.hh"
#include "memory/bus.hh"
#include "memory/interleaved.hh"
#include "sim/result.hh"
#include "trace/access.hh"

namespace vcache
{

/** Element-at-a-time CC machine with no fast paths. */
class ReferenceCcSimulator
{
  public:
    ReferenceCcSimulator(const MachineParams &params,
                         const CacheConfig &cache_config);

    /** Let non-compulsory misses stream like compulsory ones. */
    void setNonBlockingMisses(bool enable) { nonBlocking = enable; }

    /** Run a trace from the current state (cold after construction). */
    SimResult run(const Trace &trace);

    const Cache &cache() const { return *vectorCache; }

  private:
    /** One load element. */
    void access(Addr addr, SimResult &result);

    MachineParams machine;
    std::unique_ptr<Cache> vectorCache;
    InterleavedMemory memory;
    BusSet buses;
    std::unordered_set<Addr> touched;
    Cycles clock = 0;
    bool nonBlocking = false;
};

} // namespace vcache

#endif // VCACHE_SIM_REFERENCE_HH
