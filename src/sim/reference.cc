#include "sim/reference.hh"

namespace vcache
{

ReferenceCcSimulator::ReferenceCcSimulator(const MachineParams &params,
                                           const CacheConfig &cache_config)
    : machine(params), vectorCache(makeCache(cache_config)),
      memory(params.bankBits, params.memoryTime, params.bankMapping)
{
}

void
ReferenceCcSimulator::access(Addr addr, SimResult &result)
{
    const AccessOutcome outcome = vectorCache->access(addr);
    if (outcome.hit) {
        ++result.hits;
        clock += 1;
        return;
    }
    ++result.misses;
    const Addr line = vectorCache->addressLayout().lineAddress(addr);
    const bool first_touch = touched.insert(line).second;
    if (first_touch)
        ++result.compulsoryMisses;
    if (first_touch || nonBlocking) {
        // Pipelined through a read bus and the line's bank.
        const Cycles bus = buses.reserveRead(clock);
        const Cycles when = memory.issue(addr, bus);
        result.stallCycles += when - clock;
        clock = when + 1;
    } else {
        // Blocking miss: the full memory time is exposed.
        result.stallCycles += machine.memoryTime;
        clock += 1 + machine.memoryTime;
    }
}

SimResult
ReferenceCcSimulator::run(const Trace &trace)
{
    SimResult result;
    const double startup = machine.stripOverhead + machine.startupTime();
    for (const VectorOp &op : trace) {
        clock += static_cast<Cycles>(machine.blockOverhead);
        for (std::uint64_t done = 0; done < op.first.length;
             done += machine.mvl) {
            // A strip whose head is cached starts t_m sooner
            // (Equation 4).
            if (vectorCache->contains(op.first.element(done)))
                clock += static_cast<Cycles>(
                    startup - static_cast<double>(machine.memoryTime));
            else
                clock += static_cast<Cycles>(startup);
            for (std::uint64_t i = done;
                 i < op.first.length && i < done + machine.mvl; ++i) {
                access(op.first.element(i), result);
                if (op.second && i < op.second->length)
                    access(op.second->element(i), result);
                ++result.results;
            }
        }
        // Stores drain through the write bus without stalling.
        if (op.store)
            buses.reserveWrites(clock, op.store->length);
    }
    result.totalCycles = clock;
    return result;
}

} // namespace vcache
