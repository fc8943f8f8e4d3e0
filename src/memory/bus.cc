#include "memory/bus.hh"

#include <algorithm>

namespace vcache
{

PipelinedBus::PipelinedBus(std::string name) : label(std::move(name))
{
}

Cycles
PipelinedBus::reserveMany(Cycles earliest, std::uint64_t n)
{
    const Cycles first = std::max(earliest, nextFree);
    if (n == 0)
        return first;
    waited += n * (first - earliest) + n * (n - 1) / 2;
    nextFree = first + n;
    count += n;
    return first;
}

void
PipelinedBus::reset()
{
    nextFree = 0;
    count = 0;
    waited = 0;
}

BusSet::BusSet() : rd0("read0"), rd1("read1"), wr("write")
{
}

Cycles
BusSet::reserveWrite(Cycles earliest)
{
    return wr.reserve(earliest);
}

Cycles
BusSet::reserveWrites(Cycles earliest, std::uint64_t n)
{
    return wr.reserveMany(earliest, n);
}

void
BusSet::reset()
{
    rd0.reset();
    rd1.reset();
    wr.reset();
}

} // namespace vcache
