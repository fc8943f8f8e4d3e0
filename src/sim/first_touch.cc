#include "sim/first_touch.hh"

#include <algorithm>

namespace vcache
{

FirstTouchLedger::FirstTouchLedger(const Cache &cache)
    : wideLines(cache.addressLayout().offsetBits() != 0),
      // One slot per cache line, so a run touching up to half as many
      // distinct lines as the cache holds never rehashes; capped at
      // 8192 slots (64 KiB), below glibc's 128 KiB mmap threshold, so
      // the table comes from the heap instead of fresh mmapped pages.
      setSlots(std::min<std::uint64_t>(cache.numLines(), 8192))
{
    progressions.reserve(kMaxProgressions);
}

void
FirstTouchLedger::useSet()
{
    // Presized on first use rather than up front: a run the
    // progressions classify completely never touches the set.
    if (setReady)
        return;
    lines.reserve(setSlots / 2);
    setReady = true;
}

void
FirstTouchLedger::materialize(Entry &e)
{
    useSet();
    for (std::uint64_t k = 0; k < e.p.count; ++k)
        lines.insert(e.p.first + k * e.p.step);
    e.materialized = true;
}

void
FirstTouchLedger::fallBack()
{
    if (fellBack)
        return;
    useSet();
    for (Entry &e : progressions)
        if (!e.materialized)
            materialize(e);
    progressions.clear();
    fellBack = true;
    ++counts.fallbacks;
}

void
FirstTouchLedger::seed(const std::vector<Addr> &touched_lines)
{
    fallBack();
    for (const Addr line : touched_lines)
        lines.insert(line);
}

void
FirstTouchLedger::clear()
{
    lines.clear(); // keeps the table's capacity
    progressions.clear();
    fellBack = false;
    counts = FirstTouchStats{};
}

OpClasses
FirstTouchLedger::classify(const VectorOp &op)
{
    const unsigned n = op.second ? 2 : 1;
    const VectorRef *refs[2] = {&op.first,
                                op.second ? &*op.second : nullptr};
    const std::uint64_t len[2] = {
        op.first.length,
        op.second ? std::min(op.second->length, op.first.length) : 0};

    const auto fallbackOp = [&] {
        fallBack();
        for (unsigned s = 0; s < n; ++s) {
            ++counts.fallbackStreams;
            counts.fallbackElements += len[s];
        }
        return OpClasses{};
    };

    if (fellBack || wideLines)
        return fallbackOp();

    Progression p[2];
    for (unsigned s = 0; s < n; ++s) {
        if (len[s] == 0)
            continue; // touches nothing; stays the empty progression
        if (len[s] < kMinStreamElements)
            return fallbackOp();
        const auto prog =
            progressionOf(refs[s]->base, refs[s]->stride, len[s]);
        if (!prog)
            return fallbackOp();
        p[s] = *prog;
    }

    StreamClass cls[2] = {StreamClass::Lookup, StreamClass::Lookup};
    // Bit i: recorded progression i shares a line with the stream.
    std::uint64_t meets[2] = {0, 0};
    static_assert(kMaxProgressions <= 64, "meets is a 64-bit mask");
    for (unsigned s = 0; s < n; ++s) {
        if (p[s].empty()) {
            cls[s] = StreamClass::Covered;
            continue;
        }
        for (std::size_t i = 0; i < progressions.size(); ++i) {
            const Progression &q = progressions[i].p;
            if (q.last() < p[s].first || p[s].last() < q.first)
                continue;
            if (progressionCovers(q, p[s])) {
                cls[s] = StreamClass::Covered;
                break;
            }
            if (progressionsIntersect(q, p[s]))
                meets[s] |= std::uint64_t{1} << i;
        }
        // A stream that repeats a line (stride 0) re-touches it
        // within the op, so only distinct lines can all be fresh.
        if (cls[s] != StreamClass::Covered && meets[s] == 0 &&
            p[s].count == len[s])
            cls[s] = StreamClass::Fresh;
    }
    // Lines one stream brings in are already touched when the other
    // reaches them, so overlapping partners both look up.  (A stream
    // overlapping a Covered partner meets its covering progression.)
    if (n == 2 && (cls[0] == StreamClass::Fresh ||
                   cls[1] == StreamClass::Fresh) &&
        progressionsIntersect(p[0], p[1])) {
        for (StreamClass &c : cls)
            if (c == StreamClass::Fresh)
                c = StreamClass::Lookup;
    }

    const bool same = n == 2 && p[0] == p[1];
    std::size_t added = 0;
    for (unsigned s = 0; s < n; ++s)
        if (cls[s] != StreamClass::Covered && !(s == 1 && same))
            ++added;
    if (progressions.size() + added > kMaxProgressions)
        return fallbackOp();

    for (unsigned s = 0; s < n; ++s) {
        switch (cls[s]) {
          case StreamClass::Fresh:
            ++counts.freshStreams;
            counts.freshElements += len[s];
            break;
          case StreamClass::Covered:
            ++counts.coveredStreams;
            counts.coveredElements += len[s];
            continue;
          case StreamClass::Lookup:
            ++counts.lookupStreams;
            counts.lookupElements += len[s];
            // Every touched line this stream can reach must be in the
            // set before its first lookup.
            useSet();
            for (std::size_t i = 0; i < progressions.size(); ++i)
                if (((meets[s] >> i) & 1u) &&
                    !progressions[i].materialized)
                    materialize(progressions[i]);
            break;
        }
        if (s == 1 && same)
            continue;
        // A Lookup stream's misses are inserted as it runs, and its
        // hits were in the set already, so it ends materialized.
        progressions.push_back({p[s], cls[s] == StreamClass::Lookup});
    }
    return {cls[0], n == 2 ? cls[1] : StreamClass::Lookup};
}

} // namespace vcache
