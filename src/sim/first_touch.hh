/**
 * @file
 * First-touch ledger: which lines a CC run has ever brought in,
 * recorded per vector stream instead of per element.
 *
 * The CC machine pipelines a line's first (compulsory) miss through
 * the banks like an MM access and stalls t_m on every later miss
 * (sim/cc_sim.hh), so every miss must know whether its line was ever
 * touched before.  A vector workload touches lines in whole
 * constant-stride streams, so the ledger keeps the touched set as a
 * short list of arithmetic progressions and, before an op runs,
 * classifies each of its load streams with the exact tests of
 * numtheory/progression.hh:
 *
 *   - Fresh:   disjoint from every recorded progression and from the
 *              op's other stream, with no repeated line.  Every element
 *              is a compulsory miss; nothing needs looking up.
 *   - Covered: inside one recorded progression.  Every element was
 *              touched before, so a miss is never compulsory.
 *   - Lookup:  anything else.  The recorded progressions that meet
 *              the stream are copied into the hash set first, and the
 *              stream's misses consult and fill that set one element
 *              at a time (insert() returns true on a first touch).
 *
 * The touched set is the hash set plus every recorded progression;
 * a progression is "materialized" once all its lines are in the set
 * too.  Callers must send every miss of a Lookup stream through
 * insert() and may skip it for Fresh and Covered streams.
 *
 * Where the progression form cannot be exact, or would cost more than
 * the per-element set, the ledger falls back for good (until clear()):
 * it materializes everything and classifies every later stream as
 * Lookup, which is exactly the per-element set the simulators used
 * before.  The fallback conditions:
 *
 *   - lines wider than one word: a stream's lines are then not one
 *     progression (short strides revisit a line);
 *   - a stream whose addresses wrap past 2^64: not an integer
 *     progression, so the tests do not apply;
 *   - a stream shorter than kMinStreamElements, or more than
 *     kMaxProgressions distinct progressions: see the constants;
 *   - seed() (live-point resume) and any caller-requested fallBack()
 *     (timed prefetching, restored cache state): lines enter the
 *     cache outside any recorded stream, so "never recorded" no
 *     longer implies "not resident".
 */

#ifndef VCACHE_SIM_FIRST_TOUCH_HH
#define VCACHE_SIM_FIRST_TOUCH_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "numtheory/progression.hh"
#include "trace/access.hh"
#include "util/flat_hash.hh"

namespace vcache
{

/** How a load stream's misses learn whether they are compulsory. */
enum class StreamClass : std::uint8_t
{
    /** Never touched: every element is a compulsory miss. */
    Fresh,
    /** Wholly touched before: no miss is compulsory. */
    Covered,
    /** Per-element lookup in the hash set (FirstTouchLedger::insert). */
    Lookup,
};

/** Classes of one op's two load streams. */
struct OpClasses
{
    StreamClass first = StreamClass::Lookup;
    /** Lookup when the op has no second stream. */
    StreamClass second = StreamClass::Lookup;
};

/** What the ledger classified since its last clear(). */
struct FirstTouchStats
{
    std::uint64_t freshStreams = 0;
    std::uint64_t coveredStreams = 0;
    std::uint64_t lookupStreams = 0;
    /** Streams seen after a fallback (every element looked up). */
    std::uint64_t fallbackStreams = 0;
    std::uint64_t freshElements = 0;
    std::uint64_t coveredElements = 0;
    std::uint64_t lookupElements = 0;
    std::uint64_t fallbackElements = 0;
    /** Times the ledger switched to the per-element set (0 or 1). */
    std::uint64_t fallbacks = 0;
};

/** Touched-line set of one CC run (see the file comment). */
class FirstTouchLedger
{
  public:
    /**
     * Shortest stream the ledger classifies: one strip of the paper's
     * 64-element vector registers (MachineParams::mvl).  Classifying
     * costs a few progression tests per recorded progression, which
     * only pays when it saves at least a strip of per-element
     * lookups; traces of shorter streams (FFT butterflies, short
     * kernel rows) would also fill the progression list within a few
     * ops.
     */
    static constexpr std::uint64_t kMinStreamElements = 64;

    /**
     * Most distinct progressions kept: half a strip.  A stream is
     * tested against every recorded progression whose span overlaps
     * its own, at about the cost of five hash lookups per test, so
     * the cap holds a classification to the lookups of a few strips,
     * a bounded share of any stream of kMinStreamElements or more.
     * A VCM evaluation point records at most 18 progressions (two
     * blocks, each a first stream and up to eight second streams) and
     * never reaches it; traces whose distinct streams keep growing
     * (kernel sweeps over a matrix) fall back here instead of testing
     * an ever longer list.
     */
    static constexpr std::size_t kMaxProgressions =
        kMinStreamElements / 2;

    /** @param cache the run's cache (line size and set sizing) */
    explicit FirstTouchLedger(const Cache &cache);

    /**
     * Classify the op's load streams and record them as touched.
     * The second stream is read only while the first has elements,
     * so its reach is truncated to the first's length.
     */
    OpClasses classify(const VectorOp &op);

    /**
     * Per-element record for a Lookup stream's miss (and for lines
     * a prefetcher brings in after fallBack()).
     *
     * @return true when the line was never touched before
     */
    bool insert(Addr line) { return lines.insert(line); }

    /** Switch to the per-element set for good (until clear()). */
    void fallBack();

    /** Fall back and mark `touched_lines` as already touched. */
    void seed(const std::vector<Addr> &touched_lines);

    /** Forget every line and every counter; progressions resume. */
    void clear();

    /** True until the ledger falls back. */
    bool classifying() const { return !fellBack; }

    const FirstTouchStats &stats() const { return counts; }

    /** Visit every touched line exactly once, in unspecified order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        lines.forEach(fn);
        for (const Entry &e : progressions) {
            if (e.materialized)
                continue;
            // Unmaterialized progressions were Fresh when recorded:
            // disjoint from the set and from each other.
            for (std::uint64_t k = 0; k < e.p.count; ++k)
                fn(e.p.first + k * e.p.step);
        }
    }

  private:
    struct Entry
    {
        Progression p;
        /** Every member is in `lines` as well. */
        bool materialized;
    };

    /** Copy an entry's members into the hash set. */
    void materialize(Entry &e);

    /** Presize the hash set on its first use (see the .cc). */
    void useSet();

    bool wideLines;
    bool fellBack = false;
    bool setReady = false;
    std::uint64_t setSlots;
    std::vector<Entry> progressions;
    FlatSet<Addr> lines;
    FirstTouchStats counts;
};

} // namespace vcache

#endif // VCACHE_SIM_FIRST_TOUCH_HH
