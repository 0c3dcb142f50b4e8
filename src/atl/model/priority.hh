/**
 * @file
 * The LFF and CRT priority schemes (paper Section 4).
 *
 * Both policies need a priority that (a) orders runnable threads the
 * same way their expected footprints / cache-reload ratios would, and
 * (b) stays constant for threads *independent* of the blocking thread,
 * so the common case costs zero updates. With m(t) the processor's
 * cumulative E-cache miss count and k = (N-1)/N:
 *
 *   LFF:  p(t) = log E[F](t)                     - m(t) log k
 *   CRT:  p(t) = log E[F](t) - log E[F_last_run] - m(t) log k
 *
 * An independent footprint decays as E[F](t) = E[F](t0) k^(m(t)-m(t0)),
 * so both expressions are invariant in m for independent threads, while
 * at any fixed time they are strictly increasing in E[F] (LFF) and
 * strictly decreasing in the reload ratio R = 1 - E[F]/E[F_last_run]
 * (CRT). Updates are therefore only needed for the blocking thread and
 * its dependents: O(out-degree) work per context switch.
 *
 * Every floating-point operation on these paths is counted through
 * FpOpCounter so the Table 3 reproduction can report measured costs.
 */

#ifndef ATL_MODEL_PRIORITY_HH
#define ATL_MODEL_PRIORITY_HH

#include <cstdint>
#include <iosfwd>
#include <limits>

#include "atl/model/footprint_model.hh"

namespace atl
{

/** Locality scheduling policy selector. */
enum class PolicyKind
{
    FCFS, ///< first-come first-served baseline (no model)
    LFF,  ///< largest footprint first
    CRT,  ///< smallest cache-reload ratio
};

/** Human-readable policy name. */
const char *policyName(PolicyKind kind);

/** Print a policy by name. GoogleTest finds this by argument-dependent
 *  lookup, so parameterized test names show "LFF", not raw bytes. */
void PrintTo(PolicyKind kind, std::ostream *os);

/**
 * Counts floating point operations (add/sub/mul/div; table lookups are
 * free, matching the paper's accounting) executed on priority-update
 * paths.
 */
class FpOpCounter
{
  public:
    /** Charge n floating point operations. */
    void charge(uint64_t n) { _ops += n; }

    /** Total operations charged. */
    uint64_t total() const { return _ops; }

    /** Reset the tally. */
    void reset() { _ops = 0; }

  private:
    uint64_t _ops = 0;
};

/**
 * Per-(thread, processor) footprint bookkeeping. The pair (s, mSnap)
 * lazily represents the trajectory E[F](m) = s * k^(m - mSnap), so a
 * record needs touching only when its thread is the blocking thread or
 * one of its dependents.
 */
struct FootprintRecord
{
    /** Expected footprint in lines, valid at miss count mSnap. */
    double s = 0.0;
    /** Processor cumulative miss count when s was computed. */
    uint64_t mSnap = 0;
    /** Time-invariant scheduling priority (scheme-specific). */
    double priority = -std::numeric_limits<double>::infinity();
    /** CRT: log of the expected footprint when the thread last ran here. */
    double logF0 = 0.0;
    /** Heap-entry generation, bumped to lazily invalidate stale entries. */
    uint64_t generation = 0;
    /** Whether the entry of the current generation sits in its heap.
     *  Lets the scheduler count live entries per heap without scanning,
     *  which drives stale-entry compaction. */
    bool inHeap = false;
};

/**
 * Priority computation for one processor's cache under one policy.
 * Stateless apart from the model reference and the op counter; the
 * records live with the scheduler.
 */
class PriorityScheme
{
  public:
    /**
     * @param kind LFF or CRT (FCFS never constructs a scheme)
     * @param model closed-form model for this cache geometry
     */
    PriorityScheme(PolicyKind kind, const FootprintModel &model);

    /**
     * Initialise the record of a thread that has never run on this
     * processor (creation-time placement): an empty footprint whose
     * priority is comparable with every other record at miss count
     * m_now — i.e. the lowest possible priority right now, which also
     * makes such threads the preferred victims for work stealing.
     */
    void initialise(FootprintRecord &rec, uint64_t m_now) const;

    /**
     * Begin a context switch on a processor: fixes the shared
     * -m(t) * log k term used by every update in this switch. One
     * multiplication, charged once per switch rather than per thread.
     *
     * @param m_now processor cumulative E-cache misses at the switch
     */
    void beginSwitch(uint64_t m_now);

    /**
     * Update the record of the blocking thread itself.
     * @param rec the thread's record on this processor
     * @param n E-cache misses it took during the scheduling interval
     */
    void updateBlocking(FootprintRecord &rec, uint64_t n);

    /**
     * Alternative heuristic for a blocking thread in a nonstationary
     * quiet phase (paper Section 3.4: after the reload burst, a thread
     * with a very low miss rate mostly takes conflict misses within its
     * own sets, which "do not significantly increase the footprint"):
     * hold the footprint constant across the interval instead of
     * growing it toward N.
     */
    void holdBlocking(FootprintRecord &rec);

    /**
     * Update the record of a thread dependent on the blocking thread.
     * @param rec the dependent's record on this processor
     * @param q sharing coefficient on the (blocker, dependent) arc
     * @param n misses taken by the blocking thread in the interval
     */
    void updateDependent(FootprintRecord &rec, double q, uint64_t n);

    /**
     * Materialise a record at dispatch time: collapse the lazy decay so
     * the blocking update at the end of the interval starts from the
     * footprint at dispatch. Priority is unchanged (it is invariant).
     *
     * @param rec record of the thread being dispatched
     * @param m_now processor cumulative misses at dispatch
     */
    void materialise(FootprintRecord &rec, uint64_t m_now);

    /** Expected footprint of a record at miss count m_now. */
    double expectedFootprint(const FootprintRecord &rec,
                             uint64_t m_now) const;

    /** Scheme selector. */
    PolicyKind kind() const { return _kind; }

    /** The op counter (shared accounting for Table 3). */
    FpOpCounter &ops() { return _ops; }

    /** Underlying closed-form model. */
    const FootprintModel &model() const { return _model; }

  private:
    /** Shared -m(t) log k term for the current switch. */
    double mLogK() const { return _mLogK; }

    PolicyKind _kind;
    const FootprintModel &_model;
    FpOpCounter _ops;
    double _mLogK = 0.0;
    uint64_t _mNow = 0;
};

} // namespace atl

#endif // ATL_MODEL_PRIORITY_HH
