/**
 * @file
 * The locality-aware thread scheduler (paper Sections 4 and 5).
 *
 * Under LFF or CRT, each processor owns a bounded binary heap of
 * (priority, thread) hints; threads with no significant footprint on any
 * processor wait in a shared global FIFO; an idle processor whose heap
 * and the global queue are empty steals the *lowest*-priority runnable
 * thread from a peer (the thread with the least cache state to lose).
 * Under FCFS everything flows through the global FIFO.
 *
 * The context-switch fast path is O(d): one blocking-thread priority
 * update plus one per out-edge of the blocking thread in the sharing
 * graph; independent threads' priorities are invariant by construction
 * of the priority schemes.
 */

#ifndef ATL_RUNTIME_SCHEDULER_HH
#define ATL_RUNTIME_SCHEDULER_HH

#include <memory>
#include <optional>
#include <vector>

#include "atl/model/priority.hh"
#include "atl/model/sharing_graph.hh"
#include "atl/obs/event.hh"
#include "atl/runtime/policy.hh"
#include "atl/runtime/thread.hh"

namespace atl
{

/** Knobs for the scheduler. */
struct SchedulerConfig
{
    PolicyKind policy = PolicyKind::FCFS;
    unsigned numCpus = 1;
    /** Footprint (lines) below which a heap will not retain a thread. */
    double footprintThreshold = 16.0;
    /** Soft cap on per-processor heap size. */
    size_t maxHeapSize = 512;
    /** Fairness escape hatch (paper Section 7): every Nth dispatch on a
     *  processor serves the global FIFO before the heap, bounding
     *  starvation of low-footprint threads. 0 disables. */
    uint64_t fairnessBypassPeriod = 0;
    /** Nonstationary-phase heuristic (paper Section 3.4): when a
     *  blocking thread's interval miss rate is below this many misses
     *  per 1000 instructions, treat its misses as conflict misses that
     *  do not grow its footprint. 0 disables. */
    double anomalyMpiThreshold = 0.0;
    /** Multiplier applied to a processor's model confidence on every
     *  implausible counter sample (torn or clamped). */
    double confidenceDecay = 0.5;
    /** Additive confidence restored by every plausible sample (only
     *  while confidence is below 1). */
    double confidenceRecovery = 0.0625;
    /** Confidence below which a processor falls back to unannotated
     *  baseline behaviour (hold footprints, skip dependent updates);
     *  it resumes locality scheduling once confidence recovers to the
     *  threshold. */
    double confidenceThreshold = 0.75;
};

/**
 * Counters for the graceful-degradation machinery: how often counter
 * samples looked implausible, how hard they were clamped, and how the
 * per-processor confidence fallback cycled. All zero on a clean run.
 */
struct DegradationStats
{
    /** Samples failing any plausibility check. */
    uint64_t implausibleSamples = 0;
    /** Samples whose hits delta exceeded their refs delta. */
    uint64_t tornSamples = 0;
    /** Samples whose miss count was clamped (to interval refs,
     *  instructions, or the processor's cumulative miss history). */
    uint64_t clampedMisses = 0;
    /** Confidence drops below the fallback threshold. */
    uint64_t fallbackActivations = 0;
    /** Confidence recoveries back above the threshold. */
    uint64_t fallbackRecoveries = 0;
    /** Scheduling intervals handled in fallback mode. */
    uint64_t fallbackIntervals = 0;
    /** Fault events the active FaultInjector reported for this run
     *  (filled in by the experiment driver, not the scheduler). */
    uint64_t faultEvents = 0;
    /** at_share() hints dropped for a non-finite coefficient (filled
     *  in by the experiment driver from the sharing graph). */
    uint64_t droppedHints = 0;

    bool operator==(const DegradationStats &) const = default;
};

/**
 * How the most recent successful pickNext() resolved: where the thread
 * came from, at what heap priority, and how many dead hints the pop
 * loop stepped over on the way. Plain bookkeeping (a few stores per
 * dispatch); the machine folds it into Switch telemetry events, and
 * the scheduler tests assert on it directly.
 */
struct DispatchInfo
{
    DispatchSource source = DispatchSource::None;
    /** Heap-entry priority the pick was made at (heap/steal sources;
     *  0 for the FIFO paths). */
    double priority = 0.0;
    /** Stale heap entries popped before the pick. */
    uint32_t staleSkipped = 0;
    /** Processor robbed, when source is Steal. */
    CpuId victim = InvalidCpuId;
};

/** Work performed during one context switch, for overhead accounting. */
struct SwitchCost
{
    uint64_t heapOps = 0;
    uint64_t fpOps = 0;
    /** Stale-entry heap compactions performed. */
    uint64_t compactions = 0;
};

/**
 * Owns runnable-thread placement and the priority bookkeeping. The
 * machine drives it: makeRunnable() on wake/spawn/yield, pickNext() on
 * dispatch, onBlock() when a running thread leaves a processor.
 */
class Scheduler
{
  public:
    /**
     * @param config policy and sizing
     * @param threads the machine's thread table (shared, grows)
     * @param miss_totals per-processor cumulative E-miss counts m(t),
     *        owned and advanced by the machine
     * @param graph the at_share() annotation graph
     * @param model footprint model (required unless policy is FCFS)
     */
    Scheduler(const SchedulerConfig &config,
              std::vector<std::unique_ptr<Thread>> &threads,
              const std::vector<uint64_t> &miss_totals, SharingGraph &graph,
              const FootprintModel *model);

    /**
     * Insert a thread into the runnable set. The caller must have set
     * state-independent fields (readyTime); this sets state to Runnable
     * and places the thread per policy.
     *
     * @param origin under the locality policies, a freshly created
     *        (Embryo) thread is placed on this processor's heap — the
     *        creating thread's processor, where any state the creator
     *        prefetched for it lives (creation-time affinity in the
     *        spirit of memory-conscious scheduling, the paper's [15]).
     *        Pass InvalidCpuId for no placement hint.
     */
    void makeRunnable(Thread &thread, CpuId origin = InvalidCpuId);

    /**
     * Choose the next thread for a processor, or nullptr when nothing
     * is reachable: no local heap entry, an empty global queue, and no
     * *busy* peer to steal from (an idle peer will dispatch its own
     * backlog momentarily — stealing it would only forfeit cache
     * state). On success the thread is Running and removed from the
     * runnable set.
     */
    Thread *pickNext(CpuId cpu);

    /**
     * Account for a pickNext() the machine knows would fail and skips:
     * it advances the processor's dispatch count and clears the last
     * dispatch exactly as the failed call would have, so the
     * fairness-bypass phase stays exact.
     */
    void
    noteIdlePass(CpuId cpu)
    {
        ++_dispatchCount[cpu];
        _lastDispatch = {};
    }

    /** Track which processors are currently running a thread (steal
     *  victims must be busy). Maintained by the machine. */
    void setCpuBusy(CpuId cpu, bool busy);

    /**
     * Account for a thread leaving a processor: update its footprint
     * record and those of its dependents (O(out-degree)). Does not
     * requeue the thread; the machine decides based on the switch
     * reason.
     *
     * Before any model update the sample is sanity-checked: a miss
     * count above the interval's refs or instructions is clamped, a
     * hits delta above the refs delta marks the sample torn, and any
     * implausible sample decays the processor's model confidence.
     * Below the confidence threshold the processor runs in fallback
     * (hold footprints, no dependent updates) until enough plausible
     * samples restore confidence. Plausible samples — every sample of
     * a clean run — leave behaviour bit-identical to a scheduler
     * without these checks.
     *
     * @param thread the blocking/yielding/exiting thread
     * @param cpu processor it ran on
     * @param misses E-cache misses it took during the interval
     * @param instructions instructions it executed during the interval
     *        (drives the nonstationary-phase heuristic and bounds
     *        plausible miss counts); 0 means unknown
     * @param refs E-cache refs delta of the interval (kUnknownCount
     *        when the caller has no counter-level view)
     * @param hits E-cache hits delta of the interval (kUnknownCount
     *        when the caller has no counter-level view)
     */
    void onBlock(Thread &thread, CpuId cpu, uint64_t misses,
                 uint64_t instructions = 0, uint64_t refs = kUnknownCount,
                 uint64_t hits = kUnknownCount);

    /** Sentinel for "this interval quantity was not measured". */
    static constexpr uint64_t kUnknownCount = ~0ull;

    /** Cost of scheduler work since the previous call (cleared). */
    SwitchCost drainSwitchCost();

    /** Number of threads currently in state Runnable. */
    size_t runnableCount() const { return _runnable; }

    /** Policy in force. */
    PolicyKind policy() const { return _config.policy; }

    /** Priority scheme (null under FCFS). */
    const PriorityScheme *scheme() const { return _scheme.get(); }

    /** Expected footprint of a thread on a processor, right now. */
    double expectedFootprint(const Thread &thread, CpuId cpu) const;

    /** Heap occupancy of one processor (stale entries included). */
    size_t heapSize(CpuId cpu) const { return _heaps[cpu].size(); }

    /** Live (non-stale) heap entries of one processor. */
    size_t heapValidSize(CpuId cpu) const { return _validEntries[cpu]; }

    /** Total stale-entry compactions across all heaps. */
    uint64_t compactionCount() const { return _compactions; }

    /** Global queue occupancy. */
    size_t globalQueueSize() const { return _global.size(); }

    /** Total successful steals. */
    uint64_t stealCount() const { return _steals; }

    /** Intervals the nonstationary heuristic classified as quiet. */
    uint64_t quietIntervals() const { return _quietIntervals; }

    /** How the most recent successful pickNext() resolved. */
    const DispatchInfo &lastDispatch() const { return _lastDispatch; }

    /** Graceful-degradation counters (all zero on a clean run). */
    const DegradationStats &degradation() const { return _degradation; }

    /** Current model confidence of a processor, in [0, 1]. */
    double
    confidence(CpuId cpu) const
    {
        return _confidence[cpu];
    }

    /** True while a processor runs in unannotated-fallback mode. */
    bool
    inFallback(CpuId cpu) const
    {
        return _degraded[cpu] != 0;
    }

  private:
    /** True when a heap entry still refers to live bookkeeping. */
    bool entryValid(const HeapEntry &entry, CpuId cpu) const;

    /** Bump a record's generation, retiring its live heap entry (if
     *  any) from the valid-entry count. */
    void invalidateRecord(Thread &thread, CpuId cpu);

    /** Push a fresh heap entry for the thread's current record. */
    void pushEntry(CpuId cpu, Thread &thread);

    /** Note that the entry just removed from a heap left it; keeps the
     *  valid-entry count in step with pops and steals. */
    void noteRemoved(const HeapEntry &entry, CpuId cpu);

    /** Compact a heap when stale entries outnumber live ones. */
    void maybeCompact(CpuId cpu);

    /** Enqueue on the global FIFO unless already there. */
    void pushGlobal(Thread &thread);

    /** Insert heap entries for a newly runnable thread; false when no
     *  processor's cache holds enough of its state. */
    bool pushHeaps(Thread &thread);

    /** Enforce the heap size cap after an insertion. */
    void boundHeap(CpuId cpu);

    /** Take the lowest-priority valid entry from some other heap. */
    Thread *steal(CpuId thief);

    /** Mark a thread dispatched (state, generations, counters). */
    void dispatch(Thread &thread, CpuId cpu);

    SchedulerConfig _config;
    std::vector<std::unique_ptr<Thread>> &_threads;
    const std::vector<uint64_t> &_missTotals;
    SharingGraph &_graph;
    std::unique_ptr<PriorityScheme> _scheme;
    std::vector<LocalHeap> _heaps;
    /** Live heap entries per processor (heapSize - valid = stale). */
    std::vector<size_t> _validEntries;
    std::vector<uint8_t> _busy;
    GlobalQueue _global;
    /** Per-processor model confidence, decayed by implausible samples. */
    std::vector<double> _confidence;
    /** Per-processor fallback flag (confidence below threshold). */
    std::vector<uint8_t> _degraded;
    DegradationStats _degradation;
    DispatchInfo _lastDispatch;
    size_t _runnable = 0;
    uint64_t _steals = 0;
    uint64_t _quietIntervals = 0;
    uint64_t _compactions = 0;
    std::vector<uint64_t> _dispatchCount;
    uint64_t _heapOpsSnap = 0;
    uint64_t _fpOpsSnap = 0;
    uint64_t _compactionsSnap = 0;
};

} // namespace atl

#endif // ATL_RUNTIME_SCHEDULER_HH
