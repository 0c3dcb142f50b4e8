/**
 * @file
 * The simulated SMP that hosts Active Threads: P processors, each with
 * the Table-1 UltraSPARC memory hierarchy, simulated PIC performance
 * counters, a cycle cost model, simple invalidation coherence, and the
 * locality-aware scheduler.
 *
 * Execution model: thread bodies are ordinary C++ functions running on
 * real fiber stacks; modelled memory traffic is issued explicitly
 * through read()/write()/execute(), which advance the owning processor's
 * cycle clock and drive the caches (the paper captured the same
 * reference stream implicitly with the Shade instruction-set simulator).
 * Two engines drive the processors (EngineKind). The classic engine
 * serialises all fibers onto the calling OS thread and always advances
 * the processor with the smallest local clock, bounding skew with a
 * simulation-only slice quantum. The epoch engine partitions the
 * processors into shards driven by host worker threads that advance in
 * epoch lockstep, committing cross-processor effects at barriers in a
 * canonical processor order — bit-identical results for any shard
 * count (see docs/INTERNALS.md "The parallel epoch engine"). Both are
 * deterministic and portable while preserving multiprocessor timing to
 * within one slice (classic) or one epoch (epoch).
 */

#ifndef ATL_RUNTIME_MACHINE_HH
#define ATL_RUNTIME_MACHINE_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atl/mem/hierarchy.hh"
#include "atl/mem/line_directory.hh"
#include "atl/mem/refblock.hh"
#include "atl/mem/vm.hh"
#include "atl/model/footprint_model.hh"
#include "atl/model/sharing_graph.hh"
#include "atl/perf/counters.hh"
#include "atl/runtime/scheduler.hh"
#include "atl/runtime/thread.hh"
#include "atl/util/minheap.hh"
#include "atl/util/throttle.hh"

namespace atl
{

class FaultInjector;
class EventLog;
class MetricsRegistry;
struct EpochState;

/** Which execution engine drives the simulated processors. */
enum class EngineKind
{
    /** All fibers serialised onto the calling OS thread; the engine
     *  always advances the min-clock processor (the original engine).
     *  Reference semantics for every pre-existing test and baseline. */
    Classic,
    /** Processors are partitioned into shards driven by host worker
     *  threads advancing in epoch lockstep; cross-processor effects
     *  (coherence, scheduling, telemetry) commit at epoch barriers in
     *  a canonical processor order. Results are bit-identical for any
     *  shard count, including one. */
    Epoch,
};

/** Full machine configuration. Defaults model the paper's platforms. */
struct MachineConfig
{
    /** Number of simulated processors. */
    unsigned numCpus = 1;
    /** Scheduling policy. */
    PolicyKind policy = PolicyKind::FCFS;
    /** Per-processor cache hierarchy (Table 1 defaults). */
    HierarchyConfig hierarchy{};
    /** VM page size (UltraSPARC: 8KB). */
    uint64_t pageBytes = 8192;
    /** Page placement policy (paper simulates Kessler-Hill). */
    PagePlacement placement = PagePlacement::BinHopping;

    /** @name Cycle cost model
     * Uniprocessor: E-miss 42 cycles (Ultra-1). Multiprocessor: 50
     * cycles, or 80 when the line is cached by another processor
     * (Enterprise 5000). @{ */
    Cycles l1HitCycles = 1;
    Cycles l2HitCycles = 3;
    Cycles memoryCycles = 42;
    Cycles memoryCyclesClean = 50;
    Cycles memoryCyclesRemote = 80;
    /** @} */

    /** Base context-switch cost (about 100 instructions in Active
     *  Threads on the paper's platforms). */
    Cycles contextSwitchCycles = 100;
    /** Instructions charged to the creating thread per at_create (the
     *  paper cites thread management within an order of magnitude of a
     *  function call). */
    uint64_t spawnInstructions = 150;
    /** Cycles charged per priority-heap operation. */
    Cycles heapOpCycles = 12;
    /** Cycles charged per floating-point priority-update operation. */
    Cycles fpOpCycles = 3;
    /** Engine fairness slice bounding cross-processor clock skew
     *  (simulation device only; threads are never preempted). */
    Cycles sliceQuantum = 50000;

    /** Footprint retention threshold in lines (scheduler heaps). */
    double footprintThreshold = 4.0;
    /** Soft cap on per-processor heap size. */
    size_t maxHeapSize = 2048;
    /** Model the scheduler's own cache footprint (heap walks pollute the
     *  E-cache a little, as the paper observes for photo on 1 cpu). */
    bool modelSchedulerFootprint = true;
    /** Fairness escape hatch period (0 = off); see SchedulerConfig. */
    uint64_t fairnessBypassPeriod = 0;
    /** Nonstationary-phase MPI threshold (0 = off); see
     *  SchedulerConfig. */
    double anomalyMpiThreshold = 0.0;
    /** Model-confidence knobs forwarded to the scheduler's
     *  graceful-degradation machinery; see SchedulerConfig. */
    double confidenceDecay = 0.5;
    double confidenceRecovery = 0.0625;
    double confidenceThreshold = 0.75;

    /** Fault injector perturbing counters and annotations (null = no
     *  faults; not owned, must outlive the machine). An injector with
     *  an empty plan is equivalent to null. */
    FaultInjector *faults = nullptr;

    /** Telemetry event log recording scheduler decisions, interval
     *  samples, degradation transitions and captured warnings (null =
     *  telemetry off; not owned, must outlive the machine). With no
     *  log attached every hook is a single pointer test, and the run's
     *  modelled state is bit-identical to a machine that never heard
     *  of telemetry. */
    EventLog *telemetry = nullptr;

    /** Metrics registry accumulating interval-level aggregates —
     *  per-source dispatch counters, fallback occupancy, interval and
     *  switch-cost histograms (null = metrics off; not owned, must
     *  outlive the machine). The machine grows the registry to one
     *  shard per simulated processor and updates shard `cpu` only from
     *  the host thread driving that processor, so accumulation is
     *  lock-free and the merged totals are identical for any
     *  hostShards count. Like telemetry, a null registry costs one
     *  pointer test per hook and attaching one never changes modelled
     *  state. */
    MetricsRegistry *metrics = nullptr;

    /** Host stack bytes per fiber. */
    size_t stackBytes = 128 * 1024;
    /** Seed for machine-internal randomness (page placement). */
    uint64_t seed = 1;

    /** @name Parallel (epoch) execution engine @{ */
    /** Engine selection. hostShards > 1 forces Epoch. */
    EngineKind engine = EngineKind::Classic;
    /** Host worker threads sharding the simulated processors (epoch
     *  engine only; clamped to numCpus). Any value produces the same
     *  simulation results — only wall-clock time changes. */
    unsigned hostShards = 1;
    /** Epoch length in cycles (0 = sliceQuantum). Part of the modelled
     *  semantics: commit points land every epoch boundary. */
    Cycles epochCycles = 0;
    /** Lax mode: stretch the epoch horizon to laxFactor * epochCycles,
     *  trading commit frequency (and thus coherence/scheduling
     *  precision) for speed. 1 = strict epochs. Unlike Graphite's lax
     *  synchronisation this remains fully deterministic; accuracy drift
     *  relative to laxFactor=1 is measured, not raced. */
    unsigned laxFactor = 1;
    /** @} */
};

/** Per-processor statistics snapshot. */
struct CpuStats
{
    Cycles clock = 0;
    uint64_t contextSwitches = 0;
    uint64_t instructions = 0;
    uint64_t eRefs = 0;
    uint64_t eMisses = 0;
    Cycles schedOverheadCycles = 0;
};

/**
 * The machine: owns the address space, processors, threads, annotation
 * graph, model and scheduler, and runs the simulation to completion.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig());
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** @name Thread management @{ */

    /**
     * Create a thread (at_create). Callable before run() and from
     * inside running threads.
     * @return the new thread's id
     */
    ThreadId spawn(std::function<void()> fn, std::string name = {});

    /** Annotate state sharing (at_share): fraction q of src's state is
     *  shared with dst. A hint; never affects correctness. */
    void share(ThreadId src, ThreadId dst, double q);

    /** Calling thread's id (at_self). Must be called from a thread. */
    ThreadId self() const;

    /** Block until the target thread exits (at_join). */
    void join(ThreadId tid);

    /** Let another thread run (at_yield); stays runnable. */
    void yield();

    /** Block for a number of simulated cycles. */
    void sleep(Cycles duration);

    /** @} */

    /** @name Modelled memory interface @{ */

    /** Allocate modelled address space (never freed; bump allocator). */
    VAddr alloc(uint64_t bytes, uint64_t align = 64);

    /** Issue load references covering [va, va+bytes). */
    void read(VAddr va, uint64_t bytes);

    /** Issue store references covering [va, va+bytes). */
    void write(VAddr va, uint64_t bytes);

    /** Issue instruction-fetch references covering [va, va+bytes)
     *  (through the I-cache; the E-cache is unified, paper Table 1). */
    void fetch(VAddr va, uint64_t bytes);

    /** Charge n non-memory instructions (CPI 1). */
    void execute(uint64_t instructions);

    /**
     * Issue a whole block of reference runs through the fused batched
     * pipeline. Semantically identical to replaying the block as the
     * equivalent sequence of read()/write()/fetch()/execute() calls —
     * same reference order, same cycle charges, same PIC/tracer/
     * coherence effects — but translation is done once per touched
     * page, consecutive same-line load/ifetch hits are coalesced
     * before index math, and PIC updates are accumulated per block.
     */
    void access(const RefBlock &block);

    /** Invalidate every cache in the machine (experiment setup). */
    void flushAllCaches();

    /** @} */

    /** Run the simulation until every thread has exited. */
    void run();

    /** @name Introspection @{ */

    const MachineConfig &config() const { return _config; }
    unsigned numCpus() const { return _config.numCpus; }
    const FootprintModel &model() const { return *_model; }
    SharingGraph &graph() { return _graph; }
    Scheduler &scheduler() { return *_scheduler; }
    Vm &vm() { return _vm; }

    /** Current simulated time: the calling thread's processor clock, or
     *  the machine makespan when called from outside. */
    Cycles now() const;

    /** Processor the calling thread runs on. */
    CpuId currentCpu() const;

    /** Per-processor statistics. */
    CpuStats cpuStats(CpuId cpu) const;

    /** Cumulative E-cache misses of one processor (the model's m(t)). */
    uint64_t missTotal(CpuId cpu) const { return _missTotals[cpu]; }

    /** Sums across processors. */
    uint64_t totalEMisses() const;
    uint64_t totalERefs() const;
    uint64_t totalInstructions() const;
    uint64_t totalSwitches() const;

    /** Longest processor clock (the parallel makespan). */
    Cycles makespan() const;

    /** Modelled line references issued machine-wide (batch diagnostics). */
    uint64_t refsIssued() const;

    /** Reference blocks issued machine-wide; each scalar
     *  read()/write()/fetch() counts as a one-run block. */
    uint64_t refBlocks() const;

    /** Thread table access. */
    Thread &thread(ThreadId tid);
    const Thread &thread(ThreadId tid) const;
    size_t threadCount() const { return _threads.size(); }

    /** One processor's cache hierarchy (read-only). */
    const Hierarchy &hierarchy(CpuId cpu) const;

    /** Holders of every E-cache line, kept by the hierarchies under
     *  the classic engine on a multiprocessor (empty otherwise: one
     *  processor has no peers, and the epoch engine keeps its own
     *  commit-time directory). */
    const LineDirectory &lineDirectory() const { return _dir; }

    /** Engine passes in which an idle processor parked without calling
     *  the scheduler, because its pickNext() could only have failed as
     *  the previous processor's just did (see run()). */
    uint64_t idlePassesReplayed() const { return _idlePassesReplayed; }

    /** One processor's performance counters. */
    PerfCounters &perf(CpuId cpu);

    /** @} */

    /** @name Instrumentation and synchronisation support @{ */

    /** Install the simulation observer on every processor's hierarchy
     *  (null detaches; see MemoryObserver in the mem layer). */
    void setObserver(MemoryObserver *observer);

    /** Hook invoked for every modelled reference (trace recording);
     *  empty to disable. */
    using AccessHook =
        std::function<void(CpuId, ThreadId, VAddr, AccessType)>;
    void setAccessHook(AccessHook hook) { _accessHook = std::move(hook); }

    /** Block the calling thread (used by synchronisation objects). The
     *  thread must be woken later via wake(). */
    void blockCurrent();

    /** Make a blocked thread runnable (used by synchronisation
     *  objects). */
    void wake(ThreadId tid);

    /** The machine currently executing on this OS thread, if any; used
     *  by the at_* free-function facade. */
    static Machine *active();

    /**
     * RAII marker for a machine-global operation under the epoch
     * engine: the constructor parks the calling fiber until the next
     * epoch commit, where the leader resumes it so the section body
     * executes single-threaded in canonical order; the destructor parks
     * again so the caller continues concurrently next epoch. Nested
     * sections and the classic engine are no-ops; blocking inside a
     * section (blockCurrent/sleep) dissolves it. Instrumentation layers
     * (e.g. the tracer) use this to make mid-run bookkeeping safe and
     * deterministic under sharded execution.
     */
    class GlobalSection
    {
      public:
        explicit GlobalSection(Machine &machine);
        ~GlobalSection();
        GlobalSection(const GlobalSection &) = delete;
        GlobalSection &operator=(const GlobalSection &) = delete;

      private:
        Machine *_machine; ///< null when the section is a no-op
        Thread *_thread = nullptr;
        unsigned _prev = 0;
        bool _parked = false; ///< entry parked (so exit must park too)
    };

    /** @} */

  private:
    /** The share() body after fault perturbation (range checks,
     *  throttled warnings, graph update). */
    void shareOne(ThreadId src, ThreadId dst, double q);

    /** Cache-line aligned: under the epoch engine each processor's hot
     *  fields are written by its own host worker, and adjacent
     *  processors must not false-share. */
    struct alignas(64) Cpu
    {
        CpuId id = 0;
        Cycles clock = 0;
        std::unique_ptr<Hierarchy> hier;
        PerfCounters perf;
        Thread *current = nullptr;
        uint32_t refsSnap = 0;
        uint32_t hitsSnap = 0;
        uint64_t instrSnap = 0;
        Cycles sliceStart = 0;
        uint64_t switches = 0;
        uint64_t instructions = 0;
        Cycles schedOverhead = 0;
        VAddr schedStateVa = 0;
        /** Dispatch-completion time of the running interval (unlike
         *  sliceStart, not reset by simulation slice yields). Last:
         *  only touched at interval boundaries, and appending keeps
         *  the hot per-reference fields at their established offsets. */
        Cycles intervalStart = 0;
        /** @name Per-processor host diagnostics and memo.
         * Formerly machine-global; per-processor so concurrent shards
         * never contend (summed by the public accessors). @{ */
        uint64_t refsIssued = 0;
        uint64_t refBlocks = 0;
        /** One-entry translation memo for the batched pipeline: frames
         *  are never reclaimed, so a cached (page base → pa-va delta)
         *  stays valid for the machine's lifetime. ~0 marks "empty"
         *  (modelled addresses start far below it). */
        VAddr issuePage = ~0ull;
        uint64_t issueDelta = 0;
        /** @} */
    };

    /** @name Telemetry emission.
     * Outlined and cold so the interval bookkeeping stays compact in
     * the instruction stream: the hot functions pay one pointer test
     * and the event assembly lives off the fall-through path. Each
     * checks its own per-category config flag. @{ */
    [[gnu::cold]] void emitSwitchEvent(const Cpu &cpu,
                                       const Thread &thread,
                                       Cycles switch_start);
    [[gnu::cold]] void emitSampleEvents(const Cpu &cpu,
                                        const Thread &thread,
                                        uint64_t misses,
                                        uint64_t refs_delta,
                                        uint64_t hits_delta,
                                        bool sample_faulted);
    [[gnu::cold]] void emitPostBlockEvents(const Cpu &cpu,
                                           const Thread &thread,
                                           uint64_t misses,
                                           uint64_t instructions,
                                           const DegradationStats &before,
                                           bool fallback_before);
    /** @} */

    /** @name Metrics recording.
     * Outlined and cold like the telemetry emitters: the interval
     * functions pay one pointer test, the registry updates live off
     * the fall-through path. Updates target shard `cpu.id` — the
     * single-writer-per-shard contract. @{ */
    /** Cached registry metric handles (registered at construction). */
    struct MetricIds
    {
        /** Dispatch counters, indexed by DispatchSource. */
        uint32_t dispatch[5] = {};
        uint32_t intervals = 0;
        uint32_t fallbackIntervals = 0;
        uint32_t fallbackEnters = 0;
        uint32_t fallbackLeaves = 0;
        uint32_t intervalCycles = 0;   ///< histogram
        uint32_t switchCostCycles = 0; ///< histogram
    };
    [[gnu::cold]] void recordSwitchMetrics(const Cpu &cpu,
                                           Cycles switch_start);
    [[gnu::cold]] void recordIntervalMetrics(const Cpu &cpu,
                                             bool fallback_before);
    /** @} */

    /** Calling-thread sanity check. */
    Thread &requireCurrent() const;

    /** Simulated thread calling into this machine on this OS thread
     *  (null when called from outside any thread, or from a thread of
     *  a different machine). */
    Thread *callerThread() const
    {
        return _ctx.machine == this ? _ctx.thread : nullptr;
    }

    /** Deferred PIC accumulation: batches counter updates across the
     *  references of one block/range and flushes before any point that
     *  could read the counters (slice yields, block end). Sum-equal to
     *  per-reference recording, so snapshots are bit-identical. */
    struct PicAcc
    {
        uint32_t instr = 0;
        Cycles cycles = 0;
        uint32_t l1dRefs = 0, l1dHits = 0;
        uint32_t eRefs = 0, eHits = 0, eMisses = 0;
        bool dirty = false;
        void flush(PerfCounters &perf);
    };

    /** One modelled reference plus all its consequences: the access
     *  hook, translation, then issueRef(). PIC updates go through
     *  `acc` (the caller flushes). */
    void accessOne(Cpu &cpu, Thread *attribution, VAddr va,
                   AccessType type, PicAcc &acc);

    /** The per-reference body shared by accessOne() and the batched
     *  pipeline: hierarchy access, cycle cost, PIC accumulation, miss
     *  totals, observer, thread stats and store coherence for one
     *  translated reference. Peers are probed only on an E-miss. */
    inline void issueRef(Cpu &cpu, Thread *attribution, PAddr pa,
                         AccessType type, PicAcc &acc);

    /** Issue references covering a range at L1-line granularity. */
    void accessRange(Cpu &cpu, Thread *attribution, VAddr va,
                     uint64_t bytes, AccessType type);

    /** Fused batched pipeline over an array of runs (the core of
     *  access(); read()/write()/fetch() pass a single run). */
    void issueRuns(Cpu &cpu, Thread &attribution, const RefRun *runs,
                   uint32_t count);

    /** Body of execute() usable from the batched pipeline. */
    void executeOn(Cpu &cpu, Thread &me, uint64_t instructions);

    /** True when another processor's E-cache holds the line. */
    bool remoteCached(CpuId self_cpu, PAddr pa) const;

    /** Invalidate the line in every other processor's caches. */
    void invalidateRemote(CpuId self_cpu, PAddr pa);

    /** Yield the fiber back to the engine because the simulation slice
     *  expired (no scheduling semantics). */
    void sliceYield(Cpu &cpu);

    /** Leave the current fiber with the given reason. */
    void switchOut(SwitchReason reason);

    /** Engine: pick the processor to advance next. */
    CpuId chooseCpu() const;

    /** Engine: an idle processor found nothing it may dispatch while
     *  an idle peer holds runnable work; move its clock just past the
     *  laggard peer so the engine serves the peer next. */
    void parkIdle(Cpu &cpu);

    /** Engine: after a park, park every following idle processor whose
     *  pickNext() would fail the same way, advancing only clocks. */
    void replayIdlePasses();

    /** Engine: wake sleeping threads whose deadline has passed. */
    void wakeDueTimers(Cycles time);

    /** Engine: set up a freshly dispatched thread on a processor. */
    void beginInterval(Cpu &cpu, Thread &thread);

    /** Engine: resume a processor's current fiber and handle its exit
     *  reason when it returns. */
    void resumeOn(Cpu &cpu);

    /** Engine: bookkeeping when a thread leaves a processor. */
    void endInterval(Cpu &cpu, Thread &thread);

    /** Charge scheduler work (heap + FP ops) to a processor. */
    void chargeSchedWork(Cpu &cpu);

    /** Model the scheduler's own cache pollution at a switch. */
    void schedPollution(Cpu &cpu);

    /** Report and abort on a deadlocked thread set. */
    [[noreturn]] void reportDeadlock();

    /** Take a pooled or fresh fiber stack. */
    std::unique_ptr<FiberStack> takeStack();

    /** @name Epoch engine (epoch.cc) @{ */

    /** Engine loop: shard workers + barrier-committed epochs. */
    void runEpochEngine();

    /** Body of one non-leader host worker thread. */
    void epochWorkerMain(unsigned shard);

    /** Install `machine` as this OS thread's active machine; @return
     *  the previous occupant (worker threads save/restore it). */
    static Machine *swapActive(Machine *machine);

    /** Advance every processor of one shard to the epoch horizon. */
    void epochAdvanceShard(unsigned shard, Fiber &engine);

    /** Single-threaded commit: replay coherence deltas, drain parks and
     *  telemetry, schedule, advance the horizon. @return false when the
     *  simulation is complete */
    bool epochCommit();

    /** Resume a fiber inside the commit phase until it parks with a
     *  non-SliceEnd reason; @return that reason. */
    SwitchReason commitResume(Cpu &cpu);

    /** Dispatch runnable threads onto idle processors (commit phase). */
    void epochDispatch();

    /** Translate under the epoch engine: parks on first touch mid-epoch
     *  so page placement stays a commit-ordered effect. */
    PAddr epochTranslate(VAddr va);

    /** @} */

    /** Per-OS-thread execution context: the thread/processor a worker
     *  is currently running and the engine fiber to park into. Several
     *  workers execute the same machine concurrently under the epoch
     *  engine, so this state cannot live in the machine itself. */
    struct ExecCtx
    {
        Machine *machine = nullptr;
        Thread *thread = nullptr;
        CpuId cpu = InvalidCpuId;
        Fiber *engine = nullptr;
    };
    /* constinit: every member initializer is a constant expression, so
     * demand constant initialization. Without it the compiler must
     * assume dynamic init and routes cross-TU accesses (epoch.cc)
     * through a TLS init wrapper, which UBSan's null checks flag. */
    static thread_local constinit ExecCtx _ctx;

    friend struct EpochState;

    MachineConfig _config;
    Vm _vm;
    std::unique_ptr<FootprintModel> _model;
    SharingGraph _graph;
    std::vector<std::unique_ptr<Thread>> _threads;
    std::vector<uint64_t> _missTotals;
    std::unique_ptr<Scheduler> _scheduler;
    std::vector<Cpu> _cpus;
    /** Classic-engine line holders (see lineDirectory()). */
    LineDirectory _dir;
    /** Idle passes replayed by replayIdlePasses(). */
    uint64_t _idlePassesReplayed = 0;
    /** Registry handles, valid only when _config.metrics is set. */
    MetricIds _metricIds{};
    Fiber _engineFiber;
    size_t _liveThreads = 0;
    bool _running = false;
    VAddr _nextVa = 0x100000;
    MemoryObserver *_observer = nullptr;
    AccessHook _accessHook;
    /** Unknown-thread-id share() warnings (throttled: fault plans can
     *  produce thousands of dangling annotations). */
    ThrottledWarn _shareThrottle;
    std::vector<std::unique_ptr<FiberStack>> _stackPool;
    /** Epoch-engine run state; non-null only while runEpochEngine() is
     *  active. Hot paths test this pointer to route cross-processor
     *  effects through the commit protocol. */
    std::unique_ptr<EpochState> _epoch;

    /** (wake time, thread) min-ordered. A sleeping thread holds exactly
     *  one timer, so the thread id doubles as the heap index; the
     *  (time, tid) pair key is a duplicate-free total order, which
     *  makes the pop sequence independent of the heap's internal
     *  layout. */
    using Timer = std::pair<Cycles, ThreadId>;
    MinHeap<Timer, ThreadId> _timers;
};

} // namespace atl

#endif // ATL_RUNTIME_MACHINE_HH
