#include "atl/runtime/machine.hh"

#include <algorithm>
#include <cmath>

#include "atl/fault/fault.hh"
#include "atl/obs/event_log.hh"
#include "atl/obs/metrics.hh"
#include "atl/runtime/epoch.hh"
#include "atl/util/logging.hh"

namespace atl
{

namespace
{

/** Machine whose run() is executing on this OS thread. */
thread_local Machine *activeMachine = nullptr;

} // namespace

/** Per-OS-thread execution context (several epoch workers drive one
 *  machine concurrently; the classic engine is the 1-thread case). */
thread_local constinit Machine::ExecCtx Machine::_ctx;

Machine *
Machine::active()
{
    return activeMachine;
}

Machine *
Machine::swapActive(Machine *machine)
{
    Machine *previous = activeMachine;
    activeMachine = machine;
    return previous;
}

// ---------------------------------------------------------------------
// GlobalSection
// ---------------------------------------------------------------------

Machine::GlobalSection::GlobalSection(Machine &machine)
    : _machine(nullptr)
{
    // No-op outside an epoch run, outside any simulated thread, or on a
    // machine other than the caller's (sweep workers interleave).
    if (!machine._epoch || _ctx.machine != &machine || !_ctx.thread)
        return;
    Thread &t = *_ctx.thread;
    _machine = &machine;
    _thread = &t;
    _prev = t.globalDepth;
    // A fresh top-level section parks so its body runs inside the
    // single-threaded commit; sections opened while already committing
    // (nested, or from a commit-resumed body) run inline.
    _parked = _prev == 0 && !machine._epoch->inCommit;
    if (_parked)
        machine.switchOut(SwitchReason::GlobalOp);
    t.globalDepth = _prev + 1;
}

Machine::GlobalSection::~GlobalSection()
{
    if (!_machine)
        return;
    Thread &t = *_thread;
    // A blocking operation inside the section dissolved it (depth
    // reset to 0): the thread was unscheduled and is now mid-epoch
    // again; there is nothing to leave.
    if (t.globalDepth <= _prev)
        return;
    t.globalDepth = _prev;
    if (_parked)
        _machine->switchOut(SwitchReason::GlobalDone);
}

Machine::Machine(const MachineConfig &config)
    : _config(config),
      _vm(config.pageBytes,
          std::max<uint64_t>(1, config.hierarchy.l2.sizeBytes /
                                    config.pageBytes),
          config.placement, config.seed),
      _missTotals(config.numCpus, 0), _cpus(config.numCpus),
      _dir(config.numCpus, config.hierarchy.l2.lineBytes)
{
    atl_assert(config.numCpus >= 1, "machine needs at least one cpu");

    // Normalise the parallel-engine knobs once so the rest of the code
    // can trust them: shards are clamped to the machine width, asking
    // for more than one shard selects the epoch engine, and the epoch
    // length defaults to the fairness slice.
    if (_config.hostShards == 0)
        _config.hostShards = 1;
    if (_config.hostShards > _config.numCpus)
        _config.hostShards = _config.numCpus;
    if (_config.hostShards > 1)
        _config.engine = EngineKind::Epoch;
    if (_config.epochCycles == 0)
        _config.epochCycles = _config.sliceQuantum;
    if (_config.laxFactor == 0)
        _config.laxFactor = 1;
    if (_config.engine == EngineKind::Epoch) {
        atl_assert(_config.epochCycles > 0,
                   "epoch engine requires a nonzero epoch length");
    }

    uint64_t l2_lines =
        config.hierarchy.l2.sizeBytes / config.hierarchy.l2.lineBytes;
    _model = std::make_unique<FootprintModel>(l2_lines);

    SchedulerConfig sched_cfg;
    sched_cfg.policy = config.policy;
    sched_cfg.numCpus = config.numCpus;
    sched_cfg.footprintThreshold = config.footprintThreshold;
    sched_cfg.maxHeapSize = config.maxHeapSize;
    sched_cfg.fairnessBypassPeriod = config.fairnessBypassPeriod;
    sched_cfg.anomalyMpiThreshold = config.anomalyMpiThreshold;
    sched_cfg.confidenceDecay = config.confidenceDecay;
    sched_cfg.confidenceRecovery = config.confidenceRecovery;
    sched_cfg.confidenceThreshold = config.confidenceThreshold;
    _scheduler = std::make_unique<Scheduler>(sched_cfg, _threads,
                                             _missTotals, _graph,
                                             _model.get());

    for (CpuId c = 0; c < config.numCpus; ++c) {
        Cpu &cpu = _cpus[c];
        cpu.id = c;
        cpu.hier = std::make_unique<Hierarchy>(config.hierarchy);
        // The classic engine keeps the line directory current from the
        // hierarchies themselves; epoch workers must not write shared
        // state mid-epoch and rebuild their own at commits.
        if (config.numCpus > 1 && _config.engine == EngineKind::Classic)
            cpu.hier->attachDirectory(&_dir, c);
        // PIC0 = E-cache references, PIC1 = E-cache hits: the paper's
        // configuration, from which the runtime derives misses.
        cpu.perf.configure(PerfEvent::EcacheRefs, PerfEvent::EcacheHits);
        // Fault injection may pre-bias the PICs close to 2^32 so they
        // wrap mid-run. Invisible to interval deltas (both ends of a
        // snapshot pair shift equally, and missesBetween handles the
        // wrap), which the wrap-bias bit-identity test relies on.
        if (config.faults) {
            uint32_t bias0 = config.faults->picBias(c, 0);
            uint32_t bias1 = config.faults->picBias(c, 1);
            if (bias0)
                cpu.perf.record(PerfEvent::EcacheRefs, bias0);
            if (bias1)
                cpu.perf.record(PerfEvent::EcacheHits, bias1);
        }
        // Modelled storage for the scheduler's own data structures.
        cpu.schedStateVa = alloc(8192, 64);
    }

    if (MetricsRegistry *reg = _config.metrics) {
        // One shard per simulated processor: whichever host thread
        // drives a processor is the sole writer of its shard, so the
        // merged totals cannot depend on hostShards.
        reg->ensureShards(_config.numCpus);
        _metricIds.dispatch[size_t(DispatchSource::None)] =
            reg->counter("machine.dispatch.none");
        _metricIds.dispatch[size_t(DispatchSource::Heap)] =
            reg->counter("machine.dispatch.heap");
        _metricIds.dispatch[size_t(DispatchSource::Global)] =
            reg->counter("machine.dispatch.global");
        _metricIds.dispatch[size_t(DispatchSource::Steal)] =
            reg->counter("machine.dispatch.steal");
        _metricIds.dispatch[size_t(DispatchSource::FairnessBypass)] =
            reg->counter("machine.dispatch.fairness_bypass");
        _metricIds.intervals = reg->counter("machine.intervals");
        _metricIds.fallbackIntervals =
            reg->counter("machine.fallback.intervals");
        _metricIds.fallbackEnters =
            reg->counter("machine.fallback.enters");
        _metricIds.fallbackLeaves =
            reg->counter("machine.fallback.leaves");
        _metricIds.intervalCycles =
            reg->histogram("machine.interval_cycles");
        _metricIds.switchCostCycles =
            reg->histogram("machine.switch_cost_cycles");
    }
}

Machine::~Machine() = default;

void
Machine::setObserver(MemoryObserver *observer)
{
    _observer = observer;
    // Under the epoch engine the hierarchies carry per-processor
    // interposers for the duration of the run; they forward to
    // _observer, so updating the member is enough.
    if (_epoch)
        return;
    for (Cpu &cpu : _cpus)
        cpu.hier->setObserver(observer, cpu.id);
}

// ---------------------------------------------------------------------
// Thread management
// ---------------------------------------------------------------------

ThreadId
Machine::spawn(std::function<void()> fn, std::string name)
{
    atl_assert(fn, "spawn requires a thread body");
    GlobalSection section(*this);
    Thread *caller = callerThread();
    if (caller && _config.spawnInstructions > 0)
        execute(_config.spawnInstructions);
    ThreadId id = static_cast<ThreadId>(_threads.size());
    if (name.empty())
        name = "thread-" + std::to_string(id);
    _threads.push_back(std::make_unique<Thread>(id, _config.numCpus,
                                                std::move(fn),
                                                std::move(name)));
    Thread &t = *_threads.back();
    t.readyTime = caller ? _cpus[_ctx.cpu].clock : 0;
    ++_liveThreads;
    _scheduler->makeRunnable(t, caller ? _ctx.cpu : InvalidCpuId);
    return id;
}

void
Machine::share(ThreadId src, ThreadId dst, double q)
{
    GlobalSection section(*this);
    // Annotations are hints: a fault plan may drop, misweight, redirect
    // or churn them, and the run must still terminate with correct
    // workload output (the paper's §2.3 contract).
    if (_config.faults) {
        uint64_t faults_before = _config.faults->stats().total();
        ShareFault fault =
            _config.faults->perturbShare(src, dst, q, _threads.size());
        if (EventLog *log = _config.telemetry;
            log && log->config().faults &&
            _config.faults->stats().total() != faults_before) {
            Event event;
            event.kind = EventKind::Fault;
            event.flag = static_cast<uint8_t>(FaultSurface::Share);
            event.cpu = callerThread()
                            ? static_cast<uint16_t>(_ctx.cpu)
                            : InvalidCpuId16;
            event.tid = src;
            event.time = now();
            event.n = _config.faults->stats().total();
            log->record(event);
        }
        if (fault.drop)
            return;
        shareOne(src, dst, q);
        if (fault.churn)
            shareOne(src, dst, fault.churnQ);
        return;
    }
    shareOne(src, dst, q);
}

void
Machine::shareOne(ThreadId src, ThreadId dst, double q)
{
    if (src >= _threads.size() || dst >= _threads.size()) {
        // Throttled: fault plans and buggy programs can produce
        // thousands of dangling annotations, and each is harmless.
        if (const char *suffix = _shareThrottle.tick())
            atl_warn("at_share with unknown thread id ignored", suffix);
        return;
    }
    _graph.share(src, dst, q);
}

ThreadId
Machine::self() const
{
    return requireCurrent().id;
}

void
Machine::join(ThreadId tid)
{
    Thread &me = requireCurrent();
    GlobalSection section(*this);
    atl_assert(tid < _threads.size(), "join on unknown thread");
    atl_assert(tid != me.id, "thread cannot join itself");
    Thread &target = *_threads[tid];
    if (target.state == ThreadState::Exited)
        return;
    target.joiners.push_back(me.id);
    blockCurrent();
}

void
Machine::yield()
{
    requireCurrent();
    switchOut(SwitchReason::Yielded);
}

void
Machine::sleep(Cycles duration)
{
    Thread &me = requireCurrent();
    me.readyTime = _cpus[_ctx.cpu].clock + duration;
    switchOut(SwitchReason::Sleeping);
}

void
Machine::blockCurrent()
{
    requireCurrent();
    switchOut(SwitchReason::Blocked);
}

void
Machine::wake(ThreadId tid)
{
    GlobalSection section(*this);
    atl_assert(tid < _threads.size(), "wake on unknown thread");
    Thread &t = *_threads[tid];
    atl_assert(t.state == ThreadState::Blocked,
               "wake on a ", threadStateName(t.state), " thread");
    t.readyTime = callerThread() ? _cpus[_ctx.cpu].clock : 0;
    _scheduler->makeRunnable(t);
}

Thread &
Machine::requireCurrent() const
{
    atl_assert(_ctx.machine == this && _ctx.thread,
               "operation requires a calling thread");
    return *_ctx.thread;
}

// ---------------------------------------------------------------------
// Modelled memory
// ---------------------------------------------------------------------

VAddr
Machine::alloc(uint64_t bytes, uint64_t align)
{
    GlobalSection section(*this);
    atl_assert(bytes > 0, "zero-byte allocation");
    atl_assert(isPowerOf2(align), "alignment must be a power of two");
    _nextVa = alignUp(_nextVa, align);
    VAddr va = _nextVa;
    _nextVa += bytes;
    return va;
}

void
Machine::read(VAddr va, uint64_t bytes)
{
    Thread &me = requireCurrent();
    Cpu &cpu = _cpus[_ctx.cpu];
    ++cpu.refBlocks;
    accessRange(cpu, &me, va, bytes, AccessType::Load);
}

void
Machine::write(VAddr va, uint64_t bytes)
{
    Thread &me = requireCurrent();
    Cpu &cpu = _cpus[_ctx.cpu];
    ++cpu.refBlocks;
    accessRange(cpu, &me, va, bytes, AccessType::Store);
}

void
Machine::fetch(VAddr va, uint64_t bytes)
{
    Thread &me = requireCurrent();
    Cpu &cpu = _cpus[_ctx.cpu];
    ++cpu.refBlocks;
    accessRange(cpu, &me, va, bytes, AccessType::IFetch);
}

void
Machine::execute(uint64_t instructions)
{
    Thread &me = requireCurrent();
    executeOn(_cpus[_ctx.cpu], me, instructions);
}

void
Machine::executeOn(Cpu &cpu, Thread &me, uint64_t instructions)
{
    while (instructions > 0) {
        uint64_t chunk = instructions;
        if (_config.numCpus > 1 && _config.sliceQuantum > 0) {
            Cycles used = cpu.clock - cpu.sliceStart;
            Cycles left = _config.sliceQuantum > used
                              ? _config.sliceQuantum - used
                              : 0;
            chunk = std::min<uint64_t>(instructions,
                                       std::max<Cycles>(left, 1));
        }
        cpu.clock += chunk;
        cpu.instructions += chunk;
        cpu.perf.record(PerfEvent::Instructions,
                        static_cast<uint32_t>(chunk));
        cpu.perf.record(PerfEvent::Cycles, static_cast<uint32_t>(chunk));
        me.stats.instructions += chunk;
        me.stats.cpuCycles += chunk;
        instructions -= chunk;
        if (_config.numCpus > 1 && _config.sliceQuantum > 0 &&
            cpu.clock - cpu.sliceStart >= _config.sliceQuantum) {
            sliceYield(cpu);
        }
    }
}

void
Machine::access(const RefBlock &block)
{
    if (block.empty())
        return;
    Thread &me = requireCurrent();
    Cpu &cpu = _cpus[_ctx.cpu];
    ++cpu.refBlocks;
    if (_accessHook) {
        // Replay the block through the scalar path so the hook sees the
        // exact per-reference stream (trace recording).
        for (uint32_t i = 0; i < block.size(); ++i) {
            const RefRun &run = block[i];
            if (run.op == RefOp::Execute) {
                executeOn(cpu, me, run.bytes);
                continue;
            }
            AccessType type = run.op == RefOp::Load ? AccessType::Load
                              : run.op == RefOp::Store
                                  ? AccessType::Store
                                  : AccessType::IFetch;
            VAddr base = run.va;
            for (uint32_t rep = 0; rep < run.count;
                 ++rep, base += run.stride) {
                accessRange(cpu, &me, base, run.bytes, type);
            }
        }
        return;
    }
    issueRuns(cpu, me, &block[0], block.size());
}

inline void
Machine::issueRef(Cpu &cpu, Thread *attribution, PAddr pa, AccessType type,
                  PicAcc &acc)
{
    HierarchyOutcome outcome = cpu.hier->access(pa, type);

    Cycles cost;
    if (!outcome.l2Referenced) {
        cost = _config.l1HitCycles;
    } else if (!outcome.l2Missed) {
        cost = _config.l2HitCycles;
    } else if (_config.numCpus == 1) {
        cost = _config.memoryCycles;
    } else {
        // Only a miss asks whether a peer holds the line. The access
        // above changed this processor's caches alone, so the answer
        // is the one a probe before it would have given.
        cost = remoteCached(cpu.id, pa) ? _config.memoryCyclesRemote
                                        : _config.memoryCyclesClean;
    }

    cpu.clock += cost;
    cpu.instructions += 1;
    acc.dirty = true;
    acc.instr += 1;
    acc.cycles += cost;
    if (type != AccessType::IFetch) {
        acc.l1dRefs += 1;
        if (outcome.servicedBy == ServicedBy::L1 && !outcome.l2Referenced)
            acc.l1dHits += 1;
    }
    if (outcome.l2Referenced) {
        acc.eRefs += 1;
        if (!outcome.l2Missed) {
            acc.eHits += 1;
        } else {
            acc.eMisses += 1;
            ++_missTotals[cpu.id];
            if (_observer) {
                _observer->onEMiss(cpu.id, attribution ? attribution->id
                                                       : InvalidThreadId);
            }
        }
    }

    if (attribution) {
        attribution->stats.instructions += 1;
        attribution->stats.cpuCycles += cost;
        if (outcome.l2Referenced) {
            attribution->stats.eRefs += 1;
            if (outcome.l2Missed)
                attribution->stats.eMisses += 1;
        }
    }

    // Invalidation-based coherence: a store removes every peer copy.
    if (type == AccessType::Store && _config.numCpus > 1)
        invalidateRemote(cpu.id, pa);
}

void
Machine::issueRuns(Cpu &cpu, Thread &me, const RefRun *runs,
                   uint32_t count)
{
    ScopedPhase access_phase(HostPhase::Access);
    const uint64_t step = _config.hierarchy.l1d.lineBytes;
    const VAddr page_mask = ~(_config.pageBytes - 1);
    const Cycles quantum = _config.sliceQuantum;
    const bool sliced = _config.numCpus > 1 && quantum > 0;
    const Cycles hit_cost = _config.l1HitCycles;
    Hierarchy &hier = *cpu.hier;

    // PIC deltas accumulate across the block and flush before anything
    // that could observe the counters: slice yields (another thread may
    // be dispatched onto this cpu afterwards and snapshot the PICs) and
    // block end. The PICs are only ever read at scheduling points, so
    // within a block the deferral is invisible. Everything else —
    // clocks, thread stats, miss totals, observer events, coherence —
    // happens per reference in exactly the scalar order.
    PicAcc acc;

    auto maybeYield = [&] {
        if (sliced && cpu.clock - cpu.sliceStart >= quantum) {
            acc.flush(cpu.perf);
            sliceYield(cpu);
        }
    };

    // Issue k consecutive references to one L1 line. Loads/ifetches
    // that keep hitting are committed in one step per slice window;
    // the window cap reproduces the scalar per-reference yield point
    // exactly (the scalar loop yields after ceil(left/hit_cost) hits),
    // and re-probing after each window catches peer invalidations
    // across the yield just as the scalar path would.
    auto emitGroup = [&](VAddr line_va, AccessType type, uint32_t k) {
        VAddr page = line_va & page_mask;
        PAddr pa;
        if (page == cpu.issuePage) {
            pa = line_va + cpu.issueDelta;
        } else {
            ScopedPhase translate_phase(HostPhase::Translate);
            pa = _epoch ? epochTranslate(line_va)
                        : _vm.translate(line_va);
            cpu.issuePage = page;
            cpu.issueDelta = pa - line_va;
        }
        cpu.refsIssued += k;
        while (k > 0) {
            // The hit probe only pays off when there is something to
            // coalesce; a lone reference goes straight through the
            // full path, which handles its own hit accounting.
            if (k > 1 && type != AccessType::Store) {
                uint32_t n = k;
                if (sliced) {
                    Cycles used = cpu.clock - cpu.sliceStart;
                    Cycles left = quantum > used ? quantum - used : 0;
                    uint64_t cap = (left + hit_cost - 1) / hit_cost;
                    if (cap == 0)
                        cap = 1;
                    if (cap < n)
                        n = static_cast<uint32_t>(cap);
                }
                if (hier.l1Hits(pa, type, n)) {
                    Cycles cost = static_cast<Cycles>(n) * hit_cost;
                    cpu.clock += cost;
                    cpu.instructions += n;
                    acc.dirty = true;
                    acc.instr += n;
                    acc.cycles += cost;
                    if (type != AccessType::IFetch) {
                        acc.l1dRefs += n;
                        acc.l1dHits += n;
                    }
                    me.stats.instructions += n;
                    me.stats.cpuCycles += cost;
                    k -= n;
                    maybeYield();
                    continue;
                }
            }
            issueRef(cpu, &me, pa, type, acc);
            --k;
            maybeYield();
        }
    };

    // Walk the runs, expanding to L1-line references and gathering
    // consecutive same-line load/ifetch references into groups.
    VAddr g_line = 0;
    AccessType g_type = AccessType::Load;
    uint32_t g_count = 0;
    auto flushGroup = [&] {
        if (g_count > 0) {
            emitGroup(g_line, g_type, g_count);
            g_count = 0;
        }
    };

    for (uint32_t i = 0; i < count; ++i) {
        // Runs are consumed strictly in order and the expansion work per
        // run can cover many cache lines, which defeats the hardware
        // stride prefetcher; pull upcoming run descriptors in early.
        if (i + 4 < count)
            __builtin_prefetch(&runs[i + 4], 0, 0);
        const RefRun &run = runs[i];
        if (run.op == RefOp::Execute) {
            flushGroup();
            acc.flush(cpu.perf);
            executeOn(cpu, me, run.bytes);
            continue;
        }
        atl_assert(run.bytes > 0, "zero-byte access");
        AccessType type = run.op == RefOp::Load ? AccessType::Load
                          : run.op == RefOp::Store ? AccessType::Store
                                                   : AccessType::IFetch;
        VAddr base = run.va;
        for (uint32_t rep = 0; rep < run.count;
             ++rep, base += run.stride) {
            VAddr first = alignDown(base, step);
            VAddr last = alignDown(base + run.bytes - 1, step);
            for (VAddr a = first; a <= last; a += step) {
                if (g_count > 0 && a == g_line && type == g_type &&
                    type != AccessType::Store && g_count < ~0u) {
                    ++g_count;
                    continue;
                }
                flushGroup();
                if (type == AccessType::Store) {
                    emitGroup(a, type, 1);
                } else {
                    g_line = a;
                    g_type = type;
                    g_count = 1;
                }
            }
        }
    }
    flushGroup();
    acc.flush(cpu.perf);
}

void
Machine::flushAllCaches()
{
    GlobalSection section(*this);
    for (Cpu &cpu : _cpus)
        cpu.hier->flush();
}

bool
Machine::remoteCached(CpuId self_cpu, PAddr pa) const
{
    // Epoch engine: answer from the epoch-start line directory so the
    // result is independent of how processors are sharded (peer caches
    // are being mutated concurrently and must not be probed).
    if (_epoch)
        return _epoch->remoteCached(self_cpu, pa);
    return _dir.heldByOther(pa, self_cpu);
}

void
Machine::invalidateRemote(CpuId self_cpu, PAddr pa)
{
    // Epoch engine: peers' caches belong to other workers mid-epoch;
    // queue the invalidation for the next commit's canonical replay.
    if (_epoch) {
        _epoch->queueInval(self_cpu, pa);
        return;
    }
    // Visit only the holders, in processor order (the order the evict
    // events of a probe of every peer would fire in).
    _dir.forEachOtherHolder(pa, self_cpu, [this, pa](CpuId holder) {
        _cpus[holder].hier->invalidateLine(pa);
    });
}

void
Machine::PicAcc::flush(PerfCounters &perf)
{
    if (!dirty)
        return;
    perf.record(PerfEvent::Instructions, instr);
    perf.record(PerfEvent::Cycles, static_cast<uint32_t>(cycles));
    perf.record(PerfEvent::L1dRefs, l1dRefs);
    perf.record(PerfEvent::L1dHits, l1dHits);
    perf.record(PerfEvent::EcacheRefs, eRefs);
    perf.record(PerfEvent::EcacheHits, eHits);
    perf.record(PerfEvent::EcacheMisses, eMisses);
    *this = PicAcc{};
}

void
Machine::accessOne(Cpu &cpu, Thread *attribution, VAddr va,
                   AccessType type, PicAcc &acc)
{
    if (_accessHook) {
        _accessHook(cpu.id,
                    attribution ? attribution->id : InvalidThreadId, va,
                    type);
    }

    ++cpu.refsIssued;
    PAddr pa;
    {
        ScopedPhase translate_phase(HostPhase::Translate);
        pa = _epoch ? epochTranslate(va) : _vm.translate(va);
    }
    issueRef(cpu, attribution, pa, type, acc);
}

void
Machine::accessRange(Cpu &cpu, Thread *attribution, VAddr va,
                     uint64_t bytes, AccessType type)
{
    atl_assert(bytes > 0, "zero-byte access");
    uint64_t step = _config.hierarchy.l1d.lineBytes;
    VAddr first = alignDown(va, step);
    VAddr last = alignDown(va + bytes - 1, step);
    // One PIC flush per range (see PicAcc); flushed eagerly before a
    // slice yield so whatever runs next observes settled counters.
    PicAcc acc;
    for (VAddr a = first; a <= last; a += step) {
        accessOne(cpu, attribution, a, type, acc);
        if (attribution && _config.numCpus > 1 &&
            _config.sliceQuantum > 0 &&
            cpu.clock - cpu.sliceStart >= _config.sliceQuantum) {
            acc.flush(cpu.perf);
            sliceYield(cpu);
        }
    }
    acc.flush(cpu.perf);
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

void
Machine::sliceYield(Cpu &cpu)
{
    atl_assert(_ctx.thread && cpu.current == _ctx.thread,
               "slice yield outside the current fiber");
    switchOut(SwitchReason::SliceEnd);
}

void
Machine::switchOut(SwitchReason reason)
{
    Thread &me = *_ctx.thread;
    me.switchReason = reason;
    // A blocking park dissolves any enclosing GlobalSection: the thread
    // is leaving its processor, so the section's single-threaded body
    // is over whether or not its destructor ever runs (the enclosing
    // RAII object sees the reset depth and does not park again).
    if (reason == SwitchReason::Blocked ||
        reason == SwitchReason::Sleeping ||
        reason == SwitchReason::Exited) {
        me.globalDepth = 0;
    } else if (reason == SwitchReason::Yielded) {
        atl_assert(me.globalDepth == 0,
                   "yield inside a global section");
    }
    Fiber::switchTo(me.fiber, *_ctx.engine);
    // Resumed: an engine has re-dispatched us (possibly on another
    // processor or host thread). Nothing to restore; the resuming
    // engine set _ctx for its own OS thread.
}

CpuId
Machine::chooseCpu() const
{
    CpuId best = InvalidCpuId;
    bool work = _scheduler->runnableCount() > 0;
    for (const Cpu &cpu : _cpus) {
        bool actionable = cpu.current != nullptr || work;
        if (!actionable)
            continue;
        if (best == InvalidCpuId || cpu.clock < _cpus[best].clock)
            best = cpu.id;
    }
    return best;
}

void
Machine::parkIdle(Cpu &cpu)
{
    Cycles min_other = ~Cycles(0);
    for (const Cpu &c : _cpus) {
        if (c.id != cpu.id)
            min_other = std::min(min_other, c.clock);
    }
    cpu.clock = std::max(cpu.clock + 1, min_other + 1);
}

void
Machine::replayIdlePasses()
{
    // The processor that just parked failed pickNext(): its heap held
    // nothing valid, the global queue is now empty, and no busy peer
    // had a valid entry to steal. Nothing but clocks changes while the
    // engine keeps parking, so the next processor chosen fails too
    // when it is idle with an empty heap (stale entries included: a
    // pop would count heap work) and no timer wakes at its clock. Its
    // steal scan covers busy peers only, a subset of the last scan.
    // Park it directly, as the main loop would after that failed call.
    for (;;) {
        Cpu &cpu = _cpus[chooseCpu()];
        if (cpu.current || _scheduler->heapSize(cpu.id) != 0)
            return;
        if (!_timers.empty() && _timers.topKey().first <= cpu.clock)
            return;
        _scheduler->noteIdlePass(cpu.id);
        ++_idlePassesReplayed;
        parkIdle(cpu);
    }
}

void
Machine::wakeDueTimers(Cycles time)
{
    while (!_timers.empty() && _timers.topKey().first <= time) {
        ThreadId tid = _timers.topId();
        _timers.pop();
        Thread &t = *_threads[tid];
        atl_assert(t.state == ThreadState::Sleeping,
                   "timer fired for a ", threadStateName(t.state),
                   " thread");
        _scheduler->makeRunnable(t);
    }
}

void
Machine::chargeSchedWork(Cpu &cpu)
{
    SwitchCost cost = _scheduler->drainSwitchCost();
    Cycles cycles = cost.heapOps * _config.heapOpCycles +
                    cost.fpOps * _config.fpOpCycles;
    cpu.clock += cycles;
    cpu.schedOverhead += cycles;
}

void
Machine::schedPollution(Cpu &cpu)
{
    if (!_config.modelSchedulerFootprint)
        return;
    // The scheduler walks its run-queue structures: a couple of lines
    // for FCFS's FIFO, a few more for the heap policies (roughly the
    // heap path touched by a push/pop pair).
    uint64_t lines = 1;
    if (_config.policy != PolicyKind::FCFS) {
        size_t h = _scheduler->heapSize(cpu.id);
        lines = 2;
        while (h > 1) {
            h >>= 1;
            ++lines;
        }
    }
    uint64_t line_bytes = _config.hierarchy.l1d.lineBytes;
    accessRange(cpu, nullptr, cpu.schedStateVa, lines * line_bytes,
                AccessType::Load);
}

void
Machine::beginInterval(Cpu &cpu, Thread &thread)
{
    ScopedPhase schedule_phase(HostPhase::Schedule);
    cpu.clock = std::max(cpu.clock, thread.readyTime);
    Cycles switch_start = cpu.clock;
    cpu.clock += _config.contextSwitchCycles;
    chargeSchedWork(cpu); // pickNext's heap work
    schedPollution(cpu);

    if (_config.telemetry)
        emitSwitchEvent(cpu, thread, switch_start);
    if (_config.metrics)
        recordSwitchMetrics(cpu, switch_start);

    if (!thread.started) {
        thread.started = true;
        thread.stack = takeStack();
        Thread *tp = &thread;
        thread.fiber.arm(*thread.stack, [this, tp] {
            tp->entry();
            tp->entry = nullptr;
            switchOut(SwitchReason::Exited);
        });
    }

    cpu.refsSnap = cpu.perf.read(0);
    cpu.hitsSnap = cpu.perf.read(1);
    cpu.instrSnap = thread.stats.instructions;
    cpu.sliceStart = cpu.clock;
    cpu.intervalStart = cpu.clock;
    cpu.current = &thread;
    _scheduler->setCpuBusy(cpu.id, true);
    ++cpu.switches;
}

void
Machine::resumeOn(Cpu &cpu)
{
    Thread &thread = *cpu.current;
    _ctx.thread = &thread;
    _ctx.cpu = cpu.id;
    Fiber::switchTo(_engineFiber, thread.fiber);
    _ctx.thread = nullptr;
    _ctx.cpu = InvalidCpuId;

    if (thread.switchReason == SwitchReason::SliceEnd) {
        cpu.sliceStart = cpu.clock;
        return; // still current; resumed on a later engine pass
    }
    endInterval(cpu, thread);
}

void
Machine::endInterval(Cpu &cpu, Thread &thread)
{
    // Read the PICs: misses taken during the scheduling interval. A
    // fault plan may corrupt the *reading* (lost sample, read noise,
    // torn snapshot); the counters themselves are never touched, so
    // the damage is confined to this interval's model inputs.
    uint32_t refs_now = cpu.perf.read(0);
    uint32_t hits_now = cpu.perf.read(1);
    bool sample_faulted = false;
    if (_config.faults) {
        sample_faulted = _config.faults->perturbSnapshot(
            cpu.refsSnap, cpu.hitsSnap, refs_now, hits_now);
    }
    uint64_t misses = PerfCounters::missesBetween(cpu.refsSnap,
                                                  cpu.hitsSnap, refs_now,
                                                  hits_now);
    uint64_t instructions = thread.stats.instructions - cpu.instrSnap;
    // Interval deltas, for the scheduler's plausibility checks.
    uint64_t refs_delta = static_cast<uint32_t>(refs_now - cpu.refsSnap);
    uint64_t hits_delta = static_cast<uint32_t>(hits_now - cpu.hitsSnap);

    EventLog *log = _config.telemetry;
    if (log)
        emitSampleEvents(cpu, thread, misses, refs_delta, hits_delta,
                         sample_faulted);

    // Degradation transitions surface as deltas across onBlock: the
    // scheduler has no clock, so the machine compares its counters and
    // fallback state before and after the sample lands.
    DegradationStats deg_before;
    bool fallback_before = false;
    if (log && log->config().degradation) {
        deg_before = _scheduler->degradation();
        fallback_before = _scheduler->inFallback(cpu.id);
    }
    bool metrics_fallback_before = false;
    if (_config.metrics)
        metrics_fallback_before = _scheduler->inFallback(cpu.id);

    {
        ScopedPhase schedule_phase(HostPhase::Schedule);
        _scheduler->onBlock(thread, cpu.id, misses, instructions,
                            refs_delta, hits_delta);
        chargeSchedWork(cpu); // onBlock's O(d) priority work
    }

    if (log)
        emitPostBlockEvents(cpu, thread, misses, instructions, deg_before,
                            fallback_before);
    if (_config.metrics)
        recordIntervalMetrics(cpu, metrics_fallback_before);

    cpu.current = nullptr;
    _scheduler->setCpuBusy(cpu.id, false);

    switch (thread.switchReason) {
      case SwitchReason::Yielded:
        thread.readyTime = cpu.clock;
        _scheduler->makeRunnable(thread);
        break;
      case SwitchReason::Blocked:
        thread.state = ThreadState::Blocked;
        break;
      case SwitchReason::Sleeping:
        thread.state = ThreadState::Sleeping;
        _timers.push(thread.id, Timer(thread.readyTime, thread.id));
        break;
      case SwitchReason::Exited: {
        thread.state = ThreadState::Exited;
        for (ThreadId joiner : thread.joiners) {
            Thread &j = *_threads[joiner];
            j.readyTime = cpu.clock;
            _scheduler->makeRunnable(j);
        }
        thread.joiners.clear();
        if (thread.stack)
            _stackPool.push_back(std::move(thread.stack));
        _graph.removeThread(thread.id);
        atl_assert(_liveThreads > 0, "thread accounting underflow");
        --_liveThreads;
        break;
      }
      default:
        atl_panic("unexpected switch reason ",
                  static_cast<int>(thread.switchReason));
    }
}

void
Machine::emitSwitchEvent(const Cpu &cpu, const Thread &thread,
                         Cycles switch_start)
{
    EventLog *log = _config.telemetry;
    if (!log->config().switches)
        return;
    const DispatchInfo &pick = _scheduler->lastDispatch();
    Event event;
    event.kind = EventKind::Switch;
    event.flag = static_cast<uint8_t>(pick.source);
    event.cpu = static_cast<uint16_t>(cpu.id);
    event.tid = thread.id;
    event.time = cpu.clock;
    event.t0 = _scheduler->globalQueueSize();
    event.n = cpu.clock - switch_start;
    event.m = _scheduler->heapValidSize(cpu.id);
    event.value = _scheduler->expectedFootprint(thread, cpu.id);
    event.aux = pick.priority;
    log->record(event);
}

void
Machine::emitSampleEvents(const Cpu &cpu, const Thread &thread,
                          uint64_t misses, uint64_t refs_delta,
                          uint64_t hits_delta, bool sample_faulted)
{
    EventLog *log = _config.telemetry;
    if (log->config().intervals) {
        Event event;
        event.kind = EventKind::PicSample;
        event.flag = sample_faulted ? 1 : 0;
        event.cpu = static_cast<uint16_t>(cpu.id);
        event.tid = thread.id;
        event.time = cpu.clock;
        event.t0 = misses;
        event.n = refs_delta;
        event.m = hits_delta;
        log->record(event);
    }
    if (log->config().faults && sample_faulted) {
        Event event;
        event.kind = EventKind::Fault;
        event.flag = static_cast<uint8_t>(FaultSurface::Snapshot);
        event.cpu = static_cast<uint16_t>(cpu.id);
        event.tid = thread.id;
        event.time = cpu.clock;
        event.n = _config.faults->stats().total();
        log->record(event);
    }
}

void
Machine::emitPostBlockEvents(const Cpu &cpu, const Thread &thread,
                             uint64_t misses, uint64_t instructions,
                             const DegradationStats &before,
                             bool fallback_before)
{
    EventLog *log = _config.telemetry;
    if (log->config().degradation) {
        const DegradationStats &deg = _scheduler->degradation();
        double confidence = _scheduler->confidence(cpu.id);
        if (deg.implausibleSamples != before.implausibleSamples) {
            Event event;
            event.kind = EventKind::CounterAnomaly;
            event.flag = static_cast<uint8_t>(
                (deg.tornSamples != before.tornSamples ? 1 : 0) |
                (deg.clampedMisses != before.clampedMisses ? 2 : 0));
            event.cpu = static_cast<uint16_t>(cpu.id);
            event.tid = thread.id;
            event.time = cpu.clock;
            event.value = confidence;
            log->record(event);
        }
        bool fallback_now = _scheduler->inFallback(cpu.id);
        if (fallback_now != fallback_before) {
            Event event;
            event.kind = fallback_now ? EventKind::FallbackEnter
                                      : EventKind::FallbackLeave;
            event.cpu = static_cast<uint16_t>(cpu.id);
            event.tid = thread.id;
            event.time = cpu.clock;
            event.value = confidence;
            log->record(event);
        }
    }
    if (log->config().intervals) {
        Event event;
        event.kind = EventKind::IntervalEnd;
        event.flag = static_cast<uint8_t>(thread.switchReason);
        event.cpu = static_cast<uint16_t>(cpu.id);
        event.tid = thread.id;
        event.time = cpu.clock;
        event.t0 = cpu.intervalStart;
        event.n = misses;
        event.m = instructions;
        event.value = _scheduler->expectedFootprint(thread, cpu.id);
        event.aux = _scheduler->confidence(cpu.id);
        log->record(event);
    }
}

void
Machine::recordSwitchMetrics(const Cpu &cpu, Cycles switch_start)
{
    MetricsRegistry &reg = *_config.metrics;
    unsigned shard = cpu.id;
    const DispatchInfo &pick = _scheduler->lastDispatch();
    reg.add(_metricIds.dispatch[static_cast<size_t>(pick.source)], 1,
            shard);
    reg.observe(_metricIds.switchCostCycles, cpu.clock - switch_start,
                shard);
}

void
Machine::recordIntervalMetrics(const Cpu &cpu, bool fallback_before)
{
    MetricsRegistry &reg = *_config.metrics;
    unsigned shard = cpu.id;
    reg.add(_metricIds.intervals, 1, shard);
    reg.observe(_metricIds.intervalCycles, cpu.clock - cpu.intervalStart,
                shard);
    bool fallback_now = _scheduler->inFallback(cpu.id);
    if (fallback_now)
        reg.add(_metricIds.fallbackIntervals, 1, shard);
    if (fallback_now && !fallback_before)
        reg.add(_metricIds.fallbackEnters, 1, shard);
    else if (!fallback_now && fallback_before)
        reg.add(_metricIds.fallbackLeaves, 1, shard);
}

void
Machine::run()
{
    atl_assert(!_running, "machine is already running");
    _running = true;
    Machine *prev_active = activeMachine;
    activeMachine = this;

    // Capture warnings logged during the run as telemetry events. The
    // sink is thread-local (sweep jobs run concurrently) and restored
    // by RAII so a throwing run cannot leak it onto the worker.
    struct SinkGuard
    {
        WarnSink previous;
        bool active = false;
        ~SinkGuard()
        {
            if (active)
                setWarnSink(std::move(previous));
        }
    } sink_guard;
    if (EventLog *log = _config.telemetry;
        log && log->config().warnings) {
        sink_guard.previous =
            setWarnSink([this, log](LogLevel, const std::string &message) {
                log->recordWarning(now(), message);
            });
        sink_guard.active = true;
    }

    // Execution context for this OS thread (the classic engine; also
    // the epoch leader). Restored on exit so nested runs compose.
    ExecCtx prev_ctx = _ctx;
    _ctx = ExecCtx{};
    _ctx.machine = this;
    _ctx.engine = &_engineFiber;

    if (_config.engine == EngineKind::Epoch) {
        runEpochEngine();
        _ctx = prev_ctx;
        activeMachine = prev_active;
        _running = false;
        return;
    }

    while (_liveThreads > 0) {
        CpuId choice = chooseCpu();
        if (choice == InvalidCpuId) {
            // Everything idle with no runnable thread: advance virtual
            // time to the earliest timer, or report deadlock.
            if (_timers.empty())
                reportDeadlock();
            CpuId idle = 0;
            for (CpuId c = 1; c < _config.numCpus; ++c) {
                if (_cpus[c].clock < _cpus[idle].clock)
                    idle = c;
            }
            _cpus[idle].clock =
                std::max(_cpus[idle].clock, _timers.topKey().first);
            wakeDueTimers(_cpus[idle].clock);
            continue;
        }

        Cpu &cpu = _cpus[choice];
        wakeDueTimers(cpu.clock);

        if (!cpu.current) {
            Thread *next;
            {
                ScopedPhase schedule_phase(HostPhase::Schedule);
                next = _scheduler->pickNext(cpu.id);
            }
            if (!next) {
                if (_scheduler->runnableCount() > 0) {
                    // Runnable work exists, but only in an *idle*
                    // peer's heap: that peer will dispatch it locally
                    // at this same instant.
                    parkIdle(cpu);
                    replayIdlePasses();
                    continue;
                }
                if (!_timers.empty()) {
                    cpu.clock =
                        std::max(cpu.clock, _timers.topKey().first);
                    wakeDueTimers(cpu.clock);
                } else {
                    bool any_current = false;
                    for (const Cpu &c : _cpus)
                        any_current |= (c.current != nullptr);
                    if (!any_current)
                        reportDeadlock();
                }
                continue;
            }
            beginInterval(cpu, *next);
        }
        resumeOn(cpu);
    }

    _ctx = prev_ctx;
    activeMachine = prev_active;
    _running = false;
}

void
Machine::reportDeadlock()
{
    size_t blocked = 0;
    for (const auto &t : _threads) {
        if (t->state == ThreadState::Blocked) {
            ++blocked;
            if (blocked <= 8) {
                atl_warn("deadlocked thread ", t->id, " '", t->name,
                         "' state=", threadStateName(t->state));
            }
        }
    }
    atl_fatal("deadlock: ", _liveThreads, " live threads, ", blocked,
              " blocked, none runnable");
    std::abort(); // unreachable: fatal() exits or throws in test mode
}

std::unique_ptr<FiberStack>
Machine::takeStack()
{
    if (!_stackPool.empty()) {
        auto stack = std::move(_stackPool.back());
        _stackPool.pop_back();
        return stack;
    }
    return std::make_unique<FiberStack>(_config.stackBytes);
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

Cycles
Machine::now() const
{
    if (callerThread())
        return _cpus[_ctx.cpu].clock;
    return makespan();
}

CpuId
Machine::currentCpu() const
{
    requireCurrent();
    return _ctx.cpu;
}

CpuStats
Machine::cpuStats(CpuId cpu) const
{
    atl_assert(cpu < _config.numCpus, "cpu id out of range");
    const Cpu &c = _cpus[cpu];
    CpuStats s;
    s.clock = c.clock;
    s.contextSwitches = c.switches;
    s.instructions = c.instructions;
    s.eRefs = c.hier->l2().stats().refs;
    s.eMisses = c.hier->l2().stats().misses();
    s.schedOverheadCycles = c.schedOverhead;
    return s;
}

uint64_t
Machine::totalEMisses() const
{
    uint64_t total = 0;
    for (const Cpu &c : _cpus)
        total += c.hier->l2().stats().misses();
    return total;
}

uint64_t
Machine::totalERefs() const
{
    uint64_t total = 0;
    for (const Cpu &c : _cpus)
        total += c.hier->l2().stats().refs;
    return total;
}

uint64_t
Machine::totalInstructions() const
{
    uint64_t total = 0;
    for (const Cpu &c : _cpus)
        total += c.instructions;
    return total;
}

uint64_t
Machine::totalSwitches() const
{
    uint64_t total = 0;
    for (const Cpu &c : _cpus)
        total += c.switches;
    return total;
}

Cycles
Machine::makespan() const
{
    Cycles max_clock = 0;
    for (const Cpu &c : _cpus)
        max_clock = std::max(max_clock, c.clock);
    return max_clock;
}

uint64_t
Machine::refsIssued() const
{
    uint64_t total = 0;
    for (const Cpu &c : _cpus)
        total += c.refsIssued;
    return total;
}

uint64_t
Machine::refBlocks() const
{
    uint64_t total = 0;
    for (const Cpu &c : _cpus)
        total += c.refBlocks;
    return total;
}

Thread &
Machine::thread(ThreadId tid)
{
    atl_assert(tid < _threads.size(), "thread id out of range");
    return *_threads[tid];
}

const Thread &
Machine::thread(ThreadId tid) const
{
    atl_assert(tid < _threads.size(), "thread id out of range");
    return *_threads[tid];
}

const Hierarchy &
Machine::hierarchy(CpuId cpu) const
{
    atl_assert(cpu < _config.numCpus, "cpu id out of range");
    return *_cpus[cpu].hier;
}

PerfCounters &
Machine::perf(CpuId cpu)
{
    atl_assert(cpu < _config.numCpus, "cpu id out of range");
    return _cpus[cpu].perf;
}

} // namespace atl
