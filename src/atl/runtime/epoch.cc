/**
 * @file
 * The parallel (epoch) execution engine. See epoch.hh for the state
 * and isolation invariants; this file holds the engine loop, the
 * worker bodies, and the single-threaded commit protocol.
 *
 * Determinism argument, in brief: mid-epoch, every processor computes
 * against (a) its own private state and (b) shared state frozen at the
 * last commit. Its execution is therefore a pure function of committed
 * state, independent of which host thread runs it or how processors
 * are sharded. Commits serialize all cross-processor effects in
 * processor order on the leader. By induction over commits, the whole
 * run is bit-identical for every shard count.
 */

#include "atl/runtime/epoch.hh"

#include <algorithm>
#include <thread>

#include "atl/obs/metrics.hh"
#include "atl/util/logging.hh"

namespace atl
{

EpochState::EpochState(Machine &machine, unsigned shard_count,
                       Cycles step_cycles)
    : shards(shard_count), step(step_cycles),
      dir(machine._config.numCpus, machine._config.hierarchy.l2.lineBytes),
      startBarrier(static_cast<std::ptrdiff_t>(shard_count)),
      endBarrier(static_cast<std::ptrdiff_t>(shard_count))
{
    unsigned n = machine._config.numCpus;
    cpus.resize(n);
    interposers.resize(n);
    for (unsigned c = 0; c < n; ++c) {
        interposers[c].self = &cpus[c];
        interposers[c].external = &machine._observer;
    }
}

PAddr
Machine::epochTranslate(VAddr va)
{
    // The commit phase is single-threaded on the leader, so page-table
    // walks (and first-touch frame placement) are ordinary there.
    if (_epoch->inCommit)
        return _vm.translate(va);
    // Mid-epoch the page table is read-only shared state. First touch
    // of an unmapped page parks the fiber; the leader maps the page at
    // commit (in canonical park order, so placement is deterministic)
    // and the retry next epoch succeeds.
    PAddr pa;
    while (!_vm.translateIfMapped(va, pa)) {
        Thread &me = *_ctx.thread;
        me.pendingVa = va;
        switchOut(SwitchReason::PageFault);
    }
    return pa;
}

void
Machine::epochAdvanceShard(unsigned shard, Fiber &engine)
{
    EpochState &es = *_epoch;
    for (CpuId c = shard; c < _config.numCpus; c += es.shards) {
        Cpu &cpu = _cpus[c];
        EpochState::PerCpu &ecpu = es.cpus[c];
        if (ecpu.parked || !cpu.current || cpu.clock >= es.horizon)
            continue;
        // Telemetry produced while this processor's fiber runs is
        // parked per processor and drained in order at commit.
        EventLog::deferTo(&ecpu.telemetry);
        while (cpu.clock < es.horizon) {
            Thread &thread = *cpu.current;
            _ctx.thread = &thread;
            _ctx.cpu = c;
            Fiber::switchTo(engine, thread.fiber);
            _ctx.thread = nullptr;
            _ctx.cpu = InvalidCpuId;
            if (thread.switchReason == SwitchReason::SliceEnd) {
                cpu.sliceStart = cpu.clock;
                continue;
            }
            ecpu.parked = true;
            ecpu.parkClock = cpu.clock;
            break;
        }
    }
    EventLog::deferTo(nullptr);
}

SwitchReason
Machine::commitResume(Cpu &cpu)
{
    Thread &thread = *cpu.current;
    for (;;) {
        _ctx.thread = &thread;
        _ctx.cpu = cpu.id;
        Fiber::switchTo(*_ctx.engine, thread.fiber);
        _ctx.thread = nullptr;
        _ctx.cpu = InvalidCpuId;
        switch (thread.switchReason) {
          case SwitchReason::SliceEnd:
            // The commit phase ignores the fairness slice: the body
            // must run to its next real park.
            cpu.sliceStart = cpu.clock;
            continue;
          case SwitchReason::PageFault:
            // Defensive: commit-phase translations are direct, but a
            // fiber parked mid-epoch retries through the park path.
            _vm.translate(thread.pendingVa);
            continue;
          default:
            return thread.switchReason;
        }
    }
}

void
Machine::epochDispatch()
{
    ScopedPhase schedule_phase(HostPhase::Schedule);
    // Repeated passes because one dispatch can expose another (global
    // queue refills, work made runnable by a commit body). Idle
    // processors are offered work in (clock, id) order, mirroring the
    // classic engine's min-clock preference.
    for (;;) {
        std::vector<CpuId> idle;
        for (const Cpu &cpu : _cpus) {
            if (!cpu.current)
                idle.push_back(cpu.id);
        }
        std::sort(idle.begin(), idle.end(), [this](CpuId a, CpuId b) {
            if (_cpus[a].clock != _cpus[b].clock)
                return _cpus[a].clock < _cpus[b].clock;
            return a < b;
        });
        bool dispatched = false;
        for (CpuId c : idle) {
            Thread *next = _scheduler->pickNext(c);
            if (next) {
                beginInterval(_cpus[c], *next);
                dispatched = true;
            }
        }
        if (!dispatched)
            return;
    }
}

bool
Machine::epochCommit()
{
    ScopedPhase commit_phase(HostPhase::Commit);
    EpochState &es = *_epoch;
    es.inCommit = true;

    // 1. Replay cache-occupancy deltas into the line directory, in
    // processor order. Order within a processor is occurrence order,
    // so a fill-then-evict of the same line lands correctly.
    for (CpuId c = 0; c < _config.numCpus; ++c) {
        EpochState::PerCpu &ecpu = es.cpus[c];
        for (const EpochState::Delta &d : ecpu.deltas) {
            if (d.fill)
                es.dir.add(d.line, c);
            else
                es.dir.remove(d.line, c);
        }
        ecpu.deltas.clear();
    }

    // 2. Replay queued store invalidations in processor order: remove
    // the line from every peer cache and from the directory. The evict
    // notifications this triggers are fresh deltas replayed at the
    // next commit — idempotent, since the directory bits are already
    // cleared here.
    for (CpuId c = 0; c < _config.numCpus; ++c) {
        EpochState::PerCpu &ecpu = es.cpus[c];
        for (PAddr pa : ecpu.invals) {
            for (Cpu &peer : _cpus) {
                if (peer.id != c)
                    peer.hier->invalidateLine(pa);
            }
            es.dir.keepOnly(pa, c);
        }
        ecpu.invals.clear();
    }

    // 3. Drain deferred telemetry in processor order, so the retained
    // event stream is independent of sharding.
    if (EventLog *log = _config.telemetry) {
        for (CpuId c = 0; c < _config.numCpus; ++c)
            log->drain(es.cpus[c].telemetry);
    } else {
        for (CpuId c = 0; c < _config.numCpus; ++c)
            es.cpus[c].telemetry.clear();
    }

    // 4. Process parked fibers in (park clock, processor) order — the
    // canonical serialization of this epoch's global operations.
    std::vector<CpuId> parks;
    for (CpuId c = 0; c < _config.numCpus; ++c) {
        if (es.cpus[c].parked)
            parks.push_back(c);
    }
    std::sort(parks.begin(), parks.end(), [&es](CpuId a, CpuId b) {
        if (es.cpus[a].parkClock != es.cpus[b].parkClock)
            return es.cpus[a].parkClock < es.cpus[b].parkClock;
        return a < b;
    });
    for (CpuId c : parks) {
        Cpu &cpu = _cpus[c];
        es.cpus[c].parked = false;
        Thread &thread = *cpu.current;
        switch (thread.switchReason) {
          case SwitchReason::GlobalOp: {
            // Run the section body here, single-threaded. It ends with
            // GlobalDone (thread continues next epoch) or dissolves
            // into a scheduling park handled like any other.
            SwitchReason reason = commitResume(cpu);
            if (reason == SwitchReason::GlobalDone)
                break;
            endInterval(cpu, thread);
            break;
          }
          case SwitchReason::PageFault:
            // Map the faulting page; the fiber stays current and its
            // translation retry next epoch succeeds.
            _vm.translate(thread.pendingVa);
            break;
          default:
            // Yielded / Blocked / Sleeping / Exited: ordinary interval
            // end, exactly as the classic engine would bookkeep it.
            endInterval(cpu, thread);
            break;
        }
    }

    // 5. Wake due timers and offer work to idle processors.
    wakeDueTimers(es.horizon);
    epochDispatch();

    if (_liveThreads == 0) {
        es.inCommit = false;
        return false;
    }

    // All processors idle: jump virtual time to the earliest timer
    // (the epoch analogue of the classic engine's idle advance).
    while (true) {
        bool any_current = false;
        for (const Cpu &cpu : _cpus)
            any_current |= cpu.current != nullptr;
        if (any_current)
            break;
        if (_timers.empty())
            reportDeadlock();
        wakeDueTimers(_timers.topKey().first);
        epochDispatch();
    }

    // 6. Advance the horizon, skipping epochs nothing would run (all
    // runnable work can start far past the horizon after a timer jump
    // or a long idle stretch).
    Cycles min_clock = ~Cycles(0);
    for (const Cpu &cpu : _cpus) {
        if (cpu.current)
            min_clock = std::min(min_clock, cpu.clock);
    }
    es.horizon = std::max(es.horizon + es.step,
                          alignUp(min_clock + 1, es.step));

    es.inCommit = false;
    return true;
}

void
Machine::epochWorkerMain(unsigned shard)
{
    Machine *prev_active = swapActive(this);
    Fiber engine;
    ExecCtx prev_ctx = _ctx;
    _ctx = ExecCtx{};
    _ctx.machine = this;
    _ctx.engine = &engine;

    // Warnings raised on this worker become telemetry, exactly as on
    // the engine thread (the sink is per OS thread); the per-processor
    // deferral installed in epochAdvanceShard keeps them ordered.
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

    EpochState &es = *_epoch;
    for (;;) {
        es.startBarrier.arrive_and_wait();
        if (es.done)
            break;
        epochAdvanceShard(shard, engine);
        es.endBarrier.arrive_and_wait();
    }

    _ctx = prev_ctx;
    swapActive(prev_active);
}

void
Machine::runEpochEngine()
{
    atl_assert(!_epoch, "epoch engine is already active");
    _epoch = std::make_unique<EpochState>(
        *this, _config.hostShards,
        static_cast<Cycles>(_config.epochCycles) * _config.laxFactor);
    EpochState &es = *_epoch;

    // Interpose the per-processor delta observers for the whole run.
    for (Cpu &cpu : _cpus)
        cpu.hier->setObserver(&es.interposers[cpu.id], cpu.id);

    // Initial commit: dispatch the pre-spawned threads and establish
    // the first horizon. (No deltas or parks exist yet.)
    bool alive = epochCommit();

    std::vector<std::thread> workers;
    workers.reserve(es.shards - 1);
    for (unsigned w = 1; w < es.shards; ++w)
        workers.emplace_back([this, w] { epochWorkerMain(w); });

    // Leader loop. `done` is written before the start barrier and read
    // by workers after it; everything a worker wrote mid-epoch is read
    // by the leader after the end barrier. The barriers carry all the
    // ordering — no other synchronisation exists mid-run.
    for (;;) {
        es.done = !alive;
        es.startBarrier.arrive_and_wait();
        if (es.done)
            break;
        epochAdvanceShard(0, _engineFiber);
        es.endBarrier.arrive_and_wait();
        alive = epochCommit();
    }

    for (std::thread &worker : workers)
        worker.join();

    // Restore the external observer wiring before tearing down.
    for (Cpu &cpu : _cpus)
        cpu.hier->setObserver(_observer, cpu.id);
    _epoch.reset();
}

} // namespace atl
