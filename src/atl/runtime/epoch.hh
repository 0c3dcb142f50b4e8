/**
 * @file
 * Run state of the parallel (epoch) execution engine: the simulated
 * processors are partitioned into shards, each driven by one host
 * worker thread, and all shards advance in lockstep to a shared cycle
 * horizon. Cross-processor effects produced mid-epoch — coherence
 * invalidations, cache-occupancy changes, scheduling operations,
 * telemetry — are queued per processor and committed by the leader in
 * canonical processor order at the epoch barrier, which makes the
 * simulation results bit-identical for every shard count (including
 * one).
 *
 * Mid-epoch isolation invariants (what makes this race-free *and*
 * deterministic):
 *  - a worker touches only its own processors' Cpu records,
 *    hierarchies and fibers, plus epoch-start-committed shared state
 *    (page table, scheduler, sharing graph) read-only;
 *  - "is this line cached remotely" is answered from the line
 *    directory (`dir`), which is only written during commits;
 *  - every mutation of shared state parks the fiber (GlobalSection /
 *    PageFault) or queues a delta, and the leader replays all of it
 *    single-threaded between barriers.
 */

#ifndef ATL_RUNTIME_EPOCH_HH
#define ATL_RUNTIME_EPOCH_HH

#include <barrier>
#include <cstdint>
#include <vector>

#include "atl/mem/hierarchy.hh"
#include "atl/mem/line_directory.hh"
#include "atl/obs/event_log.hh"
#include "atl/runtime/machine.hh"

namespace atl
{

/** Epoch-engine state; exists only while Machine::runEpochEngine() is
 *  on the stack. */
struct EpochState
{
    /** One mid-epoch E-cache occupancy change of a processor. */
    struct Delta
    {
        PAddr line;
        bool fill; ///< true = line entered the cache, false = left
    };

    /**
     * Per-processor epoch logs. Cache-line aligned: each is written by
     * the worker driving that processor, and neighbours must not
     * false-share.
     */
    struct alignas(64) PerCpu
    {
        /** E-cache fills/evicts this epoch, in occurrence order;
         *  replayed into `dir` at commit. */
        std::vector<Delta> deltas;
        /** Store addresses awaiting peer invalidation. */
        std::vector<PAddr> invals;
        /** Telemetry produced while this processor's fiber ran. */
        EventLog::Deferral telemetry;
        /** Fiber parked with a non-SliceEnd reason awaiting commit. */
        bool parked = false;
        /** Processor clock at the park (commit processing order). */
        Cycles parkClock = 0;
    };

    /**
     * Per-processor observer interposer: logs occupancy deltas for the
     * directory replay, then forwards to the machine's external
     * observer (tracer). Installed on each hierarchy for the whole
     * run, commit phase included — commit-side fills/evicts replay at
     * the *next* commit, which is deterministic and idempotent.
     */
    struct Interposer final : MemoryObserver
    {
        PerCpu *self = nullptr;
        MemoryObserver *const *external = nullptr;

        void
        onL2Fill(CpuId cpu, PAddr line_addr) override
        {
            self->deltas.push_back({line_addr, true});
            if (MemoryObserver *o = *external)
                o->onL2Fill(cpu, line_addr);
        }

        void
        onL2Evict(CpuId cpu, PAddr line_addr) override
        {
            self->deltas.push_back({line_addr, false});
            if (MemoryObserver *o = *external)
                o->onL2Evict(cpu, line_addr);
        }

        void
        onL2Replace(CpuId cpu, PAddr fill_addr,
                    PAddr victim_addr) override
        {
            // Same delta order the split events produced: the victim
            // leaves before the fill lands.
            self->deltas.push_back({victim_addr, false});
            self->deltas.push_back({fill_addr, true});
            if (MemoryObserver *o = *external)
                o->onL2Replace(cpu, fill_addr, victim_addr);
        }

        void
        onEMiss(CpuId cpu, ThreadId tid) override
        {
            if (MemoryObserver *o = *external)
                o->onEMiss(cpu, tid);
        }
    };

    EpochState(Machine &machine, unsigned shard_count, Cycles step_cycles);

    /**
     * Is the line cached by any processor other than `self_cpu`,
     * according to the directory (epoch-start state plus all committed
     * deltas)? Readable concurrently mid-epoch: the directory only
     * grows or changes at commits, and lines beyond its current size
     * are simply absent.
     */
    bool
    remoteCached(CpuId self_cpu, PAddr pa) const
    {
        return dir.heldByOther(pa, self_cpu);
    }

    /** Queue a store's peer invalidation for the next commit. */
    void
    queueInval(CpuId self_cpu, PAddr pa)
    {
        cpus[self_cpu].invals.push_back(pa);
    }

    /** Host worker threads (= shard count). */
    unsigned shards;
    /** Horizon increment per epoch: laxFactor * epochCycles. */
    Cycles step;
    /** Cycle bound of the current epoch (processors run while their
     *  clock is below it; commits may jump it past idle stretches). */
    Cycles horizon = 0;
    /** Leader executing the single-threaded commit phase (sections
     *  opened during a commit run inline instead of parking). */
    bool inCommit = false;
    /** Simulation complete; written by the leader before the start
     *  barrier, read by workers after it. */
    bool done = false;

    /**
     * Line directory: the processors whose E-cache held each line as of
     * the last commit (the same type the classic engine keeps current
     * per reference). Written only during commits.
     */
    LineDirectory dir;

    /** Per-processor epoch logs. */
    std::vector<PerCpu> cpus;
    /** Per-processor observer interposers (parallel to `cpus`). */
    std::vector<Interposer> interposers;

    /** Epoch-start barrier: workers read `done` after it. */
    std::barrier<> startBarrier;
    /** Epoch-end barrier: the leader commits after it. */
    std::barrier<> endBarrier;
};

} // namespace atl

#endif // ATL_RUNTIME_EPOCH_HH
