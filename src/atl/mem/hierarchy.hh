/**
 * @file
 * The per-processor memory hierarchy of the simulated UltraSPARC-1
 * (paper Table 1): a 16KB direct-mapped write-through L1 data cache, a
 * 16KB 2-way L1 instruction cache, and a 512KB direct-mapped write-back
 * unified external (E-)cache that maintains inclusion over both L1s.
 *
 * The hierarchy reports which level serviced each reference; cycle costs
 * are applied by the machine model, which also owns coherence across
 * processors.
 */

#ifndef ATL_MEM_HIERARCHY_HH
#define ATL_MEM_HIERARCHY_HH

#include "atl/mem/cache.hh"
#include "atl/mem/line_directory.hh"
#include "atl/util/logging.hh"

namespace atl
{

/**
 * Observation interface for simulation instrumentation (the tracer).
 * Declared at the memory layer so a Hierarchy can report line events
 * through one devirtualisable pointer; the runtime and simulation
 * layers implement it. Dispatch is a raw pointer null-check plus one
 * virtual call on E-cache fill/evict — the per-reference hot path pays
 * nothing when no observer is installed (untraced runs, the common
 * case for the policy benches).
 */
class MemoryObserver
{
  public:
    virtual ~MemoryObserver() = default;

    /** A line entered the E-cache of a processor. */
    virtual void onL2Fill(CpuId cpu, PAddr line_addr) = 0;

    /** A line left the E-cache of a processor (eviction/invalidation). */
    virtual void onL2Evict(CpuId cpu, PAddr line_addr) = 0;

    /**
     * A fill that displaced a valid line: the common steady-state miss
     * event, delivered as one call so hot observers (the tracer) pay a
     * single virtual dispatch instead of an evict + fill pair. The
     * default forwards to onL2Evict then onL2Fill — the order the
     * split events fired in — so observers that don't care can ignore
     * it.
     */
    virtual void
    onL2Replace(CpuId cpu, PAddr fill_addr, PAddr victim_addr)
    {
        onL2Evict(cpu, victim_addr);
        onL2Fill(cpu, fill_addr);
    }

    /** A demand E-cache miss by a thread on a processor. */
    virtual void onEMiss(CpuId cpu, ThreadId tid)
    {
        (void)cpu;
        (void)tid;
    }
};

/** Kind of memory reference. */
enum class AccessType
{
    IFetch,
    Load,
    Store,
};

/** Which level serviced a reference. */
enum class ServicedBy
{
    L1,
    L2,
    Memory,
};

/** Configuration of the three caches. */
struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 16 * 1024, 32, 2, WritePolicy::WriteThrough,
                    false};
    CacheConfig l1d{"l1d", 16 * 1024, 32, 1, WritePolicy::WriteThrough,
                    false};
    CacheConfig l2{"e-cache", 512 * 1024, 64, 1, WritePolicy::WriteBack,
                   true};
};

/** Result of one reference through the hierarchy. */
struct HierarchyOutcome
{
    /** Deepest level that had to be consulted. */
    ServicedBy servicedBy = ServicedBy::L1;
    /** True when the E-cache was referenced at all. */
    bool l2Referenced = false;
    /** True when the E-cache missed. */
    bool l2Missed = false;
};

/**
 * One processor's caches. Fill/evict events at the E-cache level are
 * reported to the installed MemoryObserver so the tracer can maintain
 * per-thread footprint ground truth, and kept in the attached
 * LineDirectory so the machine can find a line's holders without
 * probing every peer.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Perform one reference.
     * @param pa physical byte address (single-line: the caller splits
     *           multi-line ranges)
     * @param type fetch / load / store
     */
    HierarchyOutcome access(PAddr pa, AccessType type);

    /**
     * Batched-pipeline fast path: when the line holding pa is resident
     * in the appropriate L1, account `count` consecutive load/ifetch
     * hits to it and return true; otherwise change nothing (the caller
     * falls back to access()). A load/ifetch L1 hit is serviced
     * entirely by the L1 — no E-cache reference, no fill, no observer
     * event — so coalescing k of them is state-identical to k scalar
     * accesses. Must not be called for stores (write-through L1s send
     * every store to the E-cache).
     */
    bool
    l1Hits(PAddr pa, AccessType type, uint32_t count)
    {
        Cache &l1 = (type == AccessType::IFetch) ? _l1i : _l1d;
        return l1.accessHits(pa, count);
    }

    /** True when the E-cache holds the line containing pa. */
    bool l2Contains(PAddr pa) const { return _l2.contains(pa); }

    /** True when the E-cache holds the line containing pa dirty. */
    bool l2Dirty(PAddr pa) const { return _l2.isDirty(pa); }

    /**
     * Coherence invalidation of one E-cache line (and, via inclusion,
     * any L1 copies).
     * @retval true when the line was present
     */
    bool invalidateLine(PAddr pa);

    /** Flush all three caches (whole-cache invalidation). */
    void flush();

    /** E-cache geometry and counters. */
    const Cache &l2() const { return _l2; }

    /** L1 data cache. */
    const Cache &l1d() const { return _l1d; }

    /** L1 instruction cache. */
    const Cache &l1i() const { return _l1i; }

    /** Reset all counters. */
    void resetStats();

    /**
     * Install the fill/evict observer (null detaches).
     * @param observer event sink, notified with this hierarchy's id
     * @param self_id processor id reported with every event
     */
    void
    setObserver(MemoryObserver *observer, CpuId self_id)
    {
        _observer = observer;
        _cpuId = self_id;
    }

    /**
     * Keep `dir` equal to this E-cache's contents from now on: every
     * fill, victim eviction, invalidation and flush updates this
     * processor's holder bit. Attach before the first access (null
     * detaches).
     * @param dir directory shared by the machine's hierarchies
     * @param self_id processor id whose bit this hierarchy owns
     */
    void
    attachDirectory(LineDirectory *dir, CpuId self_id)
    {
        _dir = dir;
        _cpuId = self_id;
    }

  private:
    /** Enforce inclusion: drop L1 copies covered by an evicted L2 line.
     *  Inline: it runs on every E-cache replacement, and the sweep is
     *  a handful of packed-word probes that almost always miss. */
    void
    invalidateL1Range(PAddr l2_line_addr)
    {
        for (PAddr a = l2_line_addr; a < l2_line_addr + _l2.lineBytes();
             a += _l1d.lineBytes()) {
            _l1d.invalidate(a);
        }
        for (PAddr a = l2_line_addr; a < l2_line_addr + _l2.lineBytes();
             a += _l1i.lineBytes()) {
            _l1i.invalidate(a);
        }
    }

    /** Notify the evict hook, if set. */
    void notifyEvict(PAddr line_addr);

    Cache _l1i;
    Cache _l1d;
    Cache _l2;
    MemoryObserver *_observer = nullptr;
    LineDirectory *_dir = nullptr;
    CpuId _cpuId = 0;
};

// Defined in the header (like the Cache reference path) so the
// machine's per-reference loop compiles down to one fused probe/fill
// sequence with no out-of-line calls on hits; the eviction and
// coherence paths it branches to remain in hierarchy.cc.

inline HierarchyOutcome
Hierarchy::access(PAddr pa, AccessType type)
{
    HierarchyOutcome outcome;

    Cache &l1 = (type == AccessType::IFetch) ? _l1i : _l1d;
    bool is_write = (type == AccessType::Store);

    Cache::AccessResult l1_result = l1.access(pa, is_write);

    // Write-through L1s never produce dirty victims, but handle the
    // general case so a write-back L1 configuration also works: a dirty
    // L1 victim is written through to the (inclusive) E-cache.
    if (l1_result.victim.valid && l1_result.victim.dirty) {
        atl_assert(_l2.contains(l1_result.victim.lineAddr),
                   "inclusion violated: dirty L1 victim absent from L2");
        _l2.access(l1_result.victim.lineAddr, true);
        outcome.l2Referenced = true;
    }

    bool need_l2 = false;
    if (is_write) {
        // Write-through: stores always reference the E-cache.
        // (With a write-back L1, only L1 misses do.)
        need_l2 = (l1.config().writePolicy == WritePolicy::WriteThrough) ||
                  !l1_result.hit;
    } else {
        need_l2 = !l1_result.hit;
    }

    if (!need_l2) {
        outcome.servicedBy = ServicedBy::L1;
        return outcome;
    }

    outcome.l2Referenced = true;
    Cache::AccessResult l2_result = _l2.access(pa, is_write);
    if (l2_result.filled) {
        if (l2_result.victim.valid) {
            invalidateL1Range(l2_result.victim.lineAddr);
            if (_dir)
                _dir->remove(l2_result.victim.lineAddr, _cpuId);
            if (_observer)
                _observer->onL2Replace(_cpuId, _l2.lineAlign(pa),
                                       l2_result.victim.lineAddr);
        } else if (_observer) {
            _observer->onL2Fill(_cpuId, _l2.lineAlign(pa));
        }
        if (_dir)
            _dir->add(pa, _cpuId);
    }
    outcome.l2Missed = !l2_result.hit;
    outcome.servicedBy = l2_result.hit ? ServicedBy::L2 : ServicedBy::Memory;

    // Refill the L1 on load/ifetch misses (write-through L1s do not
    // allocate on stores).
    if (!l1_result.hit && (!is_write || l1.config().allocateOnWrite)) {
        EvictInfo victim = l1.fill(pa, false);
        if (victim.valid && victim.dirty) {
            atl_assert(_l2.contains(victim.lineAddr),
                       "inclusion violated: dirty L1 victim absent from L2");
            _l2.access(victim.lineAddr, true);
        }
    }

    return outcome;
}

} // namespace atl

#endif // ATL_MEM_HIERARCHY_HH
