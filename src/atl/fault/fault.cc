#include "atl/fault/fault.hh"

namespace atl
{

bool
FaultPlan::empty() const
{
    return !picWrapBias && sampleLossProb == 0.0 && readNoiseProb == 0.0 &&
           tornSnapshotProb == 0.0 && shareDropProb == 0.0 &&
           shareWrongQProb == 0.0 && shareDanglingProb == 0.0 &&
           shareChurnProb == 0.0;
}

FaultPlan
FaultPlan::counterChaos()
{
    FaultPlan plan;
    plan.picWrapBias = true;
    plan.sampleLossProb = 0.10;
    plan.readNoiseProb = 0.20;
    // Large factors push the perturbed miss delta past the interval's
    // instruction count, which is what trips the scheduler's
    // plausibility check and drives the fallback state machine.
    plan.readNoiseFactorMax = 1024.0;
    plan.tornSnapshotProb = 0.10;
    return plan;
}

FaultPlan
FaultPlan::annotationChaos()
{
    FaultPlan plan;
    plan.shareDropProb = 0.25;
    plan.shareWrongQProb = 0.25;
    plan.shareDanglingProb = 0.25;
    plan.shareChurnProb = 0.25;
    return plan;
}

FaultPlan
FaultPlan::fullChaos()
{
    FaultPlan plan = counterChaos();
    plan.shareDropProb = 0.20;
    plan.shareWrongQProb = 0.20;
    plan.shareDanglingProb = 0.20;
    plan.shareChurnProb = 0.20;
    return plan;
}

uint64_t
FaultStats::total() const
{
    return picBiases + samplesLost + readsNoised + tornSnapshots +
           sharesDropped + sharesMisweighted + sharesRedirected +
           sharesChurned;
}

FaultInjector::FaultInjector(const FaultPlan &plan, uint64_t seed)
    : _plan(plan), _active(!plan.empty()), _rng(seed)
{
}

uint32_t
FaultInjector::picBias(CpuId cpu, unsigned pic)
{
    (void) cpu;
    (void) pic;
    if (!_active || !_plan.picWrapBias)
        return 0;
    _stats.picBiases++;
    // Close enough to 2^32 that any non-trivial interval wraps, with a
    // little jitter so the two PICs of a cpu wrap at different points.
    return 0xFFFF0000u + static_cast<uint32_t>(_rng.below(0x8000));
}

bool
FaultInjector::perturbSnapshot(uint32_t refs_snap, uint32_t hits_snap,
                               uint32_t &refs_now, uint32_t &hits_now)
{
    if (!_active)
        return false;
    if (_plan.sampleLossProb > 0.0 && _rng.chance(_plan.sampleLossProb)) {
        _stats.samplesLost++;
        if (_rng.chance(0.5)) {
            // Stale read: the end-of-interval sample never arrives, so
            // the interval appears empty.
            refs_now = refs_snap;
            hits_now = hits_snap;
        } else {
            // Garbage read: the sample is replaced by unrelated bits.
            refs_now = static_cast<uint32_t>(_rng.next());
            hits_now = static_cast<uint32_t>(_rng.next());
        }
        return true;
    }
    if (_plan.readNoiseProb > 0.0 && _rng.chance(_plan.readNoiseProb)) {
        _stats.readsNoised++;
        uint32_t refs_delta = refs_now - refs_snap;
        double factor =
            1.0 + _rng.uniform() * (_plan.readNoiseFactorMax - 1.0);
        refs_now = refs_snap +
                   static_cast<uint32_t>(static_cast<double>(refs_delta) *
                                         factor);
        return true;
    }
    if (_plan.tornSnapshotProb > 0.0 && _rng.chance(_plan.tornSnapshotProb)) {
        _stats.tornSnapshots++;
        // Hits sampled later than refs: the hits delta overtakes the
        // refs delta, which a consistent snapshot can never produce.
        uint32_t refs_delta = refs_now - refs_snap;
        hits_now = hits_snap + refs_delta + 1 +
                   static_cast<uint32_t>(_rng.below(64));
        return true;
    }
    return false;
}

ShareFault
FaultInjector::perturbShare(ThreadId src, ThreadId &dst, double &q,
                            size_t thread_count)
{
    (void) src;
    ShareFault fault;
    if (!_active)
        return fault;
    if (_plan.shareDropProb > 0.0 && _rng.chance(_plan.shareDropProb)) {
        _stats.sharesDropped++;
        fault.drop = true;
        return fault;
    }
    if (_plan.shareWrongQProb > 0.0 && _rng.chance(_plan.shareWrongQProb)) {
        _stats.sharesMisweighted++;
        q = -0.5 + _rng.uniform() * 2.0;
    }
    if (_plan.shareDanglingProb > 0.0 &&
        _rng.chance(_plan.shareDanglingProb)) {
        _stats.sharesRedirected++;
        // Ids in [0, thread_count + 4): in-table ids model stale
        // annotations naming the wrong (but live) thread, the tail
        // models dangling ids past the table.
        dst = static_cast<ThreadId>(_rng.below(thread_count + 4));
    }
    if (_plan.shareChurnProb > 0.0 && _rng.chance(_plan.shareChurnProb)) {
        _stats.sharesChurned++;
        fault.churn = true;
        fault.churnQ = _rng.uniform();
    }
    return fault;
}

} // namespace atl
