/**
 * @file
 * Seeded, deterministic fault injection for the two hint surfaces the
 * locality model depends on (paper Sections 2.3 and 5: annotations are
 * hints, counters wrap silently, and an inaccurate estimate must cost
 * only performance, never correctness):
 *
 *   counters    - forced 32-bit PIC wrap (pre-biasing), sample loss at
 *                 scheduling points, multiplicative read noise, torn
 *                 refs/hits snapshots;
 *   annotations - dropped at_share() calls, wrong (even out-of-range)
 *                 coefficients, dangling/stale destination ids,
 *                 re-annotation churn.
 *
 * A FaultPlan describes *what* can go wrong and how often; the
 * FaultInjector rolls the dice from a seed, so a (plan, seed) pair
 * reproduces the exact same fault sequence on every run. An empty plan
 * is inert by construction: every perturbation call is a no-op and the
 * machine's behaviour is bit-identical to running with no injector at
 * all — the degradation guarantee the fault tests assert.
 */

#ifndef ATL_FAULT_FAULT_HH
#define ATL_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>

#include "atl/mem/address.hh"
#include "atl/util/rng.hh"

namespace atl
{

/**
 * Declarative description of the faults to inject. All probabilities
 * are per-opportunity (per scheduling-point snapshot, per at_share()
 * call); 0 disables a fault class entirely.
 */
struct FaultPlan
{
    /** @name Counter surface @{ */
    /** Pre-bias every PIC close to 2^32 so counters wrap mid-run. */
    bool picWrapBias = false;
    /** Per scheduling point: lose the end-of-interval PIC reading
     *  (half the time the interval reads as empty, half the time the
     *  read returns garbage). */
    double sampleLossProb = 0.0;
    /** Per scheduling point: scale the refs delta by a random factor
     *  in (1, readNoiseFactorMax]. */
    double readNoiseProb = 0.0;
    /** Largest multiplicative read-noise factor. */
    double readNoiseFactorMax = 8.0;
    /** Per scheduling point: tear the snapshot so the hits delta
     *  exceeds the refs delta (hits read later than refs). */
    double tornSnapshotProb = 0.0;
    /** @} */

    /** @name Annotation surface @{ */
    /** Per at_share(): silently drop the call. */
    double shareDropProb = 0.0;
    /** Per at_share(): replace q with a random value in [-0.5, 1.5]
     *  (out-of-range values exercise the clamp-with-warning path). */
    double shareWrongQProb = 0.0;
    /** Per at_share(): redirect the destination to a random thread id,
     *  possibly dangling (beyond the thread table). */
    double shareDanglingProb = 0.0;
    /** Per at_share(): immediately re-annotate the arc with another
     *  random coefficient (annotation churn). */
    double shareChurnProb = 0.0;
    /** @} */

    /** True when no fault class is enabled (the inert plan). */
    bool empty() const;

    /** @name Canned plans for the fault matrix @{ */
    /** Aggressive counter corruption (wrap + loss + noise + torn). */
    static FaultPlan counterChaos();
    /** Aggressive annotation corruption (drop + wrong q + dangling +
     *  churn). */
    static FaultPlan annotationChaos();
    /** Both surfaces at once. */
    static FaultPlan fullChaos();
    /** @} */
};

/** Tally of injected fault events, by class. */
struct FaultStats
{
    uint64_t picBiases = 0;
    uint64_t samplesLost = 0;
    uint64_t readsNoised = 0;
    uint64_t tornSnapshots = 0;
    uint64_t sharesDropped = 0;
    uint64_t sharesMisweighted = 0;
    uint64_t sharesRedirected = 0;
    uint64_t sharesChurned = 0;

    /** Total events across every class. */
    uint64_t total() const;
};

/** Outcome of perturbing one at_share() call. */
struct ShareFault
{
    /** Drop the call entirely. */
    bool drop = false;
    /** Re-annotate the same arc with churnQ right after the call. */
    bool churn = false;
    /** Coefficient of the churn re-annotation. */
    double churnQ = 0.0;
};

/**
 * Rolls a FaultPlan's dice. One injector serves exactly one machine
 * (single-threaded use); the call sequence inside a simulation is
 * deterministic, so a (plan, seed) pair reproduces the same faults.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan, uint64_t seed = 1);

    /** The plan in force. */
    const FaultPlan &plan() const { return _plan; }

    /** False for the empty plan: every call below is then a no-op. */
    bool active() const { return _active; }

    /** Events injected so far. */
    const FaultStats &stats() const { return _stats; }

    /**
     * Initial PIC value for (cpu, pic): just below 2^32 when the plan
     * pre-biases counters (so they wrap mid-run), 0 otherwise.
     */
    uint32_t picBias(CpuId cpu, unsigned pic);

    /**
     * Perturb an end-of-interval PIC reading in place. The snapshot
     * taken at dispatch is the reference point; only the reading is
     * corrupted, never the counters themselves.
     * @return true when the reading was perturbed (the machine tags the
     *         interval's telemetry sample as faulted)
     */
    bool perturbSnapshot(uint32_t refs_snap, uint32_t hits_snap,
                         uint32_t &refs_now, uint32_t &hits_now);

    /**
     * Perturb one at_share() call in place (dst and q may change).
     * @param thread_count current thread-table size, used to fabricate
     *        dangling ids just beyond it and stale ids inside it
     */
    ShareFault perturbShare(ThreadId src, ThreadId &dst, double &q,
                            size_t thread_count);

  private:
    FaultPlan _plan;
    bool _active;
    Rng _rng;
    FaultStats _stats;
};

} // namespace atl

#endif // ATL_FAULT_FAULT_HH
