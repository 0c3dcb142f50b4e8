/**
 * @file
 * Typed telemetry events. One Event is a fixed-size POD record stamped
 * with simulated time; the meaning of the payload slots depends on the
 * kind (documented per enumerator below). Keeping the record flat and
 * trivially copyable makes the ring buffer a plain vector, equality a
 * memberwise compare (the determinism tests diff whole streams), and
 * the enabled-path cost one store burst per scheduling point.
 *
 * The obs core deliberately depends only on the base typedefs — no
 * runtime headers — so any layer (machine, scheduler, experiment
 * driver, benches) can record events without dependency cycles.
 */

#ifndef ATL_OBS_EVENT_HH
#define ATL_OBS_EVENT_HH

#include <cstdint>

#include "atl/mem/address.hh"

namespace atl
{

/** Where a dispatched thread came from (Event::flag of a Switch). */
enum class DispatchSource : uint8_t
{
    None = 0,       ///< no dispatch recorded yet
    Heap,           ///< this processor's priority heap
    Global,         ///< the shared global FIFO
    Steal,          ///< stolen from a busy peer's heap
    FairnessBypass, ///< global FIFO served early by the fairness hatch
};

/** Fault surface an injected perturbation hit (Event::flag of Fault). */
enum class FaultSurface : uint8_t
{
    Snapshot = 0, ///< end-of-interval PIC reading corrupted
    Share,        ///< at_share() call perturbed
};

/** Event type; selects the payload-slot interpretation. */
enum class EventKind : uint8_t
{
    /**
     * A thread was dispatched onto a processor (context-switch start).
     * tid = chosen thread, time = dispatch completion (switch cost and
     * scheduler pollution charged), flag = DispatchSource,
     * n = switch-cost cycles (context switch + scheduler work),
     * m = live heap entries on this processor after the pick,
     * t0 = global-queue occupancy after the pick,
     * value = E[F] of the chosen thread on this processor,
     * aux = heap priority the pick was made at (0 for FCFS/global).
     */
    Switch = 0,

    /**
     * End-of-interval PIC reading, after any fault perturbation and
     * before the scheduler consumes it. tid = blocking thread,
     * n = refs delta, m = hits delta, t0 = derived miss count
     * (wrap-safe missesBetween), flag bit 0 = a fault injector touched
     * this reading.
     */
    PicSample,

    /**
     * A scheduling interval ended (the blocking thread left the
     * processor). tid = blocking thread, t0 = interval start time,
     * n = interval miss count handed to the model, m = interval
     * instructions, flag = SwitchReason the thread left with,
     * value = E[F] of the blocking thread after the model update,
     * aux = processor model confidence after the sample.
     */
    IntervalEnd,

    /**
     * The scheduler judged a counter sample implausible (torn or
     * clamped). tid = blocking thread, flag bit 0 = torn sample,
     * flag bit 1 = miss count clamped, value = confidence after decay.
     */
    CounterAnomaly,

    /** Processor confidence fell below threshold; locality scheduling
     *  suspended. value = confidence at entry. */
    FallbackEnter,

    /** Confidence recovered; locality scheduling resumed.
     *  value = confidence at recovery. */
    FallbackLeave,

    /**
     * A fault injector perturbed an input surface. flag = FaultSurface,
     * n = injector's cumulative event total after the perturbation.
     */
    Fault,

    /**
     * One model-residual sample: predicted E[F] vs the tracer's
     * ground-truth footprint (the paper's Fig. 5 comparison made
     * continuous). tid = tracked thread, n = driver misses since
     * tracking began, m = driver instructions since tracking began,
     * value = observed footprint (lines), aux = predicted footprint.
     */
    Residual,

    /**
     * A warning (or inform) was logged while telemetry was attached.
     * t0 = index into the log's string table, n = total warnings
     * recorded so far.
     */
    Warning,
};

/** Printable name of an event kind. */
const char *eventKindName(EventKind kind);

/** One telemetry record. Payload-slot meaning is per-kind (see
 *  EventKind); unused slots are zero so streams compare cleanly. */
struct Event
{
    EventKind kind = EventKind::Switch;
    /** Kind-specific discriminator (dispatch source, fault surface,
     *  anomaly bits, switch reason). */
    uint8_t flag = 0;
    /** Processor the event happened on (InvalidCpuId16 when none). */
    uint16_t cpu = 0;
    /** Thread the event concerns (InvalidThreadId when none). */
    ThreadId tid = InvalidThreadId;
    /** Simulated time of the event, in cycles. */
    Cycles time = 0;
    /** Kind-specific: interval start / miss count / string index. */
    uint64_t t0 = 0;
    /** Kind-specific count (misses, refs delta, switch cost...). */
    uint64_t n = 0;
    /** Kind-specific count (instructions, hits delta, heap size...). */
    uint64_t m = 0;
    /** Kind-specific measure (E[F], confidence, observed footprint). */
    double value = 0.0;
    /** Kind-specific measure (priority, predicted footprint). */
    double aux = 0.0;

    bool operator==(const Event &) const = default;
};

/** Sentinel for "no processor" in the 16-bit cpu slot. */
inline constexpr uint16_t InvalidCpuId16 = 0xFFFF;

} // namespace atl

#endif // ATL_OBS_EVENT_HH
