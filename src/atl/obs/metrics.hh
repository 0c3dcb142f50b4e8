/**
 * @file
 * Fleet-wide metrics layer: a MetricsRegistry of named counters,
 * gauges and mergeable log2-bucket histograms, plus a host-side scoped
 * phase profiler. The registry applies the paper's own thesis to the
 * simulator itself — cheap, always-on counters as the observability
 * substrate — and is built around two invariants:
 *
 *   - **Lock-free per-shard accumulation.** Updates go to per-shard
 *     slots (one cache-line-aligned block per shard, the epoch
 *     engine's per-CPU padding idiom), each owned by a single writer
 *     at a time. Simulated-machine metrics use one shard per simulated
 *     CPU, so the epoch engine's host threads never contend no matter
 *     how the CPUs are sharded across them.
 *
 *   - **Canonical, order-independent merge.** Counters and histogram
 *     buckets merge by (saturating) sum; gauges merge by lexicographic
 *     max on (updates, value) — a semilattice, so any merge order and
 *     any shard count produce the same result. json() emits names in
 *     sorted order. Together these make the merged registry
 *     bit-identical across hostShards {1,2,4} and across sweep worker
 *     counts.
 *
 * The phase profiler (ATL_PROF=1, or PhaseProfiler::setEnabled) wraps
 * the host-side hot loop's coarse phases — translate / access / trace
 * / schedule / commit — in RAII rdtsc timers. Disabled cost is one
 * relaxed atomic load and a predictable branch per scope; the record
 * path is outlined [[gnu::cold]]. Slots are thread-local and
 * registered in a process-global list that outlives the threads, so
 * the atexit report sees every worker. Phases are *inclusive*: a
 * nested timer's cycles also count toward its enclosing phase.
 */

#ifndef ATL_OBS_METRICS_HH
#define ATL_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "atl/util/json.hh"

namespace atl
{

/**
 * Mergeable power-of-two-bucket histogram with saturating counts — the
 * fixed-size POD counterpart of obs/export.hh's Log2Histogram, with
 * the identical bucket convention: bucket i holds values in
 * [2^(i-1), 2^i), bucket 0 holds zeros, so bucket i's inclusive upper
 * bound is 2^i - 1.
 */
struct MetricHistogram
{
    static constexpr size_t kBuckets = 65;

    uint64_t counts[kBuckets] = {};
    /** Total samples (saturating). */
    uint64_t total = 0;
    /** Sum of sample values (saturating). */
    uint64_t sum = 0;

    /** Add one sample. */
    void observe(uint64_t value);

    /** Fold another histogram in (bucket-wise saturating sum).
     *  Associative and commutative bit-for-bit. */
    void merge(const MetricHistogram &other);

    /** Inclusive upper bound (2^i - 1) of the bucket holding the
     *  q-quantile sample (q in [0, 1]); 0 when empty. A bucket
     *  bound, not an interpolated value. */
    uint64_t quantileUpperBound(double q) const;

    /** {"total": t, "sum": s, "buckets": [{le, count}, ...]} over the
     *  non-empty prefix, matching Log2Histogram::json's bucket form. */
    Json json() const;

    /** Rebuild from json() output.
     *  @retval false on malformed input (histogram left cleared) */
    bool fromJson(const Json &doc);

    bool operator==(const MetricHistogram &other) const;
};

/**
 * Registry of named metrics with per-shard lock-free accumulation.
 *
 * Life cycle: *register* every metric up front (counter() / gauge() /
 * histogram() get-or-create by name and are NOT thread-safe), size the
 * shard array with ensureShards(), then *update* concurrently — each
 * shard index must have at most one writer at a time (the simulated
 * CPU id, for machine metrics). Reads that merge across shards
 * (json(), counterTotal(), merge()) are snapshot operations for after
 * the writers quiesce.
 */
class MetricsRegistry
{
  public:
    /** Dense per-kind metric handle (index into the shard slots). */
    using Id = uint32_t;

    /** @param shards initial shard count (>= 1) */
    explicit MetricsRegistry(unsigned shards = 1);

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @name Registration (setup-time, single-threaded) @{ */
    /** Get-or-create a counter. */
    Id counter(const std::string &name);
    /** Get-or-create a gauge. */
    Id gauge(const std::string &name);
    /** Get-or-create a histogram. */
    Id histogram(const std::string &name);
    /** Grow the shard array to at least `shards` slots. */
    void ensureShards(unsigned shards);
    /** @} */

    unsigned shards() const
    {
        return static_cast<unsigned>(_shards.size());
    }

    /** @name Updates (lock-free; one writer per shard index) @{ */
    /** Add to a counter. */
    void add(Id id, uint64_t delta, unsigned shard = 0);
    /** Record a histogram sample. */
    void observe(Id id, uint64_t value, unsigned shard = 0);
    /** Set a gauge to its latest value. Merge keeps the slot with the
     *  most updates (ties: larger value), so "latest" is well defined
     *  per shard and deterministic across shard counts. */
    void set(Id id, double value, unsigned shard = 0);
    /** @} */

    /** @name Merged reads (after writers quiesce) @{ */
    /** Sum of a counter over all shards (0 when unregistered). */
    uint64_t counterTotal(const std::string &name) const;
    /** Merged histogram over all shards (empty when unregistered). */
    MetricHistogram histogramTotal(const std::string &name) const;
    /** Merged gauge: value and update count of the winning slot.
     *  @retval false when unregistered or never set */
    bool gaugeFinal(const std::string &name, double &value,
                    uint64_t &updates) const;
    /** @} */

    /**
     * Fold another registry in by *name* (get-or-create), into shard
     * 0. Commutative and associative over merged totals, so per-job
     * registries can be folded in any order.
     */
    void merge(const MetricsRegistry &other);

    /**
     * Canonical snapshot: {"counters": {...}, "gauges": {...},
     * "histograms": {...}} with names in sorted order and every
     * registered metric present (zeros included), so two registries
     * with equal registrations and equal merged totals serialise to
     * identical bytes.
     */
    Json json() const;

    /** Zero every slot in every shard; registrations survive. */
    void reset();

  private:
    /** Gauge slot: last value plus how many times it was set. */
    struct GaugeSlot
    {
        uint64_t updates = 0;
        double value = 0.0;
    };

    /** One shard's slots, cache-line aligned against false sharing of
     *  the hot vector headers (the epoch engine's padding idiom; the
     *  vector *data* blocks are separate allocations). */
    struct alignas(64) Shard
    {
        std::vector<uint64_t> counters;
        std::vector<GaugeSlot> gauges;
        std::vector<MetricHistogram> histograms;
    };

    static Id intern(std::vector<std::string> &names,
                     const std::string &name);
    void sizeShards();

    std::vector<std::string> _counterNames;
    std::vector<std::string> _gaugeNames;
    std::vector<std::string> _histogramNames;
    std::vector<std::unique_ptr<Shard>> _shards;
};

/** Coarse host-side phases of the simulation hot loop. */
enum class HostPhase : uint8_t
{
    Translate = 0, ///< virtual-memory translation slow path
    Access,        ///< cache-hierarchy reference issue
    Trace,         ///< tracer / telemetry bookkeeping
    Schedule,      ///< scheduler decisions (dispatch, block, sample)
    Commit,        ///< epoch-engine commit & resume
};

inline constexpr size_t kHostPhaseCount = 5;

/** Display name of a phase ("translate", "access", ...). */
const char *hostPhaseName(HostPhase phase);

/**
 * Process-global phase profiler. Enabled by ATL_PROF=1 at startup or
 * setEnabled(true) programmatically; when enabled at exit it prints a
 * per-phase cycle summary to stderr. Timer slots are thread-local,
 * registered once per thread in a mutex-guarded list whose entries
 * outlive the threads.
 */
class PhaseProfiler
{
  public:
    /** Per-thread accumulation slot. Single writer (the owning
     *  thread); relaxed atomics keep the reporter's cross-thread reads
     *  race-free without a lock prefix on the writer. */
    struct alignas(64) Slot
    {
        std::atomic<uint64_t> cycles[kHostPhaseCount];
        std::atomic<uint64_t> calls[kHostPhaseCount];

        Slot()
        {
            for (size_t i = 0; i < kHostPhaseCount; ++i) {
                cycles[i].store(0, std::memory_order_relaxed);
                calls[i].store(0, std::memory_order_relaxed);
            }
        }
    };

    /** The singleton. */
    static PhaseProfiler &instance();

    /** Fast enabled test for ScopedPhase (relaxed load). */
    static bool
    enabled()
    {
        return s_enabled.load(std::memory_order_relaxed);
    }

    /** Turn the profiler on or off (benches toggle this around the
     *  measured region; ATL_PROF=1 sets it at startup). */
    static void setEnabled(bool on);

    /** Record one finished scope (outlined; ScopedPhase calls this
     *  only when the profiler was enabled at scope entry). */
    [[gnu::cold]] static void record(HostPhase phase, uint64_t cycles);

    /** Timestamp in rdtsc cycles (monotonic-clock nanoseconds on
     *  non-x86 hosts; the report is self-relative either way). */
    static uint64_t now();

    /** Zero every slot (registrations survive). */
    void reset();

    /** Merged per-phase totals:
     *  {"<phase>": {"calls": n, "cycles": c}, ...}. */
    Json json() const;

    /** Human-readable per-phase summary. */
    void report(std::ostream &os) const;

  private:
    PhaseProfiler();

    Slot *threadSlot();

    static std::atomic<bool> s_enabled;

    mutable std::mutex _mutex;
    /** Registered slots; entries are never removed, so a slot outlives
     *  its thread and the atexit report sees completed workers. */
    std::vector<std::unique_ptr<Slot>> _slots;
};

/**
 * RAII phase timer. Captures the enabled flag at entry so a mid-scope
 * toggle cannot pair a start with a missing end. Disabled cost: one
 * relaxed load and an untaken branch.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(HostPhase phase)
        : _phase(phase), _armed(PhaseProfiler::enabled())
    {
        if (_armed)
            _start = PhaseProfiler::now();
    }

    ~ScopedPhase()
    {
        if (_armed) {
            uint64_t end = PhaseProfiler::now();
            // A scope can park its fiber and be destroyed on another
            // host thread (epoch commit resumes parked fibers on the
            // leader); skip the sample rather than record a bogus
            // cross-TSC delta if the clocks disagree.
            if (end > _start)
                PhaseProfiler::record(_phase, end - _start);
        }
    }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    HostPhase _phase;
    bool _armed;
    uint64_t _start = 0;
};

} // namespace atl

#endif // ATL_OBS_METRICS_HH
