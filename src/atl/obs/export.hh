/**
 * @file
 * Exporters for an EventLog: a Perfetto/Chrome trace_event JSON
 * document (per-CPU tracks with interval slices, dispatch instants,
 * and counter tracks for misses / footprints / confidence), an
 * aggregate TraceSummary (histograms and the residual accuracy figure,
 * folded into BenchReport schema 4), and the human-readable
 * atl-trace-summary dump the sweep engine prints for traced jobs.
 */

#ifndef ATL_OBS_EXPORT_HH
#define ATL_OBS_EXPORT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "atl/obs/event_log.hh"
#include "atl/util/json.hh"
#include "atl/util/stats.hh"

namespace atl
{

/**
 * Power-of-two-bucket histogram for cycle counts, whose useful range
 * spans orders of magnitude (an interval can last tens of cycles or
 * tens of millions). Bucket i holds values in [2^(i-1), 2^i); bucket 0
 * holds zero.
 */
class Log2Histogram
{
  public:
    static constexpr size_t kBuckets = 65;

    /** Add one sample. */
    void add(uint64_t value);

    /** Count in bucket i (values in [2^(i-1), 2^i); bucket 0 = zeros). */
    uint64_t bucket(size_t i) const { return _counts[i]; }

    /** Total samples. */
    uint64_t total() const { return _total; }

    /** Highest non-empty bucket index + 1 (0 when empty). */
    size_t usedBuckets() const;

    /** [{le: 2^i - 1, count}] for the non-empty prefix. */
    Json json() const;

  private:
    std::array<uint64_t, kBuckets> _counts{};
    uint64_t _total = 0;
};

/** One fallback episode on one processor. */
struct FallbackSpan
{
    CpuId cpu = 0;
    Cycles enter = 0;
    /** Leave time; meaningful only when !open. */
    Cycles leave = 0;
    /** True when the run ended with the processor still degraded. */
    bool open = true;
    double confidenceAtEnter = 0.0;
};

/** Aggregate view of one event log. */
struct TraceSummary
{
    /** @name Window coverage @{ */
    uint64_t recorded = 0;
    uint64_t retained = 0;
    uint64_t dropped = 0;
    /** @} */

    /** @name Event counts by kind @{ */
    uint64_t switches = 0;
    uint64_t picSamples = 0;
    uint64_t intervals = 0;
    uint64_t anomalies = 0;
    uint64_t fallbackEnters = 0;
    uint64_t fallbackLeaves = 0;
    uint64_t faults = 0;
    uint64_t residuals = 0;
    uint64_t warnings = 0;
    /** @} */

    /** @name Model-residual accuracy (Fig. 5 made continuous) @{ */
    /** Mean |predicted - observed| / observed over samples whose
     *  observed footprint clears the floor. */
    double residualMeanAbsRelError = 0.0;
    /** Floor used (lines). */
    double residualFloor = 0.0;
    /** Samples the mean was computed over. */
    uint64_t residualSamplesUsed = 0;
    /** Samples rejected by the floor. */
    uint64_t residualSamplesBelowFloor = 0;
    /** |predicted - observed| / observed distribution, floor-filtered:
     *  20 bins over [0, 1) plus overflow. */
    Histogram residualError{0.0, 1.0, 20};
    /** @} */

    /** @name Timing distributions @{ */
    /** Scheduling-interval lengths in cycles. */
    Log2Histogram intervalCycles;
    /** Per-dispatch switch costs in cycles. */
    Log2Histogram switchCostCycles;
    /** @} */

    /** Fallback episodes, in event order. */
    std::vector<FallbackSpan> fallbackTimeline;
};

/**
 * Build the aggregate summary of a log.
 * @param residual_floor observed-footprint floor (lines) below which a
 *        residual sample is excluded from the accuracy figure — pass
 *        the same floor as the bench's meanAbsRelError call and the
 *        two agree exactly
 */
TraceSummary summarizeTrace(const EventLog &log,
                            double residual_floor = 32.0);

/** Print the human-readable atl-trace-summary block. */
void printTraceSummary(const TraceSummary &summary, std::ostream &os,
                       const std::string &title);

/** Summary as the BenchReport schema-4 "telemetry" object. */
Json traceSummaryJson(const TraceSummary &summary);

/**
 * Export the log as a Chrome/Perfetto trace_event JSON document:
 * {"traceEvents": [...], ...}. Scheduling intervals become complete
 * ("X") slices on per-CPU tracks, dispatches and degradation
 * transitions become instants, and misses / E[F] / confidence /
 * footprints become counter tracks. Events are emitted sorted by
 * timestamp, so ts is monotonic per track (the check.sh --trace
 * validator holds the exporter to that). One simulated cycle maps to
 * one microsecond of trace time.
 */
Json perfettoTrace(const EventLog &log,
                   const std::string &process_name = "atl-machine");

} // namespace atl

#endif // ATL_OBS_EXPORT_HH
