/**
 * @file
 * Parallel sweep engine for the experiment matrix. Every bench in this
 * repo is a set of *independent* runWorkload() calls — each one builds
 * its own Machine, so nothing is shared between runs — which makes the
 * sweeps embarrassingly parallel. SweepRunner executes such jobs on a
 * small thread pool while keeping results bit-identical to serial
 * execution: determinism comes from each job's self-contained machine
 * seed (see deriveSeed), never from execution order, and results are
 * collected by job index.
 *
 * BenchReport is the companion output side: it accumulates a bench's
 * configuration and per-run metrics into a JSON document and writes it
 * to the results directory, so sweeps feed tooling instead of only
 * terminals.
 */

#ifndef ATL_SIM_SWEEP_HH
#define ATL_SIM_SWEEP_HH

#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "atl/sim/experiment.hh"
#include "atl/util/json.hh"

namespace atl
{

class EventLog;

/** One independent simulation of a sweep. */
struct SweepJob
{
    /** Label used in error reports. */
    std::string name;
    /** The run. Must be self-contained: builds its own Machine and
     *  touches no state shared with other jobs. */
    std::function<RunMetrics()> body;
    /** Event log this job's body records into (owned by the caller,
     *  wired into the job's MachineConfig by the body itself). Jobs
     *  must not share a log. When set, runCollect() prints the
     *  atl-trace-summary block for the job after the sweep. */
    EventLog *trace = nullptr;
};

/** One failed sweep job. */
struct SweepJobFailure
{
    /** Index in the submitted job vector. */
    size_t index = 0;
    /** SweepJob::name (empty for forEach() indices). */
    std::string name;
    /** what() of the exception the job threw. */
    std::string message;
};

/**
 * Thrown by run()/forEach() when jobs failed: carries *every* job
 * failure, not just the first. Derives from std::runtime_error so
 * pre-existing catch sites keep working; what() summarises all
 * failures.
 */
class SweepFailure : public std::runtime_error
{
  public:
    explicit SweepFailure(std::vector<SweepJobFailure> failures);

    /** All failures, ordered by job index. */
    const std::vector<SweepJobFailure> &failures() const
    {
        return _failures;
    }

  private:
    std::vector<SweepJobFailure> _failures;
};

/**
 * Everything a sweep produced, failures included. results keeps one
 * slot per job (failed slots hold default-constructed RunMetrics) so
 * positional table code survives partial sweeps; ok flags tell the
 * slots apart.
 */
struct SweepOutcome
{
    /** Per-job metrics, in job order; meaningful where ok[i] != 0. */
    std::vector<RunMetrics> results;
    /** Per-job success flags, in job order. */
    std::vector<uint8_t> ok;
    /** Failures, ordered by job index; empty on a clean sweep. */
    std::vector<SweepJobFailure> failures;

    /** True when every job succeeded. */
    bool complete() const { return failures.empty(); }
};

/**
 * Fixed-size worker pool executing sweep jobs. Worker count resolution:
 * an explicit constructor argument wins, else the ATL_SWEEP_JOBS
 * environment variable, else the hardware concurrency. A count of 1
 * runs everything inline on the caller (no threads), which the
 * determinism tests use as the serial reference.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 resolves via defaultJobs() */
    explicit SweepRunner(unsigned jobs = 0);

    /** Resolved worker count. */
    unsigned jobs() const { return _jobs; }

    /**
     * Run every job and return their metrics in job order (independent
     * of which worker finished first). Jobs that fail do not stop the
     * pool — every job still runs — and afterwards a SweepFailure
     * carrying *all* job failures is thrown if there were any.
     */
    std::vector<RunMetrics> run(const std::vector<SweepJob> &sweep);

    /**
     * Like run(), but failures are returned instead of thrown: the
     * outcome holds every surviving job's metrics in job order plus a
     * record of every failure, so a bench can report partial results
     * rather than lose the whole sweep to one bad cell.
     */
    SweepOutcome runCollect(const std::vector<SweepJob> &sweep);

    /**
     * Generic parallel for: invoke fn(i) for every i in [0, n), spread
     * over the pool. fn must only write state owned by index i. Every
     * index runs even when some throw; the exceptions are then
     * collected into one SweepFailure (ordered by index).
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Mix a base seed with a job index (splitmix64 finaliser), so every
     * job of a sweep gets an independent, reproducible machine seed
     * that does not depend on scheduling.
     */
    static uint64_t deriveSeed(uint64_t base, uint64_t index);

    /** Worker count from ATL_SWEEP_JOBS or the hardware, at least 1. */
    static unsigned defaultJobs();

  private:
    unsigned _jobs;
};

/** Wall-clock stopwatch for bench timing lines. */
class WallTimer
{
  public:
    WallTimer() : _start(std::chrono::steady_clock::now()) {}

    /** Seconds since construction or the last restart(). */
    double
    seconds() const
    {
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - _start;
        return dt.count();
    }

    void restart() { _start = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point _start;
};

/**
 * Machine-readable bench output: a JSON document with the bench name,
 * free-form configuration fields, and an array of per-run metrics.
 * write() places it at <results dir>/<bench name>.json, where the
 * results directory is $ATL_RESULTS_DIR or "results".
 */
class BenchReport
{
  public:
    /** @param bench_name document name, also the output file stem */
    explicit BenchReport(std::string bench_name);

    /** Set a top-level configuration field. */
    void set(const std::string &key, Json value);

    /** Append one run's metrics to the runs array. */
    void addRun(const RunMetrics &metrics);

    /** Record one failed job: clears the complete flag and appends an
     *  {index, name, message} entry to the failed_runs array. */
    void noteFailure(const SweepJobFailure &failure);

    /** Append a whole sweep outcome: successful runs via addRun (in
     *  job order), failures via noteFailure. */
    void noteOutcome(const SweepOutcome &outcome);

    /** Serialise RunMetrics to a JSON object. */
    static Json toJson(const RunMetrics &metrics);

    /** The accumulated document. */
    const Json &document() const { return _doc; }

    /** Results directory ($ATL_RESULTS_DIR or "results"). */
    static std::string resultsDir();

    /**
     * Write the document to the results directory, creating it as
     * needed. Failure to create the directory or write the file is
     * fatal (path and OS error reported): a bench that cannot persist
     * its report must fail loudly, not pass silently.
     * @return the path written
     */
    std::string write() const;

  private:
    std::string _name;
    Json _doc;
};

} // namespace atl

#endif // ATL_SIM_SWEEP_HH
