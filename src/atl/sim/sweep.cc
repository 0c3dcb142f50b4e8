#include "atl/sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "atl/obs/export.hh"
#include "atl/util/logging.hh"

namespace atl
{

namespace
{

/** what() line for a SweepFailure: count plus the first few details. */
std::string
summariseFailures(const std::vector<SweepJobFailure> &failures)
{
    std::string msg =
        std::to_string(failures.size()) + " sweep job(s) failed:";
    size_t shown = 0;
    for (const SweepJobFailure &f : failures) {
        if (shown == 4) {
            msg += " ...";
            break;
        }
        msg += " [" + std::to_string(f.index) + " '" + f.name +
               "': " + f.message + "]";
        ++shown;
    }
    return msg;
}

/**
 * Invoke fn(i) for every i in [0, n) on up to `workers` threads (the
 * caller is one of them; 1 runs inline). Every index runs even when
 * some throw: stopping early would leave other workers' in-flight jobs
 * half-reported, and jobs are independent anyway.
 * @return every failure, ordered by index
 */
std::vector<SweepJobFailure>
runAll(size_t n, unsigned workers, const std::function<void(size_t)> &fn)
{
    std::mutex error_mutex;
    std::vector<SweepJobFailure> errors;
    auto guarded = [&](size_t i) {
        std::string message;
        try {
            fn(i);
            return;
        } catch (const std::exception &e) {
            message = e.what();
        } catch (...) {
            message = "unknown exception";
        }
        std::lock_guard<std::mutex> lock(error_mutex);
        errors.push_back({i, {}, std::move(message)});
    };

    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            guarded(i);
        }
    };
    std::vector<std::thread> pool;
    for (size_t w = 1; w < std::min<size_t>(workers, n); ++w)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();

    std::sort(errors.begin(), errors.end(),
              [](const SweepJobFailure &a, const SweepJobFailure &b) {
                  return a.index < b.index;
              });
    return errors;
}

} // namespace

SweepFailure::SweepFailure(std::vector<SweepJobFailure> failures)
    : std::runtime_error(summariseFailures(failures)),
      _failures(std::move(failures))
{
}

SweepRunner::SweepRunner(unsigned jobs)
    : _jobs(jobs ? jobs : defaultJobs())
{
}

unsigned
SweepRunner::defaultJobs()
{
    if (const char *env = std::getenv("ATL_SWEEP_JOBS")) {
        char *end = nullptr;
        unsigned long n = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && n >= 1)
            return static_cast<unsigned>(n);
        atl_warn("ignoring malformed ATL_SWEEP_JOBS='", env, "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

uint64_t
SweepRunner::deriveSeed(uint64_t base, uint64_t index)
{
    // splitmix64 finaliser over base advanced by the golden-gamma; the
    // standard way to fan one seed out into independent streams.
    uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

void
SweepRunner::forEach(size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<SweepJobFailure> failures = runAll(n, _jobs, fn);
    if (!failures.empty())
        throw SweepFailure(std::move(failures));
}

SweepOutcome
SweepRunner::runCollect(const std::vector<SweepJob> &sweep)
{
    for (const SweepJob &job : sweep)
        atl_assert(job.body, "sweep job '", job.name, "' has no body");

    SweepOutcome outcome;
    outcome.results.resize(sweep.size());
    outcome.ok.assign(sweep.size(), 0);
    outcome.failures = runAll(sweep.size(), _jobs, [&](size_t i) {
        outcome.results[i] = sweep[i].body();
        outcome.ok[i] = 1;
    });
    for (SweepJobFailure &f : outcome.failures)
        f.name = sweep[f.index].name;

    // Traced jobs: print their atl-trace-summary blocks in job order
    // (after the pool is quiet, so the output never interleaves).
    for (size_t i = 0; i < sweep.size(); ++i) {
        if (sweep[i].trace && outcome.ok[i]) {
            printTraceSummary(summarizeTrace(*sweep[i].trace), std::cout,
                              sweep[i].name);
        }
    }
    return outcome;
}

std::vector<RunMetrics>
SweepRunner::run(const std::vector<SweepJob> &sweep)
{
    SweepOutcome outcome = runCollect(sweep);
    if (!outcome.complete())
        throw SweepFailure(std::move(outcome.failures));
    return std::move(outcome.results);
}

BenchReport::BenchReport(std::string bench_name)
    : _name(std::move(bench_name)), _doc(Json::object())
{
    _doc["bench"] = Json(_name);
    _doc["schema"] = Json(9);
    _doc["runs"] = Json::array();
    // noteFailure clears the flag, so a report that lost cells says so
    // instead of passing silently.
    _doc["complete"] = Json(true);
    _doc["failed_runs"] = Json::array();
}

void
BenchReport::set(const std::string &key, Json value)
{
    _doc[key] = std::move(value);
}

void
BenchReport::addRun(const RunMetrics &metrics)
{
    _doc["runs"].push(toJson(metrics));
}

void
BenchReport::noteFailure(const SweepJobFailure &failure)
{
    _doc["complete"] = Json(false);
    Json entry = Json::object();
    entry["index"] = Json(static_cast<uint64_t>(failure.index));
    entry["name"] = Json(failure.name);
    entry["message"] = Json(failure.message);
    _doc["failed_runs"].push(std::move(entry));
}

void
BenchReport::noteOutcome(const SweepOutcome &outcome)
{
    for (size_t i = 0; i < outcome.results.size(); ++i) {
        if (outcome.ok[i])
            addRun(outcome.results[i]);
    }
    for (const SweepJobFailure &failure : outcome.failures)
        noteFailure(failure);
}

Json
BenchReport::toJson(const RunMetrics &metrics)
{
    Json json = Json::object();
    json["workload"] = Json(metrics.workload);
    json["policy"] = Json(policyName(metrics.policy));
    json["num_cpus"] = Json(static_cast<uint64_t>(metrics.numCpus));
    json["makespan"] = Json(metrics.makespan);
    json["e_misses"] = Json(metrics.eMisses);
    json["e_refs"] = Json(metrics.eRefs);
    json["instructions"] = Json(metrics.instructions);
    json["context_switches"] = Json(metrics.contextSwitches);
    json["sched_overhead_cycles"] = Json(metrics.schedOverheadCycles);
    json["verified"] = Json(metrics.verified);
    json["mpki"] = Json(metrics.mpki());
    // Host-side diagnostics: simulator throughput and block occupancy.
    // The rates are derived views of the raw counts.
    json["refs_issued"] = Json(metrics.refsIssued);
    json["ref_blocks"] = Json(metrics.refBlocks);
    json["host_seconds"] = Json(metrics.hostSeconds);
    json["refs_per_sec"] = Json(metrics.refsPerSec());
    json["batch_occupancy"] = Json(metrics.batchOccupancy());
    // Fault/degradation counters: all zero on a clean run.
    json["fault_events"] = Json(metrics.degradation.faultEvents);
    json["implausible_samples"] =
        Json(metrics.degradation.implausibleSamples);
    json["torn_samples"] = Json(metrics.degradation.tornSamples);
    json["clamped_misses"] = Json(metrics.degradation.clampedMisses);
    json["fallback_activations"] =
        Json(metrics.degradation.fallbackActivations);
    json["fallback_recoveries"] =
        Json(metrics.degradation.fallbackRecoveries);
    json["fallback_intervals"] =
        Json(metrics.degradation.fallbackIntervals);
    json["dropped_hints"] = Json(metrics.degradation.droppedHints);
    return json;
}

std::string
BenchReport::resultsDir()
{
    if (const char *env = std::getenv("ATL_RESULTS_DIR")) {
        if (*env)
            return env;
    }
    return "results";
}

std::string
BenchReport::write() const
{
    // A report that cannot be persisted must fail the bench loudly:
    // downstream tooling treats a missing/stale report as "the bench
    // never ran", which is exactly the silent pass to avoid. atl_fatal
    // exits non-zero (or throws LogError in test mode) with the path
    // and OS error so the operator can see *where* and *why*.
    std::string dir = resultsDir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        atl_fatal("cannot create results dir '", dir,
                  "': ", ec.message());
    }

    // Crash-safe write: the document goes to a uniquely-named temp
    // file, is fsync'd, and only then rename()d over the target. A
    // sweep killed mid-write leaves the old report (or no report) in
    // place — never a truncated JSON that downstream tooling would
    // choke on — and rename atomicity means concurrent writers can
    // interleave freely with readers always seeing a complete file.
    std::string path = dir + "/" + _name + ".json";
    static std::atomic<unsigned> write_counter{0};
    std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                      std::to_string(write_counter.fetch_add(1));

    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
        atl_fatal("cannot open '", tmp, "' for writing: ",
                  std::strerror(errno ? errno : EIO));
    }
    std::string text = _doc.dump();
    size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            atl_fatal("error writing '", tmp, "': ",
                      std::strerror(err ? err : EIO));
        }
        off += static_cast<size_t>(n);
    }
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        atl_fatal("fsync of '", tmp, "' failed: ",
                  std::strerror(err ? err : EIO));
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        atl_fatal("cannot rename '", tmp, "' to '", path, "': ",
                  std::strerror(err ? err : EIO));
    }
    // The fsync above made the *bytes* durable; only an fsync of the
    // directory makes the rename itself durable. Without it a power
    // cut can resurrect the old report (or none) even though write()
    // already returned the new path.
    int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
    }
    return path;
}

} // namespace atl
