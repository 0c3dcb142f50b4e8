/**
 * @file
 * Tests for the parallel sweep engine and the JSON bench reports: the
 * pool must produce results bit-identical to serial execution (the
 * whole point of self-contained machine seeds), keep result order,
 * propagate exceptions, and serialise metrics to JSON.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "atl/obs/event_log.hh"
#include "atl/sim/sweep.hh"
#include "atl/util/json.hh"
#include "atl/util/logging.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tasks.hh"
#include "atl/workloads/tsp.hh"

namespace atl
{
namespace
{

/** Scaled-down Table 4 application (fast enough for 12 test runs). */
std::unique_ptr<Workload>
makeSmallApp(const std::string &name)
{
    if (name == "tasks")
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{64, 100, 4});
    if (name == "merge") {
        MergesortWorkload::Params p;
        p.elements = 4000;
        p.cutoff = 100;
        return std::make_unique<MergesortWorkload>(p);
    }
    if (name == "photo") {
        PhotoWorkload::Params p;
        p.width = 256;
        p.height = 64;
        return std::make_unique<PhotoWorkload>(p);
    }
    TspWorkload::Params p;
    p.cities = 24;
    p.depth = 5;
    return std::make_unique<TspWorkload>(p);
}

std::vector<SweepJob>
table4Jobs()
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"tasks", "merge", "photo", "tsp"}) {
        for (PolicyKind policy :
             {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT}) {
            jobs.push_back({std::string(app) + "/" + policyName(policy),
                            [app, policy] {
                                auto w = makeSmallApp(app);
                                MachineConfig cfg;
                                cfg.numCpus = 2;
                                cfg.policy = policy;
                                return runWorkload(*w, cfg, false);
                            }});
        }
    }
    return jobs;
}

TEST(SweepRunnerTest, ParallelMetricsBitIdenticalToSerial)
{
    // The determinism contract of the whole engine: every job builds a
    // self-contained machine, so worker count and completion order must
    // not change a single counter.
    std::vector<SweepJob> jobs = table4Jobs();
    std::vector<RunMetrics> serial = SweepRunner(1).run(jobs);
    std::vector<RunMetrics> parallel = SweepRunner(4).run(jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i])
            << "job '" << jobs[i].name << "' diverged";
        EXPECT_TRUE(serial[i].verified) << jobs[i].name;
    }
}

TEST(SweepRunnerTest, ResultsKeepJobOrder)
{
    std::vector<SweepJob> jobs;
    for (unsigned i = 0; i < 12; ++i) {
        jobs.push_back({"job" + std::to_string(i), [i] {
                            RunMetrics m;
                            m.workload = "job" + std::to_string(i);
                            m.makespan = i;
                            return m;
                        }});
    }
    std::vector<RunMetrics> results = SweepRunner(4).run(jobs);
    ASSERT_EQ(results.size(), 12u);
    for (unsigned i = 0; i < 12; ++i) {
        EXPECT_EQ(results[i].workload, "job" + std::to_string(i));
        EXPECT_EQ(results[i].makespan, i);
    }
}

TEST(SweepRunnerTest, ForEachVisitsEveryIndexOnce)
{
    constexpr size_t n = 200;
    std::vector<std::atomic<int>> visits(n);
    SweepRunner(8).forEach(n, [&](size_t i) { ++visits[i]; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(SweepRunnerTest, ExceptionsPropagateAfterDraining)
{
    SweepRunner runner(4);
    std::atomic<size_t> completed{0};
    EXPECT_THROW(runner.forEach(16,
                                [&](size_t i) {
                                    if (i == 3)
                                        throw std::runtime_error("boom");
                                    ++completed;
                                }),
                 std::runtime_error);
    // The pool drains the remaining jobs instead of abandoning them.
    EXPECT_EQ(completed.load(), 15u);
}

TEST(SweepRunnerTest, ForEachCollectsEveryFailure)
{
    // Multiple failing indices must all be reported, in index order,
    // not just whichever worker threw first.
    SweepRunner runner(4);
    try {
        runner.forEach(20, [](size_t i) {
            if (i % 5 == 0)
                throw std::runtime_error("idx " + std::to_string(i));
        });
        FAIL() << "expected SweepFailure";
    } catch (const SweepFailure &e) {
        ASSERT_EQ(e.failures().size(), 4u);
        for (size_t k = 0; k < 4; ++k) {
            EXPECT_EQ(e.failures()[k].index, k * 5);
            EXPECT_NE(e.failures()[k].message.find(
                          "idx " + std::to_string(k * 5)),
                      std::string::npos);
        }
    }
}

TEST(SweepRunnerTest, ChurnOfFailingJobsDoesNotLoseSurvivors)
{
    // Satellite: N jobs where every 3rd throws. The pool must neither
    // deadlock nor drop the surviving runs, and results stay in job
    // order with failed slots flagged.
    constexpr size_t n = 32;
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < n; ++i) {
        jobs.push_back({"churn" + std::to_string(i), [i]() -> RunMetrics {
                            if (i % 3 == 0)
                                throw std::runtime_error(
                                    "churn " + std::to_string(i));
                            RunMetrics m;
                            m.workload = "churn" + std::to_string(i);
                            m.makespan = i;
                            return m;
                        }});
    }
    SweepOutcome outcome = SweepRunner(4).runCollect(jobs);
    ASSERT_EQ(outcome.results.size(), n);
    ASSERT_EQ(outcome.ok.size(), n);
    EXPECT_FALSE(outcome.complete());
    size_t expected_failures = 0;
    for (size_t i = 0; i < n; ++i) {
        if (i % 3 == 0) {
            EXPECT_FALSE(outcome.ok[i]);
            ++expected_failures;
        } else {
            EXPECT_TRUE(outcome.ok[i]);
            EXPECT_EQ(outcome.results[i].workload,
                      "churn" + std::to_string(i));
            EXPECT_EQ(outcome.results[i].makespan, i);
        }
    }
    ASSERT_EQ(outcome.failures.size(), expected_failures);
    // Failures arrive sorted by job index with the job's name attached.
    for (size_t k = 0; k < outcome.failures.size(); ++k) {
        EXPECT_EQ(outcome.failures[k].index, k * 3);
        EXPECT_EQ(outcome.failures[k].name,
                  "churn" + std::to_string(k * 3));
    }

    // run() on the same jobs throws one SweepFailure carrying them all.
    try {
        SweepRunner(4).run(jobs);
        FAIL() << "expected SweepFailure";
    } catch (const SweepFailure &e) {
        EXPECT_EQ(e.failures().size(), expected_failures);
        EXPECT_NE(std::string(e.what()).find("churn 0"),
                  std::string::npos);
    }
}

TEST(SweepRunnerTest, DeriveSeedIsDeterministicAndSpread)
{
    EXPECT_EQ(SweepRunner::deriveSeed(1, 0), SweepRunner::deriveSeed(1, 0));
    EXPECT_NE(SweepRunner::deriveSeed(1, 0), SweepRunner::deriveSeed(1, 1));
    EXPECT_NE(SweepRunner::deriveSeed(1, 0), SweepRunner::deriveSeed(2, 0));
    // Adjacent indices must not produce near-identical seeds.
    uint64_t a = SweepRunner::deriveSeed(1, 0);
    uint64_t b = SweepRunner::deriveSeed(1, 1);
    EXPECT_GT(__builtin_popcountll(a ^ b), 8);
}

TEST(SweepRunnerTest, EnvOverrideControlsWorkerCount)
{
    setenv("ATL_SWEEP_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner().jobs(), 3u);
    setenv("ATL_SWEEP_JOBS", "junk", 1);
    EXPECT_GE(SweepRunner().jobs(), 1u);
    unsetenv("ATL_SWEEP_JOBS");
    EXPECT_GE(SweepRunner().jobs(), 1u);
    EXPECT_EQ(SweepRunner(7).jobs(), 7u);
}

TEST(BenchReportTest, MetricsRoundTripThroughJsonText)
{
    RunMetrics m;
    m.workload = "merge";
    m.policy = PolicyKind::CRT;
    m.numCpus = 8;
    m.makespan = 123456789;
    m.eMisses = 424242;
    m.eRefs = 999999;
    m.instructions = 77777777;
    m.contextSwitches = 1234;
    m.schedOverheadCycles = 5678;
    m.verified = true;
    m.refsIssued = 48000;
    m.refBlocks = 1500;
    m.hostSeconds = 0.25;
    m.degradation.implausibleSamples = 7;
    m.degradation.tornSamples = 2;
    m.degradation.clampedMisses = 5;
    m.degradation.fallbackActivations = 1;
    m.degradation.fallbackRecoveries = 1;
    m.degradation.fallbackIntervals = 40;
    m.degradation.faultEvents = 12;
    m.degradation.droppedHints = 3;

    // Serialise -> dump to text -> parse, then compare field by field.
    std::string text = BenchReport::toJson(m).dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, parsed, &error)) << error;
    EXPECT_EQ(parsed.at("workload").asString(), "merge");
    EXPECT_EQ(parsed.at("policy").asString(), policyName(m.policy));
    EXPECT_EQ(parsed.at("num_cpus").asUint(), 8u);
    EXPECT_EQ(parsed.at("makespan").asUint(), m.makespan);
    EXPECT_EQ(parsed.at("e_misses").asUint(), m.eMisses);
    EXPECT_EQ(parsed.at("e_refs").asUint(), m.eRefs);
    EXPECT_EQ(parsed.at("instructions").asUint(), m.instructions);
    EXPECT_EQ(parsed.at("context_switches").asUint(), m.contextSwitches);
    EXPECT_EQ(parsed.at("sched_overhead_cycles").asUint(),
              m.schedOverheadCycles);
    EXPECT_TRUE(parsed.at("verified").asBool());
    EXPECT_DOUBLE_EQ(parsed.at("mpki").asNumber(), m.mpki());

    // Host diagnostics: raw counts, and the rates derived from them.
    EXPECT_EQ(parsed.at("refs_issued").asUint(), m.refsIssued);
    EXPECT_EQ(parsed.at("ref_blocks").asUint(), m.refBlocks);
    EXPECT_DOUBLE_EQ(parsed.at("host_seconds").asNumber(), m.hostSeconds);
    EXPECT_DOUBLE_EQ(parsed.at("refs_per_sec").asNumber(), 48000.0 / 0.25);
    EXPECT_DOUBLE_EQ(parsed.at("batch_occupancy").asNumber(),
                     48000.0 / 1500.0);

    // Degradation counters.
    EXPECT_EQ(parsed.at("fault_events").asUint(), 12u);
    EXPECT_EQ(parsed.at("implausible_samples").asUint(), 7u);
    EXPECT_EQ(parsed.at("torn_samples").asUint(), 2u);
    EXPECT_EQ(parsed.at("clamped_misses").asUint(), 5u);
    EXPECT_EQ(parsed.at("fallback_activations").asUint(), 1u);
    EXPECT_EQ(parsed.at("fallback_recoveries").asUint(), 1u);
    EXPECT_EQ(parsed.at("fallback_intervals").asUint(), 40u);
    EXPECT_EQ(parsed.at("dropped_hints").asUint(), 3u);
    EXPECT_EQ(parsed.members().size(), 24u) << "unexpected extra keys";
}

TEST(BenchReportTest, DocumentCarriesBenchNameAndRuns)
{
    BenchReport report("bench_unit_test");
    report.set("platform", Json("test"));
    RunMetrics m;
    m.workload = "w";
    report.addRun(m);
    report.addRun(m);

    const Json &doc = report.document();
    EXPECT_EQ(doc.at("bench").asString(), "bench_unit_test");
    EXPECT_EQ(doc.at("schema").asUint(), 9u);
    EXPECT_TRUE(doc.at("complete").asBool());
    EXPECT_EQ(doc.at("failed_runs").items().size(), 0u);
    EXPECT_EQ(doc.at("platform").asString(), "test");
    ASSERT_EQ(doc.at("runs").items().size(), 2u);
    EXPECT_EQ(doc.at("runs").items()[0].at("workload").asString(), "w");
}

TEST(BenchReportTest, NoteOutcomeRecordsPartialSweeps)
{
    SweepOutcome outcome;
    RunMetrics good;
    good.workload = "survivor";
    outcome.results = {good, RunMetrics{}};
    outcome.ok = {1, 0};
    SweepJobFailure f;
    f.index = 1;
    f.name = "victim";
    f.message = "injected fault";
    outcome.failures = {f};

    BenchReport report("bench_unit_test");
    report.noteOutcome(outcome);
    const Json &doc = report.document();
    EXPECT_FALSE(doc.at("complete").asBool());
    ASSERT_EQ(doc.at("runs").items().size(), 1u);
    EXPECT_EQ(doc.at("runs").items()[0].at("workload").asString(),
              "survivor");
    ASSERT_EQ(doc.at("failed_runs").items().size(), 1u);
    const Json &fr = doc.at("failed_runs").items()[0];
    EXPECT_EQ(fr.at("index").asUint(), 1u);
    EXPECT_EQ(fr.at("name").asString(), "victim");
    EXPECT_EQ(fr.at("message").asString(), "injected fault");
    EXPECT_EQ(fr.members().size(), 3u);
}

TEST(BenchReportTest, WriteFailureIsFatalAndNamesThePath)
{
    // /dev/null/sub fails with ENOTDIR even when running as root, so
    // this exercises the satellite's "clear error with path" contract
    // without relying on permission bits.
    setenv("ATL_RESULTS_DIR", "/dev/null/sub", 1);
    setLogThrowMode(true);
    BenchReport report("bench_unit_test");
    try {
        report.write();
        FAIL() << "expected LogError from unwritable results dir";
    } catch (const LogError &e) {
        EXPECT_NE(std::string(e.what()).find("/dev/null/sub"),
                  std::string::npos)
            << e.what();
    }
    setLogThrowMode(false);
    unsetenv("ATL_RESULTS_DIR");
}

TEST(BenchReportTest, ConcurrentWritersNeverExposeATornReport)
{
    // Satellite: write() stages through a fsync'd temp file and
    // rename()s it into place, so a reader racing many writers must
    // always parse a complete document — never a truncated one.
    std::string dir = ::testing::TempDir() + "/atl_atomic_XXXXXX";
    std::vector<char> tmpl(dir.begin(), dir.end());
    tmpl.push_back('\0');
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir = tmpl.data();
    setenv("ATL_RESULTS_DIR", dir.c_str(), 1);

    constexpr int kWriters = 4;
    constexpr int kRounds = 25;
    std::atomic<bool> stop{false};
    std::atomic<int> parse_failures{0};
    std::atomic<int> reads{0};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([w] {
            for (int r = 0; r < kRounds; ++r) {
                BenchReport report("bench_atomic_test");
                report.set("writer", Json(static_cast<uint64_t>(w)));
                RunMetrics m;
                m.workload = "round" + std::to_string(r);
                // A fat payload makes a non-atomic write observable.
                for (int i = 0; i < 50; ++i)
                    report.addRun(m);
                report.write();
            }
        });
    }
    std::thread reader([&] {
        std::string path = dir + "/bench_atomic_test.json";
        while (!stop.load()) {
            std::ifstream in(path);
            if (!in.good())
                continue; // not written yet
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            Json parsed;
            if (!Json::parse(text, parsed))
                ++parse_failures;
            ++reads;
        }
    });
    for (std::thread &t : writers)
        t.join();
    stop = true;
    reader.join();
    unsetenv("ATL_RESULTS_DIR");

    EXPECT_EQ(parse_failures.load(), 0);
    EXPECT_GT(reads.load(), 0);

    // The directory holds exactly the report: no leaked .tmp files.
    size_t entries = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        (void) entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
}

TEST(BenchReportTest, WriteHonoursResultsDirOverride)
{
    std::string dir =
        ::testing::TempDir() + "/atl_sweep_results_XXXXXX";
    std::vector<char> tmpl(dir.begin(), dir.end());
    tmpl.push_back('\0');
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir = tmpl.data();

    setenv("ATL_RESULTS_DIR", dir.c_str(), 1);
    BenchReport report("bench_unit_test");
    RunMetrics m;
    m.workload = "w";
    m.policy = PolicyKind::LFF;
    report.addRun(m);
    std::string path = report.write();
    unsetenv("ATL_RESULTS_DIR");

    ASSERT_EQ(path, dir + "/bench_unit_test.json");
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Json parsed;
    ASSERT_TRUE(Json::parse(text, parsed));
    EXPECT_EQ(parsed.at("bench").asString(), "bench_unit_test");
    EXPECT_EQ(parsed.at("runs").items().at(0).at("policy").asString(),
              policyName(PolicyKind::LFF));
}

/** Fresh directory under the test temp dir (mkdtemp template). */
std::string
makeTempDir(const std::string &stem)
{
    std::string dir = ::testing::TempDir() + "/" + stem + "_XXXXXX";
    std::vector<char> tmpl(dir.begin(), dir.end());
    tmpl.push_back('\0');
    if (!mkdtemp(tmpl.data()))
        return {};
    return tmpl.data();
}

/** Whole file as a string (empty when unreadable). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Job returning a marker RunMetrics, or throwing when fail is set. */
SweepJob
markerJob(size_t i, bool fail)
{
    return {"cell" + std::to_string(i), [i, fail]() -> RunMetrics {
                if (fail)
                    throw std::runtime_error("cell " + std::to_string(i) +
                                             " failed");
                RunMetrics m;
                m.workload = "cell" + std::to_string(i);
                m.makespan = 100 + i;
                return m;
            }};
}

TEST(SweepRunnerTest, EmptySweepIsCompleteAndRunsNothing)
{
    SweepRunner runner(4);
    EXPECT_TRUE(runner.run({}).empty());
    SweepOutcome outcome = runner.runCollect({});
    EXPECT_TRUE(outcome.complete());
    EXPECT_TRUE(outcome.results.empty());
    EXPECT_TRUE(outcome.ok.empty());
    size_t calls = 0;
    runner.forEach(0, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0u);
}

TEST(SweepRunnerTest, SingleWorkerRunsEveryJobOnTheCaller)
{
    // A count of 1 is the serial reference: no pool threads at all.
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    bool all_on_caller = true;
    SweepRunner(1).forEach(10, [&](size_t i) {
        order.push_back(i);
        all_on_caller &= std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(all_on_caller);
    ASSERT_EQ(order.size(), 10u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i) << "serial order must be index order";
}

TEST(SweepRunnerTest, NeverStartsMoreThreadsThanJobs)
{
    // Workers beyond the job count would only idle: the pool is capped
    // at min(workers, jobs), caller included.
    std::mutex mutex;
    std::set<std::thread::id> threads;
    SweepRunner(16).forEach(2, [&](size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
    });
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), 2u);
}

TEST(SweepRunnerTest, MoreWorkersThanJobsStillRunsEachOnce)
{
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < 3; ++i)
        jobs.push_back(markerJob(i, false));
    std::vector<RunMetrics> results = SweepRunner(16).run(jobs);
    ASSERT_EQ(results.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(results[i].workload, "cell" + std::to_string(i));
        EXPECT_EQ(results[i].makespan, 100 + i);
    }
}

TEST(SweepRunnerTest, NonStandardExceptionIsReportedAsUnknown)
{
    try {
        SweepRunner(2).forEach(4, [](size_t i) {
            if (i == 2)
                throw 42;
        });
        FAIL() << "expected SweepFailure";
    } catch (const SweepFailure &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].index, 2u);
        EXPECT_EQ(e.failures()[0].message, "unknown exception");
    }
}

TEST(SweepRunnerTest, ForEachFailuresCarryNoJobName)
{
    // forEach() indices have no SweepJob, so the name stays empty.
    try {
        SweepRunner(2).forEach(3, [](size_t i) {
            if (i == 1)
                throw std::runtime_error("bad index");
        });
        FAIL() << "expected SweepFailure";
    } catch (const SweepFailure &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_TRUE(e.failures()[0].name.empty());
        EXPECT_EQ(e.failures()[0].message, "bad index");
    }
}

TEST(SweepRunnerTest, FailedSlotsHoldDefaultMetrics)
{
    std::vector<SweepJob> jobs = {markerJob(0, false), markerJob(1, true),
                                  markerJob(2, false)};
    SweepOutcome outcome = SweepRunner(3).runCollect(jobs);
    ASSERT_EQ(outcome.results.size(), 3u);
    EXPECT_EQ(outcome.ok, (std::vector<uint8_t>{1, 0, 1}));
    EXPECT_EQ(outcome.results[1], RunMetrics{});
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 1u);
    EXPECT_EQ(outcome.failures[0].name, "cell1");
    EXPECT_EQ(outcome.failures[0].message, "cell 1 failed");
}

TEST(SweepRunnerTest, CleanRunCollectMatchesRun)
{
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < 9; ++i)
        jobs.push_back(markerJob(i, false));
    SweepOutcome outcome = SweepRunner(3).runCollect(jobs);
    EXPECT_TRUE(outcome.complete());
    EXPECT_EQ(outcome.ok, std::vector<uint8_t>(9, 1));
    std::vector<RunMetrics> results = SweepRunner(3).run(jobs);
    ASSERT_EQ(results.size(), outcome.results.size());
    for (size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], outcome.results[i]) << jobs[i].name;
}

TEST(SweepRunnerTest, PartialOutcomeIsIndependentOfWorkerCount)
{
    // Failures, flags and surviving metrics must not depend on how many
    // workers drained the sweep.
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < 17; ++i)
        jobs.push_back(markerJob(i, i % 4 == 1));
    SweepOutcome serial = SweepRunner(1).runCollect(jobs);
    for (unsigned workers : {2u, 3u, 8u}) {
        SweepOutcome parallel = SweepRunner(workers).runCollect(jobs);
        EXPECT_EQ(parallel.ok, serial.ok) << workers;
        ASSERT_EQ(parallel.results.size(), serial.results.size());
        for (size_t i = 0; i < serial.results.size(); ++i)
            EXPECT_EQ(parallel.results[i], serial.results[i]) << i;
        ASSERT_EQ(parallel.failures.size(), serial.failures.size());
        for (size_t k = 0; k < serial.failures.size(); ++k) {
            EXPECT_EQ(parallel.failures[k].index, serial.failures[k].index);
            EXPECT_EQ(parallel.failures[k].name, serial.failures[k].name);
            EXPECT_EQ(parallel.failures[k].message,
                      serial.failures[k].message);
        }
    }
}

TEST(SweepRunnerTest, JobWithoutBodyIsRejectedBeforeAnyJobRuns)
{
    setLogThrowMode(true);
    std::atomic<int> ran{0};
    std::vector<SweepJob> jobs = {
        {"fine", [&] {
             ++ran;
             return RunMetrics{};
         }},
        {"hollow", {}}};
    try {
        SweepRunner(2).runCollect(jobs);
        ADD_FAILURE() << "expected LogError for a job with no body";
    } catch (const LogError &e) {
        EXPECT_NE(std::string(e.what()).find("hollow"), std::string::npos)
            << e.what();
    }
    setLogThrowMode(false);
    EXPECT_EQ(ran.load(), 0);
}

TEST(SweepRunnerTest, TraceSummariesPrintForSucceededJobsInJobOrder)
{
    EventLog first, failed, second;
    auto traced = [](EventLog *log) {
        return [log] {
            TasksWorkload w(TasksWorkload::Params{16, 20, 4});
            MachineConfig cfg;
            cfg.numCpus = 2;
            cfg.policy = PolicyKind::LFF;
            cfg.telemetry = log;
            return runWorkload(w, cfg, false);
        };
    };
    std::vector<SweepJob> jobs;
    jobs.push_back({"traced-first", traced(&first), &first});
    jobs.push_back({"traced-failed",
                    []() -> RunMetrics { throw std::runtime_error("x"); },
                    &failed});
    jobs.push_back({"untraced", traced(nullptr)});
    jobs.push_back({"traced-second", traced(&second), &second});

    ::testing::internal::CaptureStdout();
    SweepOutcome outcome = SweepRunner(4).runCollect(jobs);
    std::string out = ::testing::internal::GetCapturedStdout();

    EXPECT_EQ(outcome.failures.size(), 1u);
    size_t a = out.find("atl-trace-summary: traced-first");
    size_t b = out.find("atl-trace-summary: traced-second");
    ASSERT_NE(a, std::string::npos) << out;
    ASSERT_NE(b, std::string::npos) << out;
    EXPECT_LT(a, b);
    EXPECT_EQ(out.find("traced-failed"), std::string::npos);
    EXPECT_EQ(out.find("untraced"), std::string::npos);
}

TEST(SweepFailureTest, WhatListsTheFirstFourFailures)
{
    std::vector<SweepJobFailure> failures = {
        {0, "j0", "m0"}, {2, "j1", "m1"}, {4, "j2", "m2"},
        {6, "j3", "m3"}, {8, "j4", "m4"}, {10, "j5", "m5"}};
    SweepFailure e(failures);
    EXPECT_EQ(std::string(e.what()),
              "6 sweep job(s) failed: [0 'j0': m0] [2 'j1': m1] "
              "[4 'j2': m2] [6 'j3': m3] ...");
    EXPECT_EQ(e.failures().size(), 6u);
}

TEST(SweepFailureTest, ShortListHasNoEllipsis)
{
    SweepFailure e({{3, "only", "broke"}});
    EXPECT_EQ(std::string(e.what()),
              "1 sweep job(s) failed: [3 'only': broke]");
}

TEST(SweepFailureTest, CatchableAsRuntimeError)
{
    // Older catch sites catch std::runtime_error; the failure list must
    // survive being caught by reference to the base.
    try {
        SweepRunner(2).run({markerJob(0, true), markerJob(1, false)});
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        const auto *sweep = dynamic_cast<const SweepFailure *>(&e);
        ASSERT_NE(sweep, nullptr);
        ASSERT_EQ(sweep->failures().size(), 1u);
        EXPECT_EQ(sweep->failures()[0].name, "cell0");
    }
}

TEST(SweepRunnerTest, MalformedJobCountsFallBackToTheHardware)
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned expected = hw ? hw : 1;
    for (const char *bad : {"0", "", "4x", "-", "two"}) {
        setenv("ATL_SWEEP_JOBS", bad, 1);
        EXPECT_EQ(SweepRunner::defaultJobs(), expected)
            << "ATL_SWEEP_JOBS='" << bad << "'";
    }
    setenv("ATL_SWEEP_JOBS", "12", 1);
    EXPECT_EQ(SweepRunner::defaultJobs(), 12u);
    unsetenv("ATL_SWEEP_JOBS");
    EXPECT_EQ(SweepRunner::defaultJobs(), expected);
}

TEST(SweepRunnerTest, ExplicitJobCountIgnoresTheEnvironment)
{
    setenv("ATL_SWEEP_JOBS", "5", 1);
    EXPECT_EQ(SweepRunner(2).jobs(), 2u);
    EXPECT_EQ(SweepRunner(0).jobs(), 5u);
    unsetenv("ATL_SWEEP_JOBS");
}

TEST(SweepRunnerTest, DerivedSeedsDoNotCollide)
{
    std::set<uint64_t> seen;
    for (uint64_t base : {0ull, 1ull, 0xc4a05ull}) {
        for (uint64_t i = 0; i < 4096; ++i)
            seen.insert(SweepRunner::deriveSeed(base, i));
    }
    EXPECT_EQ(seen.size(), 3u * 4096u);
}

TEST(SweepRunnerTest, DerivedSeedBitsAreBalanced)
{
    // A good mixer sets about half of the 64 bits on average, and every
    // bit position is used.
    uint64_t ones = 0;
    uint64_t any = 0;
    constexpr uint64_t n = 2048;
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t seed = SweepRunner::deriveSeed(7, i);
        ones += static_cast<uint64_t>(__builtin_popcountll(seed));
        any |= seed;
    }
    double mean = static_cast<double>(ones) / n;
    EXPECT_GT(mean, 31.0);
    EXPECT_LT(mean, 33.0);
    EXPECT_EQ(any, ~0ull);
}

TEST(WallTimerTest, ElapsedTimeGrowsAndRestartResetsIt)
{
    WallTimer timer;
    double t0 = timer.seconds();
    EXPECT_GE(t0, 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    double t1 = timer.seconds();
    EXPECT_GE(t1, 0.02);
    EXPECT_GE(timer.seconds(), t1);
    timer.restart();
    EXPECT_LT(timer.seconds(), t1);
}

TEST(BenchReportTest, FreshReportHasOnlyTheSchemaNineSkeleton)
{
    BenchReport report("bench_unit_test");
    const Json &doc = report.document();
    std::vector<std::string> keys;
    for (const auto &member : doc.members())
        keys.push_back(member.first);
    EXPECT_EQ(keys, (std::vector<std::string>{"bench", "complete",
                                              "failed_runs", "runs",
                                              "schema"}));
    EXPECT_EQ(doc.at("schema").asUint(), 9u);
    EXPECT_TRUE(doc.at("complete").asBool());
    EXPECT_TRUE(doc.at("runs").isArray());
    EXPECT_TRUE(doc.at("failed_runs").isArray());
}

TEST(BenchReportTest, PartialSweepCarriesNoRetiredKeys)
{
    // Schema 9 dropped the supervisor, checkpoint and worker accounting;
    // none of it may come back through a partial sweep.
    std::vector<SweepJob> jobs = {markerJob(0, false), markerJob(1, true)};
    BenchReport report("bench_unit_test");
    report.noteOutcome(SweepRunner(2).runCollect(jobs));
    const Json &doc = report.document();
    for (const char *key :
         {"resumed_runs", "interrupted", "workers", "stolen_runs",
          "worker_failures"})
        EXPECT_FALSE(doc.has(key)) << key;
    for (const auto &member : doc.members())
        EXPECT_NE(member.first.rfind("checkpoint_", 0), 0u) << member.first;
    ASSERT_EQ(doc.at("failed_runs").items().size(), 1u);
    const Json &failure = doc.at("failed_runs").items()[0];
    for (const char *key : {"crashed", "exit_signal", "exit_code",
                            "attempts", "stalled", "timed_out"})
        EXPECT_FALSE(failure.has(key)) << key;
    EXPECT_EQ(failure.at("message").asString(), "cell 1 failed");
}

TEST(BenchReportTest, SetReplacesAnExistingField)
{
    BenchReport report("bench_unit_test");
    report.set("cpus", Json(2));
    report.set("cpus", Json(8));
    EXPECT_EQ(report.document().at("cpus").asUint(), 8u);
    // set() can also overwrite the skeleton, e.g. a bench recording a
    // sweep it knows to be partial.
    report.set("complete", Json(false));
    EXPECT_FALSE(report.document().at("complete").asBool());
}

TEST(BenchReportTest, CleanOutcomeKeepsTheReportComplete)
{
    std::vector<SweepJob> jobs;
    for (size_t i = 0; i < 4; ++i)
        jobs.push_back(markerJob(i, false));
    BenchReport report("bench_unit_test");
    report.noteOutcome(SweepRunner(2).runCollect(jobs));
    const Json &doc = report.document();
    EXPECT_TRUE(doc.at("complete").asBool());
    EXPECT_TRUE(doc.at("failed_runs").items().empty());
    ASSERT_EQ(doc.at("runs").items().size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(doc.at("runs").items()[i].at("workload").asString(),
                  "cell" + std::to_string(i));
    }
}

TEST(BenchReportTest, FailuresAppendInTheOrderNoted)
{
    BenchReport report("bench_unit_test");
    report.noteFailure({5, "late", "second"});
    report.noteFailure({2, "early", "first"});
    const Json &doc = report.document();
    EXPECT_FALSE(doc.at("complete").asBool());
    ASSERT_EQ(doc.at("failed_runs").items().size(), 2u);
    EXPECT_EQ(doc.at("failed_runs").items()[0].at("index").asUint(), 5u);
    EXPECT_EQ(doc.at("failed_runs").items()[1].at("name").asString(),
              "early");
    EXPECT_TRUE(doc.at("runs").items().empty());
}

TEST(BenchReportTest, DefaultMetricsSerialiseAsZeroes)
{
    // A clean, empty run: every counter zero, and the derived rates
    // guard their zero denominators instead of emitting NaN.
    Json json = BenchReport::toJson(RunMetrics{});
    for (const char *key :
         {"makespan", "e_misses", "e_refs", "instructions",
          "context_switches", "sched_overhead_cycles", "refs_issued",
          "ref_blocks", "fault_events", "implausible_samples",
          "torn_samples", "clamped_misses", "fallback_activations",
          "fallback_recoveries", "fallback_intervals", "dropped_hints"})
        EXPECT_EQ(json.at(key).asUint(), 0u) << key;
    EXPECT_EQ(json.at("refs_per_sec").asNumber(), 0.0);
    EXPECT_EQ(json.at("batch_occupancy").asNumber(), 0.0);
    EXPECT_FALSE(json.at("verified").asBool());
    std::string text = json.dump();
    EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

TEST(BenchReportTest, EveryPolicySerialisesByName)
{
    for (PolicyKind policy :
         {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT}) {
        RunMetrics m;
        m.policy = policy;
        EXPECT_EQ(BenchReport::toJson(m).at("policy").asString(),
                  policyName(policy));
    }
}

TEST(BenchReportTest, ResultsDirDefaultsWhenUnsetOrEmpty)
{
    unsetenv("ATL_RESULTS_DIR");
    EXPECT_EQ(BenchReport::resultsDir(), "results");
    setenv("ATL_RESULTS_DIR", "", 1);
    EXPECT_EQ(BenchReport::resultsDir(), "results");
    setenv("ATL_RESULTS_DIR", "elsewhere", 1);
    EXPECT_EQ(BenchReport::resultsDir(), "elsewhere");
    unsetenv("ATL_RESULTS_DIR");
}

TEST(BenchReportTest, WriteCreatesMissingDirectories)
{
    std::string root = makeTempDir("atl_nested");
    ASSERT_FALSE(root.empty());
    std::string dir = root + "/a/b/c";
    setenv("ATL_RESULTS_DIR", dir.c_str(), 1);
    std::string path = BenchReport("bench_unit_test").write();
    unsetenv("ATL_RESULTS_DIR");
    EXPECT_EQ(path, dir + "/bench_unit_test.json");
    EXPECT_TRUE(std::filesystem::is_regular_file(path));
}

TEST(BenchReportTest, WrittenFileIsTheDocumentDump)
{
    std::string dir = makeTempDir("atl_dump");
    ASSERT_FALSE(dir.empty());
    setenv("ATL_RESULTS_DIR", dir.c_str(), 1);
    BenchReport report("bench_unit_test");
    report.set("note", Json("bytes"));
    report.noteOutcome(
        SweepRunner(2).runCollect({markerJob(0, false), markerJob(1, true)}));
    std::string path = report.write();
    unsetenv("ATL_RESULTS_DIR");
    EXPECT_EQ(slurp(path), report.document().dump());
}

TEST(BenchReportTest, RewriteReplacesThePreviousReport)
{
    std::string dir = makeTempDir("atl_rewrite");
    ASSERT_FALSE(dir.empty());
    setenv("ATL_RESULTS_DIR", dir.c_str(), 1);
    BenchReport report("bench_unit_test");
    report.addRun(RunMetrics{});
    std::string path = report.write();
    report.addRun(RunMetrics{});
    EXPECT_EQ(report.write(), path);
    unsetenv("ATL_RESULTS_DIR");

    Json parsed;
    ASSERT_TRUE(Json::parse(slurp(path), parsed));
    EXPECT_EQ(parsed.at("runs").items().size(), 2u);
    size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        (void) entry;
        ++entries;
    }
    EXPECT_EQ(entries, 1u) << "temp files must not outlive write()";
}

} // namespace
} // namespace atl
