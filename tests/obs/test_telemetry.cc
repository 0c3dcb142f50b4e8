/**
 * @file
 * Telemetry subsystem tests: ring-buffer mechanics, warning interning,
 * stream determinism (rerun and serial-vs-parallel sweeps), the
 * disabled-path invariant (attaching a log never changes RunMetrics),
 * residual events, warning capture, and the exporters.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "atl/obs/event_log.hh"
#include "atl/obs/export.hh"
#include "atl/sim/sweep.hh"
#include "atl/sim/tracer.hh"
#include "atl/workloads/barnes.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/ocean.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/random_walk.hh"
#include "atl/workloads/raytrace.hh"
#include "atl/workloads/tasks.hh"
#include "atl/workloads/tsp.hh"
#include "atl/workloads/typechecker.hh"
#include "atl/workloads/water.hh"

namespace atl
{
namespace
{

Event
makeEvent(uint64_t serial)
{
    Event e;
    e.kind = EventKind::Switch;
    e.time = serial;
    e.n = serial * 3;
    return e;
}

TEST(EventLogTest, RecordsBelowCapacityInOrder)
{
    EventLog log(TelemetryConfig{.capacity = 8});
    for (uint64_t i = 0; i < 5; ++i)
        log.record(makeEvent(i));
    EXPECT_EQ(log.size(), 5u);
    EXPECT_EQ(log.recorded(), 5u);
    EXPECT_EQ(log.dropped(), 0u);
    std::vector<Event> events = log.events();
    ASSERT_EQ(events.size(), 5u);
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_EQ(events[i].time, i);
        EXPECT_EQ(log.at(i), events[i]);
    }
}

TEST(EventLogTest, OverflowDropsOldestAndCounts)
{
    EventLog log(TelemetryConfig{.capacity = 4});
    for (uint64_t i = 0; i < 10; ++i)
        log.record(makeEvent(i));
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.recorded(), 10u);
    EXPECT_EQ(log.dropped(), 6u);
    // The window covers the *end* of the run: events 6..9.
    std::vector<Event> events = log.events();
    ASSERT_EQ(events.size(), 4u);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(events[i].time, 6 + i);
}

TEST(EventLogTest, ClearForgetsEventsAndKeepsCapacity)
{
    EventLog log(TelemetryConfig{.capacity = 4});
    for (uint64_t i = 0; i < 6; ++i)
        log.record(makeEvent(i));
    log.recordWarning(1, "w");
    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.recorded(), 0u);
    EXPECT_EQ(log.warningCount(), 0u);
    for (uint64_t i = 0; i < 6; ++i)
        log.record(makeEvent(i));
    EXPECT_EQ(log.size(), 4u);
}

TEST(EventLogTest, WarningInterningDeduplicatesMessages)
{
    EventLog log(TelemetryConfig{.capacity = 16});
    log.recordWarning(10, "alpha");
    log.recordWarning(20, "beta");
    log.recordWarning(30, "alpha");
    EXPECT_EQ(log.warningCount(), 3u);
    // Slot 0 is the overflow sentinel; two distinct messages follow.
    EXPECT_EQ(log.stringCount(), 3u);
    std::vector<Event> events = log.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].kind, EventKind::Warning);
    EXPECT_EQ(log.string(events[0].t0), "alpha");
    EXPECT_EQ(log.string(events[1].t0), "beta");
    EXPECT_EQ(events[2].t0, events[0].t0);
    EXPECT_EQ(events[2].n, 3u);
    EXPECT_EQ(events[0].cpu, InvalidCpuId16);
}

TEST(EventLogTest, WarningTableCapFallsBackToSentinelSlot)
{
    EventLog log(TelemetryConfig{.capacity = 1024});
    for (int i = 0; i < 300; ++i)
        log.recordWarning(i, "warning #" + std::to_string(i));
    EXPECT_EQ(log.stringCount(), 256u);
    std::vector<Event> events = log.events();
    EXPECT_EQ(events.back().t0, 0u);
    EXPECT_EQ(log.string(0), "<message table full>");
}

TEST(EventLogTest, CategoryFlagsPreserveConfig)
{
    TelemetryConfig cfg;
    cfg.switches = false;
    cfg.residuals = false;
    EventLog log(cfg);
    EXPECT_FALSE(log.config().switches);
    EXPECT_TRUE(log.config().intervals);
    EXPECT_FALSE(log.config().residuals);
}

TEST(Log2HistogramTest, BucketsByPowerOfTwo)
{
    Log2Histogram h;
    h.add(0); // bucket 0
    h.add(1); // [1,2) -> bucket 1
    h.add(2); // [2,4) -> bucket 2
    h.add(3);
    h.add(1024); // bucket 11
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    EXPECT_EQ(h.bucket(11), 1u);
    EXPECT_EQ(h.usedBuckets(), 12u);
}

// ---- Machine-driven streams ----------------------------------------

/** One telemetry-attached run; returns the log's retained events. */
std::vector<Event>
tracedRun(PolicyKind policy, unsigned cpus)
{
    RandomWalkWorkload::Params p;
    p.walkerLines = 2048;
    p.steps = 8000;
    p.sleepers.push_back({500, 0.25, 400});
    RandomWalkWorkload w(p);

    EventLog log(TelemetryConfig{.capacity = 1 << 14});
    MachineConfig cfg;
    cfg.numCpus = cpus;
    cfg.policy = policy;
    cfg.telemetry = &log;
    runWorkload(w, cfg, true);
    return log.events();
}

TEST(TelemetryDeterminismTest, RerunsProduceByteIdenticalStreams)
{
    for (PolicyKind policy : {PolicyKind::FCFS, PolicyKind::LFF}) {
        std::vector<Event> first = tracedRun(policy, 2);
        std::vector<Event> second = tracedRun(policy, 2);
        ASSERT_FALSE(first.empty());
        EXPECT_EQ(first, second)
            << "event stream diverged between identical runs under "
            << policyName(policy);
    }
}

TEST(TelemetryDeterminismTest, StreamsContainTheExpectedKinds)
{
    std::vector<Event> events = tracedRun(PolicyKind::LFF, 2);
    uint64_t switches = 0, intervals = 0, samples = 0;
    for (const Event &e : events) {
        switch (e.kind) {
          case EventKind::Switch: ++switches; break;
          case EventKind::IntervalEnd: ++intervals; break;
          case EventKind::PicSample: ++samples; break;
          default: continue; // warnings etc. carry no processor
        }
        EXPECT_LT(e.cpu, 2u) << eventKindName(e.kind);
    }
    EXPECT_GT(switches, 0u);
    EXPECT_GT(intervals, 0u);
    // Every interval end pairs with one PIC sample.
    EXPECT_EQ(samples, intervals);
}

TEST(TelemetryDeterminismTest, SerialAndParallelSweepsMatch)
{
    // Three traced jobs, each with its own log, run twice: inline on
    // the caller (the serial reference) and on a 3-worker pool. Pool
    // scheduling must never leak into the event streams.
    auto buildJobs = [](std::vector<std::unique_ptr<EventLog>> &logs) {
        std::vector<SweepJob> jobs;
        for (PolicyKind policy :
             {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT}) {
            logs.push_back(std::make_unique<EventLog>(
                TelemetryConfig{.capacity = 1 << 14}));
            EventLog *log = logs.back().get();
            jobs.push_back(
                {std::string("walk/") + policyName(policy),
                 [policy, log] {
                     RandomWalkWorkload::Params p;
                     p.walkerLines = 2048;
                     p.steps = 8000;
                     p.sleepers.push_back({500, 0.25, 400});
                     RandomWalkWorkload w(p);
                     MachineConfig cfg;
                     cfg.numCpus = 2;
                     cfg.policy = policy;
                     cfg.telemetry = log;
                     return runWorkload(w, cfg, true);
                 }});
        }
        return jobs;
    };

    std::vector<std::unique_ptr<EventLog>> serial_logs, parallel_logs;
    std::vector<SweepJob> serial_jobs = buildJobs(serial_logs);
    std::vector<SweepJob> parallel_jobs = buildJobs(parallel_logs);

    std::vector<RunMetrics> serial = SweepRunner(1).run(serial_jobs);
    std::vector<RunMetrics> parallel = SweepRunner(3).run(parallel_jobs);

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << serial_jobs[i].name;
        EXPECT_EQ(serial_logs[i]->events(), parallel_logs[i]->events())
            << serial_jobs[i].name
            << " event stream diverged between serial and parallel";
    }
}

// ---- Disabled-path invariant ---------------------------------------

/** Small instance of every workload (mirrors the batch-equivalence
 *  suite's sizes so the full matrix stays fast). */
std::unique_ptr<Workload>
makeSmall(const std::string &name)
{
    if (name == "tasks")
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{64, 40, 8});
    if (name == "merge") {
        MergesortWorkload::Params p;
        p.elements = 3000;
        p.cutoff = 100;
        return std::make_unique<MergesortWorkload>(p);
    }
    if (name == "photo") {
        PhotoWorkload::Params p;
        p.width = 128;
        p.height = 32;
        return std::make_unique<PhotoWorkload>(p);
    }
    if (name == "tsp") {
        TspWorkload::Params p;
        p.cities = 18;
        p.depth = 4;
        return std::make_unique<TspWorkload>(p);
    }
    if (name == "barnes") {
        BarnesWorkload::Params p;
        p.bodies = 1024;
        p.treeDepth = 3;
        p.passes = 1;
        return std::make_unique<BarnesWorkload>(p);
    }
    if (name == "ocean") {
        OceanWorkload::Params p;
        p.edge = 34;
        p.iterations = 2;
        return std::make_unique<OceanWorkload>(p);
    }
    if (name == "water") {
        WaterWorkload::Params p;
        p.molecules = 256;
        p.cellEdge = 4;
        p.passes = 1;
        return std::make_unique<WaterWorkload>(p);
    }
    if (name == "raytrace") {
        RaytraceWorkload::Params p;
        p.rays = 200;
        p.steps = 12;
        p.hotLines = 512;
        return std::make_unique<RaytraceWorkload>(p);
    }
    if (name == "typechecker") {
        TypecheckerWorkload::Params p;
        p.typeNodes = 1024;
        p.astNodes = 2048;
        return std::make_unique<TypecheckerWorkload>(p);
    }
    if (name == "random-walk") {
        RandomWalkWorkload::Params p;
        p.walkerLines = 2048;
        p.steps = 8000;
        p.sleepers.push_back({500, 0.25, 400});
        return std::make_unique<RandomWalkWorkload>(p);
    }
    return nullptr;
}

const std::string allWorkloads[] = {
    "tasks", "merge", "photo", "tsp", "barnes", "ocean", "water",
    "raytrace", "typechecker", "random-walk"};

class TelemetryTransparency
    : public ::testing::TestWithParam<std::tuple<std::string, PolicyKind>>
{};

TEST_P(TelemetryTransparency, AttachingALogNeverChangesRunMetrics)
{
    // Telemetry is an observer: the E[F] queries it makes charge no
    // model work and the recording happens outside the simulated
    // machine, so a run with a log attached must be bit-identical (in
    // every modelled metric) to the same run without one.
    auto [name, policy] = GetParam();
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.policy = policy;

    auto plain_w = makeSmall(name);
    auto traced_w = makeSmall(name);
    ASSERT_NE(plain_w, nullptr);

    RunMetrics plain = runWorkload(*plain_w, cfg, true);

    EventLog log(TelemetryConfig{.capacity = 1 << 14});
    MachineConfig traced_cfg = cfg;
    traced_cfg.telemetry = &log;
    RunMetrics traced = runWorkload(*traced_w, traced_cfg, true);

    EXPECT_EQ(plain, traced)
        << name << " under " << policyName(policy)
        << " changed behaviour when telemetry was attached";
    EXPECT_TRUE(traced.verified) << name;
    EXPECT_GT(log.recorded(), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAndPolicies, TelemetryTransparency,
    ::testing::Combine(::testing::ValuesIn(allWorkloads),
                       ::testing::Values(PolicyKind::FCFS, PolicyKind::LFF,
                                         PolicyKind::CRT)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_" + policyName(std::get<1>(info.param));
    });

// ---- Residuals, warnings, exporters --------------------------------

TEST(TelemetryResidualTest, MonitorSamplesBecomeResidualEvents)
{
    RandomWalkWorkload::Params params;
    params.walkerLines = 65536;
    params.steps = 60000;
    RandomWalkWorkload w(params);

    EventLog log(TelemetryConfig{.capacity = 1 << 14});
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.modelSchedulerFootprint = false;
    cfg.telemetry = &log;
    Machine machine(cfg);
    Tracer tracer(machine);
    FootprintMonitor monitor(machine, tracer, 0, 64);

    WorkloadEnv env{machine, &tracer};
    w.setup(env);
    w.onWalkStart([&] {
        machine.flushAllCaches();
        monitor.setDriver(w.walkerTid());
        monitor.track(w.walkerTid(), FootprintMonitor::Kind::Executing);
    });
    machine.run();

    const auto &samples = monitor.samples(w.walkerTid());
    ASSERT_FALSE(samples.empty());
    std::vector<Event> residuals;
    for (const Event &e : log.events()) {
        if (e.kind == EventKind::Residual)
            residuals.push_back(e);
    }
    ASSERT_EQ(residuals.size(), samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
        EXPECT_EQ(residuals[i].n, samples[i].misses);
        EXPECT_EQ(residuals[i].m, samples[i].instructions);
        EXPECT_EQ(residuals[i].value, samples[i].observed);
        EXPECT_EQ(residuals[i].aux, samples[i].predicted);
        EXPECT_EQ(residuals[i].tid, w.walkerTid());
    }

    // summarizeTrace over the events reproduces meanAbsRelError exactly
    // (same floor, same samples, same arithmetic).
    size_t excluded = 0;
    double mare =
        monitor.meanAbsRelError(w.walkerTid(), 32.0, &excluded);
    TraceSummary summary = summarizeTrace(log, 32.0);
    EXPECT_DOUBLE_EQ(summary.residualMeanAbsRelError, mare);
    EXPECT_EQ(summary.residualSamplesBelowFloor, excluded);
    EXPECT_EQ(summary.residualSamplesUsed + excluded, samples.size());
}

TEST(TelemetryWarningTest, MachineWarningsAreCapturedWhileRunning)
{
    EventLog log(TelemetryConfig{.capacity = 256});
    MachineConfig cfg;
    cfg.telemetry = &log;
    Machine m(cfg);
    m.spawn([&] {
        m.share(500, 501, 0.5); // both ids unknown: warns, never fatal
    });
    m.run();

    std::vector<Event> warnings;
    for (const Event &e : log.events()) {
        if (e.kind == EventKind::Warning)
            warnings.push_back(e);
    }
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(log.string(warnings[0].t0).find("unknown thread id"),
              std::string::npos);
}

TEST(TelemetryExportTest, PerfettoDocumentIsWellFormed)
{
    std::vector<Event> reference = tracedRun(PolicyKind::LFF, 2);
    ASSERT_FALSE(reference.empty());
    EventLog log(TelemetryConfig{.capacity = 1 << 14});
    for (const Event &e : reference)
        log.record(e);

    Json doc = perfettoTrace(log, "unit-test");
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto &events = doc.at("traceEvents").items();
    ASSERT_GT(events.size(), reference.size()); // + metadata records

    // ts monotonic per track, skipping metadata records. Slices and
    // instants live on (pid, tid) tracks; counters are keyed by name.
    std::map<std::string, double> last;
    for (const Json &e : events) {
        const std::string &ph = e.at("ph").asString();
        ASSERT_TRUE(ph == "M" || ph == "X" || ph == "i" || ph == "C");
        if (ph == "M")
            continue;
        std::string track =
            std::to_string(e.at("pid").asUint()) + "/" +
            (e.has("tid") ? std::to_string(e.at("tid").asUint())
                          : e.at("name").asString());
        double ts = e.at("ts").asNumber();
        auto it = last.find(track);
        if (it != last.end()) {
            EXPECT_GE(ts, it->second);
        }
        last[track] = ts;
        if (ph == "X") {
            EXPECT_GE(e.at("dur").asNumber(), 0.0);
        }
    }
    EXPECT_EQ(doc.at("metadata").at("events_dropped").asUint(), 0u);
}

TEST(TelemetryExportTest, SummaryJsonCarriesTheSchema4Keys)
{
    std::vector<Event> reference = tracedRun(PolicyKind::LFF, 2);
    EventLog log(TelemetryConfig{.capacity = 1 << 14});
    for (const Event &e : reference)
        log.record(e);

    TraceSummary summary = summarizeTrace(log);
    Json json = traceSummaryJson(summary);
    for (const char *key :
         {"events", "counts", "residuals", "interval_cycles",
          "switch_cost_cycles", "fallback_timeline"}) {
        EXPECT_TRUE(json.has(key)) << key;
    }
    EXPECT_EQ(json.at("events").at("retained").asUint(),
              reference.size());
    EXPECT_EQ(json.at("counts").at("switches").asUint(),
              summary.switches);
}

} // namespace
} // namespace atl
