/**
 * @file
 * Epoch-engine determinism: sharding the simulated processors across
 * host worker threads is a host-side optimisation only. For every
 * workload and policy, an epoch-engine run with N shards must produce
 * RunMetrics bit-identical to the same run on one shard — same misses,
 * same makespan, same context switches, same scheduling decisions —
 * and an attached telemetry log must retain a byte-identical event
 * stream. Also covers the engine-selection knobs and the deterministic
 * lax mode.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "atl/obs/event_log.hh"
#include "atl/sim/experiment.hh"
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

/** Small instance of every workload (several are run per test case). */
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

/** One epoch-engine run of a small workload. */
RunMetrics
epochRun(const std::string &name, PolicyKind policy, unsigned shards,
         unsigned lax_factor = 1, EventLog *log = nullptr)
{
    MachineConfig cfg;
    cfg.numCpus = 4;
    cfg.policy = policy;
    cfg.engine = EngineKind::Epoch;
    cfg.hostShards = shards;
    cfg.laxFactor = lax_factor;
    cfg.telemetry = log;
    auto workload = makeSmall(name);
    return runWorkload(*workload, cfg, true, true);
}

class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, PolicyKind>>
{};

TEST_P(ParallelEquivalence, ShardCountInvariant)
{
    auto [name, policy] = GetParam();

    RunMetrics serial = epochRun(name, policy, 1);
    EXPECT_TRUE(serial.verified) << name;

    for (unsigned shards : {2u, 4u}) {
        RunMetrics sharded = epochRun(name, policy, shards);
        EXPECT_EQ(serial, sharded)
            << name << " under " << policyName(policy) << " diverged at "
            << shards << " shards";
        // Host-side stream diagnostics are excluded from operator==;
        // the modelled stream itself must not depend on sharding.
        EXPECT_EQ(serial.refsIssued, sharded.refsIssued) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAndPolicies, ParallelEquivalence,
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

TEST(ParallelTelemetryTest, StreamsByteIdenticalAcrossShardCounts)
{
    // random-walk exercises timers, sleepers, and PIC sampling; LFF
    // exercises footprint-driven dispatch decisions.
    EventLog reference_log(TelemetryConfig{.capacity = 1 << 14});
    RunMetrics reference =
        epochRun("random-walk", PolicyKind::LFF, 1, 1, &reference_log);
    ASSERT_TRUE(reference.verified);
    ASSERT_GT(reference_log.size(), 0u);

    for (unsigned shards : {2u, 4u}) {
        EventLog log(TelemetryConfig{.capacity = 1 << 14});
        RunMetrics sharded =
            epochRun("random-walk", PolicyKind::LFF, shards, 1, &log);
        EXPECT_EQ(reference, sharded);
        EXPECT_EQ(reference_log.events(), log.events())
            << "telemetry stream diverged at " << shards << " shards";
        // Drop accounting happens at the ordered drain, so even the
        // overflow counters are shard-count independent.
        EXPECT_EQ(reference_log.recorded(), log.recorded());
        EXPECT_EQ(reference_log.dropped(), log.dropped());
    }
}

TEST(ParallelLaxTest, LaxModeIsDeterministicPerShardCount)
{
    // Lax mode trades barrier frequency for accuracy: the horizon step
    // grows by laxFactor, so parks commit later and the schedule may
    // differ from the tight-epoch run — but it stays a deterministic
    // function of the configuration, including the shard count.
    RunMetrics lax1 = epochRun("tasks", PolicyKind::LFF, 1, 4);
    EXPECT_TRUE(lax1.verified);
    for (unsigned shards : {2u, 4u}) {
        RunMetrics laxn = epochRun("tasks", PolicyKind::LFF, shards, 4);
        EXPECT_EQ(lax1, laxn)
            << "lax mode diverged at " << shards << " shards";
    }
    RunMetrics rerun = epochRun("tasks", PolicyKind::LFF, 2, 4);
    EXPECT_EQ(lax1, rerun) << "lax rerun diverged";
}

TEST(ParallelConfigTest, ShardsAboveOneForceTheEpochEngine)
{
    // Selecting shards without naming the engine must not silently run
    // the classic serial loop.
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.hostShards = 2;
    Machine machine(cfg);
    EXPECT_EQ(machine.config().engine, EngineKind::Epoch);
    EXPECT_EQ(machine.config().hostShards, 2u);
}

TEST(ParallelConfigTest, ShardCountClampsToProcessorCount)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.engine = EngineKind::Epoch;
    cfg.hostShards = 16;
    Machine machine(cfg);
    EXPECT_EQ(machine.config().hostShards, 2u);
}

TEST(ParallelConfigTest, EpochCyclesDefaultsToSliceQuantum)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.engine = EngineKind::Epoch;
    Machine machine(cfg);
    EXPECT_EQ(machine.config().epochCycles, machine.config().sliceQuantum);
    EXPECT_GE(machine.config().laxFactor, 1u);
}

} // namespace
} // namespace atl
