/**
 * @file
 * Batched-vs-scalar reference pipeline equivalence: the block-issue
 * memory API is a host-side optimisation only. For every workload and
 * policy, a run whose references flow through RefBatch must produce
 * RunMetrics bit-identical to the same run replayed reference by
 * reference through the scalar API — same misses, same makespan, same
 * context switches, same scheduling decisions.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

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

/** Small instance of every workload (two are run per test case). */
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

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, PolicyKind>>
{};

TEST_P(BatchEquivalence, MetricsBitIdentical)
{
    auto [name, policy] = GetParam();
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.policy = policy;

    auto batched_w = makeSmall(name);
    auto scalar_w = makeSmall(name);
    ASSERT_NE(batched_w, nullptr);

    RunMetrics batched = runWorkload(*batched_w, cfg, true, true);
    RunMetrics scalar = runWorkload(*scalar_w, cfg, true, false);

    EXPECT_EQ(batched, scalar)
        << name << " under " << policyName(policy)
        << " diverged between batched and scalar issue";
    EXPECT_TRUE(batched.verified) << name;

    // Same modelled stream either way, in fewer machine calls when
    // batching is on.
    EXPECT_EQ(batched.refsIssued, scalar.refsIssued) << name;
    EXPECT_LE(batched.refBlocks, scalar.refBlocks) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAndPolicies, BatchEquivalence,
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

/**
 * Same equivalence off the paper's Table-1 geometry: a set-associative
 * E-cache takes the looped probe/LRU path instead of the direct-mapped
 * single-compare specialization, and batching must remain a pure
 * host-side optimisation there too.
 */
class BatchEquivalenceAssoc
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{};

TEST_P(BatchEquivalenceAssoc, MetricsBitIdenticalOffTableGeometry)
{
    auto [name, ways] = GetParam();
    MachineConfig cfg;
    cfg.numCpus = 2;
    cfg.policy = PolicyKind::LFF;
    cfg.hierarchy.l2.ways = ways;

    auto batched_w = makeSmall(name);
    auto scalar_w = makeSmall(name);
    ASSERT_NE(batched_w, nullptr);

    RunMetrics batched = runWorkload(*batched_w, cfg, true, true);
    RunMetrics scalar = runWorkload(*scalar_w, cfg, true, false);

    EXPECT_EQ(batched, scalar)
        << name << " with a " << ways
        << "-way E-cache diverged between batched and scalar issue";
    EXPECT_TRUE(batched.verified) << name;
    EXPECT_EQ(batched.refsIssued, scalar.refsIssued) << name;
    EXPECT_LE(batched.refBlocks, scalar.refBlocks) << name;
}

INSTANTIATE_TEST_SUITE_P(
    SetAssociativeECache, BatchEquivalenceAssoc,
    ::testing::Combine(::testing::Values("tasks", "merge", "raytrace",
                                         "random-walk"),
                       ::testing::Values(2u, 4u)),
    [](const auto &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_l2w" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace atl
