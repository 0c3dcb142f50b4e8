/**
 * @file
 * Workload correctness tests: every benchmark application must produce
 * verified output under every scheduling policy and machine width — the
 * paper's cardinal rule that annotations and scheduling are hints that
 * never affect correctness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "atl/fault/fault.hh"
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

/** Small-scale instances of every workload, by name. */
std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "tasks")
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{64, 50, 10});
    if (name == "merge") {
        MergesortWorkload::Params p;
        p.elements = 5000;
        p.cutoff = 100;
        return std::make_unique<MergesortWorkload>(p);
    }
    if (name == "photo") {
        PhotoWorkload::Params p;
        p.width = 128;
        p.height = 64;
        return std::make_unique<PhotoWorkload>(p);
    }
    if (name == "tsp") {
        TspWorkload::Params p;
        p.cities = 24;
        p.depth = 5;
        return std::make_unique<TspWorkload>(p);
    }
    if (name == "barnes") {
        BarnesWorkload::Params p;
        p.bodies = 2048;
        p.treeDepth = 3;
        p.passes = 1;
        return std::make_unique<BarnesWorkload>(p);
    }
    if (name == "ocean") {
        OceanWorkload::Params p;
        p.edge = 66;
        p.iterations = 2;
        return std::make_unique<OceanWorkload>(p);
    }
    if (name == "water") {
        WaterWorkload::Params p;
        p.molecules = 512;
        p.cellEdge = 4;
        p.passes = 1;
        return std::make_unique<WaterWorkload>(p);
    }
    if (name == "raytrace") {
        RaytraceWorkload::Params p;
        p.rays = 400;
        p.steps = 16;
        p.hotLines = 512;
        return std::make_unique<RaytraceWorkload>(p);
    }
    if (name == "typechecker") {
        TypecheckerWorkload::Params p;
        p.typeNodes = 2048;
        p.astNodes = 4096;
        return std::make_unique<TypecheckerWorkload>(p);
    }
    if (name == "random-walk") {
        RandomWalkWorkload::Params p;
        p.walkerLines = 4096;
        p.steps = 20000;
        p.sleepers.push_back({500, 0.25, 400});
        return std::make_unique<RandomWalkWorkload>(p);
    }
    return nullptr;
}

const std::string allWorkloads[] = {
    "tasks", "merge", "photo", "tsp", "barnes", "ocean", "water",
    "raytrace", "typechecker", "random-walk"};

/** (workload, policy, cpus) correctness sweep. */
class WorkloadSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, PolicyKind, unsigned>>
{};

TEST_P(WorkloadSweep, VerifiesUnderPolicy)
{
    auto [name, policy, n_cpus] = GetParam();
    auto workload = makeWorkload(name);
    ASSERT_NE(workload, nullptr);

    MachineConfig cfg;
    cfg.numCpus = n_cpus;
    cfg.policy = policy;
    RunMetrics r = runWorkload(*workload, cfg, true);
    EXPECT_TRUE(r.verified) << name << " under "
                            << policyName(policy) << " on " << n_cpus
                            << " cpus";
    EXPECT_GT(r.eMisses, 0u);
    EXPECT_GT(r.instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAndWidths, WorkloadSweep,
    ::testing::Combine(::testing::ValuesIn(allWorkloads),
                       ::testing::Values(PolicyKind::FCFS,
                                         PolicyKind::LFF,
                                         PolicyKind::CRT),
                       ::testing::Values(1u, 4u)),
    [](const auto &info) {
        std::string label = std::get<0>(info.param);
        for (char &c : label)
            if (c == '-')
                c = '_';
        return label + "_" + policyName(std::get<1>(info.param)) + "_" +
               std::to_string(std::get<2>(info.param)) + "cpu";
    });

/**
 * The classic engine's line directory equals the union of the E-caches
 * it describes: every resident line has its holder bit, and no other
 * bit is set.
 */
void
expectDirectoryMatchesCaches(const Machine &machine)
{
    const LineDirectory &dir = machine.lineDirectory();
    uint64_t resident = 0;
    for (CpuId c = 0; c < machine.numCpus(); ++c) {
        machine.hierarchy(c).l2().forEachResident([&](PAddr line) {
            ++resident;
            EXPECT_TRUE(dir.holds(line, c))
                << "cpu " << c << " caches line 0x" << std::hex << line
                << " missing from the directory";
        });
    }
    EXPECT_EQ(dir.holderCount(), resident);
}

/** (workload, cpus): the directory after a full LFF run. */
class DirectoryConsistency
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{};

TEST_P(DirectoryConsistency, MatchesEveryECacheAfterTheRun)
{
    auto [name, n_cpus] = GetParam();
    auto workload = makeWorkload(name);
    ASSERT_NE(workload, nullptr);
    MachineConfig cfg;
    cfg.numCpus = n_cpus;
    cfg.policy = PolicyKind::LFF;
    Machine machine(cfg);
    WorkloadEnv env{machine, nullptr};
    workload->setup(env);
    machine.run();
    EXPECT_TRUE(workload->verify());
    EXPECT_GT(machine.lineDirectory().holderCount(), 0u);
    expectDirectoryMatchesCaches(machine);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsOnSmp, DirectoryConsistency,
    ::testing::Combine(::testing::ValuesIn(allWorkloads),
                       ::testing::Values(4u, 8u)),
    [](const auto &info) {
        std::string label = std::get<0>(info.param);
        for (char &c : label)
            if (c == '-')
                c = '_';
        return label + "_" + std::to_string(std::get<1>(info.param)) +
               "cpu";
    });

/** merge on 8 cpus under LFF; returns the idle passes replayed. */
uint64_t
runMergeOnEight(FaultInjector *faults, RunMetrics &out)
{
    auto workload = makeWorkload("merge");
    MachineConfig cfg;
    cfg.numCpus = 8;
    cfg.policy = PolicyKind::LFF;
    cfg.faults = faults;
    Machine machine(cfg);
    WorkloadEnv env{machine, nullptr};
    workload->setup(env);
    machine.run();
    out.makespan = machine.makespan();
    out.eMisses = machine.totalEMisses();
    out.eRefs = machine.totalERefs();
    out.instructions = machine.totalInstructions();
    out.contextSwitches = machine.totalSwitches();
    out.verified = workload->verify();
    return machine.idlePassesReplayed();
}

TEST(WorkloadTest, IdlePassReplayIsExercisedAndExact)
{
    // merge's fork tree leaves processors idle while a peer's heap
    // holds the next child, so the engine replays idle passes here.
    RunMetrics replayed;
    EXPECT_GT(runMergeOnEight(nullptr, replayed), 0u);
    EXPECT_TRUE(replayed.verified);

    // An armed mid-run crash surface that can never fire keeps every
    // pass in the main loop: the replay is off and the run must still
    // be bit-identical.
    FaultPlan plan;
    plan.jobCrashAtCycle = ~Cycles(0);
    FaultInjector injector(plan, 7);
    ASSERT_TRUE(injector.cycleCrashArmed());
    RunMetrics stepped;
    EXPECT_EQ(runMergeOnEight(&injector, stepped), 0u);
    EXPECT_EQ(stepped.makespan, replayed.makespan);
    EXPECT_EQ(stepped.eMisses, replayed.eMisses);
    EXPECT_EQ(stepped.eRefs, replayed.eRefs);
    EXPECT_EQ(stepped.instructions, replayed.instructions);
    EXPECT_EQ(stepped.contextSwitches, replayed.contextSwitches);
}

/**
 * Wraps a workload with an extra thread that re-annotates every live
 * thread pair with one hostile coefficient, through the same at_share
 * path the applications use.
 */
class HostileAnnotations : public Workload
{
  public:
    HostileAnnotations(std::unique_ptr<Workload> inner, double q)
        : _inner(std::move(inner)), _q(q)
    {}

    std::string name() const override { return _inner->name(); }
    std::string description() const override
    {
        return _inner->description();
    }
    std::string parameters() const override { return _inner->parameters(); }
    bool verify() const override { return _inner->verify(); }

    void
    setup(WorkloadEnv &env) override
    {
        // Spawned first, so its first round runs while the workload's
        // threads are still live on any machine width.
        Machine &m = env.machine;
        const double q = _q;
        m.spawn(
            [&m, q] {
                for (int round = 0; round < 40; ++round) {
                    ThreadId self = m.self();
                    for (ThreadId t = 0; t < m.threadCount(); ++t) {
                        if (t == self ||
                            m.thread(t).state == ThreadState::Exited)
                            continue;
                        m.share(self, t, q);
                        m.share(t, self, q);
                    }
                    m.yield();
                }
            },
            "annotator");
        _inner->setup(env);
    }

  private:
    std::unique_ptr<Workload> _inner;
    double _q;
};

/** A hostile at_share coefficient and its test-name label. */
struct HostileQ
{
    const char *label;
    double q;
};

void
PrintTo(const HostileQ &h, std::ostream *os)
{
    *os << h.label;
}

const HostileQ hostileQs[] = {
    {"nan", std::numeric_limits<double>::quiet_NaN()},
    {"inf", std::numeric_limits<double>::infinity()},
    {"neg_inf", -std::numeric_limits<double>::infinity()},
    {"neg_zero", -0.0},
    {"denormal", std::numeric_limits<double>::denorm_min()},
    {"one_minus_eps", std::nextafter(1.0, 0.0)},
    {"one_plus_eps", std::nextafter(1.0, 2.0)},
    {"huge", 1e300},
};

/** (q, workload, policy, cpus): a hostile coefficient ends in a clean,
 *  verified run; a non-finite one is dropped and counted. */
class HostileShareCoefficient
    : public ::testing::TestWithParam<
          std::tuple<HostileQ, std::string, PolicyKind, unsigned>>
{};

TEST_P(HostileShareCoefficient, RunStaysCleanAndCountsDroppedHints)
{
    auto [hostile, name, policy, n_cpus] = GetParam();
    HostileAnnotations workload(makeWorkload(name), hostile.q);
    MachineConfig cfg;
    cfg.numCpus = n_cpus;
    cfg.policy = policy;
    RunMetrics r = runWorkload(workload, cfg, false);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.makespan, 0u);
    if (std::isfinite(hostile.q))
        EXPECT_EQ(r.degradation.droppedHints, 0u);
    else
        EXPECT_GT(r.degradation.droppedHints, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    NonFiniteAndEdgeValues, HostileShareCoefficient,
    ::testing::Combine(::testing::ValuesIn(hostileQs),
                       ::testing::Values("merge", "tsp"),
                       ::testing::Values(PolicyKind::LFF, PolicyKind::CRT),
                       ::testing::Values(1u, 8u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).label) + "_" +
               std::get<1>(info.param) + "_" +
               policyName(std::get<2>(info.param)) + "_" +
               std::to_string(std::get<3>(info.param)) + "cpu";
    });

TEST(WorkloadMetaTest, DescriptionsAndParameters)
{
    for (const std::string &name : allWorkloads) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->name(), name);
        EXPECT_FALSE(w->description().empty());
        EXPECT_FALSE(w->parameters().empty());
    }
}

TEST(WorkloadMetaTest, AnnotationUsageDeclarations)
{
    // Table 2/4 semantics: tasks has disjoint state (no annotations);
    // merge, photo, tsp are annotated.
    EXPECT_FALSE(makeWorkload("tasks")->usesAnnotations());
    EXPECT_TRUE(makeWorkload("merge")->usesAnnotations());
    EXPECT_TRUE(makeWorkload("photo")->usesAnnotations());
    EXPECT_TRUE(makeWorkload("tsp")->usesAnnotations());
}

TEST(WorkloadTest, MergesortThreadCountMatchesCutoff)
{
    MergesortWorkload::Params p;
    p.elements = 5000;
    p.cutoff = 100;
    MergesortWorkload w(p);
    MachineConfig cfg;
    runWorkload(w, cfg, false);
    // 5000 elements halve to <=100 in 6 levels: 64 leaves, 127 nodes.
    EXPECT_EQ(w.threadsCreated(), 127u);
}

TEST(WorkloadTest, MergesortAnnotationsPopulateGraph)
{
    MergesortWorkload::Params p;
    p.elements = 2000;
    p.cutoff = 500;
    MergesortWorkload w(p);
    MachineConfig cfg;
    cfg.policy = PolicyKind::LFF;
    Machine machine(cfg);
    WorkloadEnv env{machine, nullptr};
    w.setup(env);
    machine.run();
    EXPECT_TRUE(w.verify());
    // Exited threads are pruned from the graph.
    EXPECT_EQ(machine.graph().edgeCount(), 0u);
}

TEST(WorkloadTest, TspProducesValidTour)
{
    TspWorkload::Params p;
    p.cities = 16;
    p.depth = 4;
    TspWorkload w(p);
    MachineConfig cfg;
    cfg.policy = PolicyKind::CRT;
    RunMetrics r = runWorkload(w, cfg, true);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(w.threadsCreated(), 31u);
    EXPECT_LT(w.bestLength(), ~0ull);
}

TEST(WorkloadTest, TspDeterministicWorkAcrossPolicies)
{
    // The paper benchmarks "equal work" across policies; our fixed tree
    // makes the modelled instruction count policy-independent up to
    // scheduler overhead differences.
    auto run = [](PolicyKind policy) {
        TspWorkload::Params p;
        p.cities = 16;
        p.depth = 4;
        TspWorkload w(p);
        MachineConfig cfg;
        cfg.policy = policy;
        cfg.modelSchedulerFootprint = false;
        return runWorkload(w, cfg, false).instructions;
    };
    uint64_t fcfs = run(PolicyKind::FCFS);
    uint64_t lff = run(PolicyKind::LFF);
    EXPECT_NEAR(static_cast<double>(fcfs), static_cast<double>(lff),
                0.01 * static_cast<double>(fcfs));
}

TEST(WorkloadTest, PhotoSmallestImages)
{
    // Degenerate geometry: 1xN and Nx1 images must clamp correctly.
    for (auto [w_px, h_px] : {std::pair<unsigned, unsigned>{1, 8},
                              {8, 1}, {2, 2}}) {
        PhotoWorkload::Params p;
        p.width = w_px;
        p.height = h_px;
        PhotoWorkload w(p);
        MachineConfig cfg;
        RunMetrics r = runWorkload(w, cfg, false);
        EXPECT_TRUE(r.verified) << w_px << "x" << h_px;
    }
}

TEST(WorkloadTest, RandomWalkSleeperSpecs)
{
    // Dependent and independent sleepers together.
    RandomWalkWorkload::Params p;
    p.walkerLines = 2048;
    p.steps = 5000;
    p.sleepers.push_back({0, 0.5, 512});   // purely shared state
    p.sleepers.push_back({300, 0.0, 300}); // purely private
    RandomWalkWorkload w(p);
    MachineConfig cfg;
    Machine machine(cfg);
    Tracer tracer(machine);
    WorkloadEnv env{machine, &tracer};
    w.setup(env);
    // The annotation was emitted for the dependent sleeper only (checked
    // before the run: the graph prunes arcs as threads exit).
    EXPECT_NEAR(
        machine.graph().coefficient(w.walkerTid(), w.sleeperTids()[0]),
        0.5, 1e-12);
    EXPECT_DOUBLE_EQ(
        machine.graph().coefficient(w.walkerTid(), w.sleeperTids()[1]),
        0.0);
    machine.run();
    EXPECT_TRUE(w.verify());
}

TEST(WorkloadTest, MonitoredKernelsInvokeWorkStartHook)
{
    TypecheckerWorkload::Params p;
    p.typeNodes = 512;
    p.astNodes = 512;
    TypecheckerWorkload w(p);
    MachineConfig cfg;
    Machine machine(cfg);
    WorkloadEnv env{machine, nullptr};
    bool hook_ran = false;
    w.setup(env);
    w.onWorkStart([&] {
        hook_ran = true;
        EXPECT_EQ(machine.self(), w.workTid());
    });
    machine.run();
    EXPECT_TRUE(hook_ran);
    EXPECT_TRUE(w.verify());
}

} // namespace
} // namespace atl
