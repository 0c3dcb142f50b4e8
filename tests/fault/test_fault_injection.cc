/**
 * @file
 * Tests for the fault-injection subsystem and the graceful-degradation
 * guarantee it exists to check: an empty plan is bit-identical to no
 * injector at all, a (plan, seed) pair replays the same faults, and
 * under aggressive counter/annotation corruption every workload
 * still terminates with verified output while the scheduler visibly
 * falls back and recovers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "atl/fault/fault.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/sweep.hh"
#include "atl/util/logging.hh"
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

/** Small instances of all ten workloads (mirrors the workload tests). */
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

const char *allWorkloads[] = {"tasks",  "merge", "photo",
                              "tsp",    "barnes", "ocean",
                              "water",  "raytrace", "typechecker",
                              "random-walk"};

RunMetrics
runFaulted(const std::string &workload, PolicyKind policy,
           unsigned n_cpus, FaultInjector *faults)
{
    auto w = makeWorkload(workload);
    MachineConfig cfg;
    cfg.numCpus = n_cpus;
    cfg.policy = policy;
    cfg.faults = faults;
    return runWorkload(*w, cfg, true);
}

TEST(FaultPlanTest, EmptyAndCannedPlans)
{
    EXPECT_TRUE(FaultPlan{}.empty());
    EXPECT_FALSE(FaultPlan::counterChaos().empty());
    EXPECT_FALSE(FaultPlan::annotationChaos().empty());
    EXPECT_FALSE(FaultPlan::fullChaos().empty());
    FaultPlan wrap_only;
    wrap_only.picWrapBias = true;
    EXPECT_FALSE(wrap_only.empty());

    // fullChaos covers both hint surfaces.
    FaultPlan full = FaultPlan::fullChaos();
    EXPECT_TRUE(full.picWrapBias);
    EXPECT_GT(full.shareDropProb, 0.0);

    EXPECT_FALSE(FaultInjector(FaultPlan{}).active());
    for (const FaultPlan &plan :
         {FaultPlan::counterChaos(), FaultPlan::annotationChaos(), full})
        EXPECT_TRUE(FaultInjector(plan).active());
}

TEST(FaultInjectorTest, EmptyPlanIsBitIdenticalToNoInjector)
{
    // The core degradation contract: wiring an inert injector into the
    // machine must not change a single modelled counter.
    for (PolicyKind policy : {PolicyKind::LFF, PolicyKind::CRT}) {
        RunMetrics bare = runFaulted("merge", policy, 2, nullptr);
        FaultInjector inert((FaultPlan()));
        RunMetrics with = runFaulted("merge", policy, 2, &inert);
        EXPECT_EQ(bare, with) << policyName(policy);
        EXPECT_EQ(inert.stats().total(), 0u);
        EXPECT_EQ(with.degradation, DegradationStats{});
    }
}

TEST(FaultInjectorTest, WrapBiasAloneIsInvisibleToMissDeltas)
{
    // Pre-biasing the PICs forces mid-run 32-bit wraps, but the wrap
    // handling makes interval deltas immune: results stay bit-identical
    // and no plausibility check fires.
    FaultPlan plan;
    plan.picWrapBias = true;
    for (PolicyKind policy : {PolicyKind::LFF, PolicyKind::CRT}) {
        RunMetrics bare = runFaulted("photo", policy, 2, nullptr);
        FaultInjector inj(plan, 7);
        RunMetrics biased = runFaulted("photo", policy, 2, &inj);
        EXPECT_GT(inj.stats().picBiases, 0u);
        // faultEvents records the biasing; everything else matches.
        EXPECT_GT(biased.degradation.faultEvents, 0u);
        biased.degradation.faultEvents = 0;
        EXPECT_EQ(bare, biased) << policyName(policy);
    }
}

TEST(FaultInjectorTest, SamePlanAndSeedReplaysIdentically)
{
    FaultPlan plan = FaultPlan::fullChaos();
    FaultInjector a(plan, 42);
    FaultInjector b(plan, 42);
    RunMetrics ra = runFaulted("tasks", PolicyKind::LFF, 2, &a);
    RunMetrics rb = runFaulted("tasks", PolicyKind::LFF, 2, &b);
    EXPECT_EQ(ra, rb);
    EXPECT_EQ(a.stats().total(), b.stats().total());

    // A different seed draws a different fault sequence (overwhelmingly
    // likely over hundreds of opportunities).
    FaultInjector c(plan, 43);
    RunMetrics rc = runFaulted("tasks", PolicyKind::LFF, 2, &c);
    EXPECT_TRUE(rc.verified);
}

TEST(FaultInjectorTest, PerturbSnapshotClassesBehaveAsDocumented)
{
    // Torn reads must produce hits delta > refs delta; sample loss must
    // freeze or garble the reading; noise must inflate the refs delta.
    FaultPlan torn;
    torn.tornSnapshotProb = 1.0;
    FaultInjector ti(torn, 5);
    uint32_t refs = 1000, hits = 900;
    ti.perturbSnapshot(500, 400, refs, hits);
    EXPECT_GT(static_cast<uint32_t>(hits - 400),
              static_cast<uint32_t>(refs - 500));
    EXPECT_EQ(ti.stats().tornSnapshots, 1u);

    FaultPlan noise;
    noise.readNoiseProb = 1.0;
    noise.readNoiseFactorMax = 16.0;
    FaultInjector ni(noise, 5);
    refs = 1000;
    hits = 900;
    ni.perturbSnapshot(500, 400, refs, hits);
    EXPECT_GT(refs, 1000u); // delta scaled up
    EXPECT_EQ(ni.stats().readsNoised, 1u);

    FaultPlan loss;
    loss.sampleLossProb = 1.0;
    FaultInjector li(loss, 5);
    for (int i = 0; i < 16; ++i) {
        refs = 1000;
        hits = 900;
        li.perturbSnapshot(500, 400, refs, hits);
    }
    EXPECT_EQ(li.stats().samplesLost, 16u);
}

TEST(FaultInjectorTest, PerturbShareClassesBehaveAsDocumented)
{
    FaultPlan drop;
    drop.shareDropProb = 1.0;
    FaultInjector di(drop, 9);
    ThreadId dst = 3;
    double q = 0.5;
    EXPECT_TRUE(di.perturbShare(1, dst, q, 8).drop);
    EXPECT_EQ(di.stats().sharesDropped, 1u);

    FaultPlan wrong;
    wrong.shareWrongQProb = 1.0;
    FaultInjector wi(wrong, 9);
    bool out_of_range = false;
    for (int i = 0; i < 64; ++i) {
        q = 0.5;
        dst = 3;
        wi.perturbShare(1, dst, q, 8);
        EXPECT_GE(q, -0.5);
        EXPECT_LE(q, 1.5);
        if (q < 0.0 || q > 1.0)
            out_of_range = true;
    }
    EXPECT_TRUE(out_of_range); // the clamp path gets exercised
    EXPECT_EQ(wi.stats().sharesMisweighted, 64u);

    FaultPlan dangle;
    dangle.shareDanglingProb = 1.0;
    FaultInjector gi(dangle, 9);
    std::set<ThreadId> dsts;
    for (int i = 0; i < 64; ++i) {
        q = 0.5;
        dst = 3;
        gi.perturbShare(1, dst, q, 8);
        EXPECT_LT(dst, ThreadId(8 + 4));
        dsts.insert(dst);
    }
    EXPECT_GT(dsts.size(), 1u);
    EXPECT_EQ(gi.stats().sharesRedirected, 64u);

    FaultPlan churn;
    churn.shareChurnProb = 1.0;
    FaultInjector ci(churn, 9);
    q = 0.5;
    dst = 3;
    ShareFault f = ci.perturbShare(1, dst, q, 8);
    EXPECT_TRUE(f.churn);
    EXPECT_GE(f.churnQ, 0.0);
    EXPECT_LE(f.churnQ, 1.0);
    EXPECT_EQ(ci.stats().sharesChurned, 1u);
}

TEST(FaultInjectorTest, CounterChaosDegradesGracefullyAndRecovers)
{
    // The flagship scenario: aggressive counter corruption. Output must
    // verify, the plausibility checks must fire, the scheduler must dip
    // into fallback and climb back out.
    for (PolicyKind policy : {PolicyKind::LFF, PolicyKind::CRT}) {
        FaultInjector inj(FaultPlan::counterChaos(), 11);
        RunMetrics r = runFaulted("merge", policy, 2, &inj);
        EXPECT_TRUE(r.verified) << policyName(policy);
        EXPECT_GT(r.degradation.faultEvents, 0u);
        EXPECT_GT(r.degradation.implausibleSamples, 0u);
        EXPECT_GE(r.degradation.fallbackActivations, 1u)
            << policyName(policy);
        EXPECT_GE(r.degradation.fallbackRecoveries, 1u)
            << policyName(policy);
        EXPECT_GT(r.degradation.fallbackIntervals, 0u);
    }
}

TEST(FaultInjectorTest, AnnotationChaosNeverAffectsCorrectness)
{
    // Annotations are hints: corrupting every at_share() call may cost
    // locality but must not touch correctness or trip the counter
    // plausibility checks (the counter surface is untouched).
    setLogThrowMode(false); // dangling-id warnings are expected
    FaultInjector inj(FaultPlan::annotationChaos(), 13);
    RunMetrics r = runFaulted("merge", PolicyKind::LFF, 2, &inj);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(r.degradation.faultEvents, 0u);
    const FaultStats &s = inj.stats();
    EXPECT_GT(s.sharesDropped + s.sharesMisweighted +
                  s.sharesRedirected + s.sharesChurned,
              0u);
    EXPECT_EQ(r.degradation.implausibleSamples, 0u);
    EXPECT_EQ(r.degradation.fallbackActivations, 0u);
}

TEST(FaultInjectorTest, FullChaosEveryWorkloadTerminatesVerified)
{
    // Never crash, never hang, never wrong output — across all ten
    // workloads under the kitchen-sink plan.
    for (const char *name : allWorkloads) {
        FaultInjector inj(FaultPlan::fullChaos(),
                          SweepRunner::deriveSeed(0xc4a05, 1));
        RunMetrics r = runFaulted(name, PolicyKind::LFF, 2, &inj);
        EXPECT_TRUE(r.verified) << name;
        EXPECT_GT(r.degradation.faultEvents, 0u) << name;
    }
}

TEST(FaultPlanTest, EachFaultClassAloneMakesThePlanNonEmpty)
{
    std::vector<FaultPlan> plans(8);
    plans[0].picWrapBias = true;
    plans[1].sampleLossProb = 0.1;
    plans[2].readNoiseProb = 0.1;
    plans[3].tornSnapshotProb = 0.1;
    plans[4].shareDropProb = 0.1;
    plans[5].shareWrongQProb = 0.1;
    plans[6].shareDanglingProb = 0.1;
    plans[7].shareChurnProb = 0.1;
    for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_FALSE(plans[i].empty()) << "fault class " << i;
        EXPECT_TRUE(FaultInjector(plans[i]).active()) << "fault class " << i;
    }
    // The noise ceiling only scales an enabled class; alone it is inert.
    FaultPlan ceiling_only;
    ceiling_only.readNoiseFactorMax = 2.0;
    EXPECT_TRUE(ceiling_only.empty());
}

TEST(FaultPlanTest, CannedPlansStayOnTheirSurface)
{
    FaultPlan counters = FaultPlan::counterChaos();
    EXPECT_TRUE(counters.picWrapBias);
    EXPECT_GT(counters.sampleLossProb, 0.0);
    EXPECT_GT(counters.readNoiseProb, 0.0);
    EXPECT_GT(counters.tornSnapshotProb, 0.0);
    EXPECT_EQ(counters.shareDropProb, 0.0);
    EXPECT_EQ(counters.shareWrongQProb, 0.0);
    EXPECT_EQ(counters.shareDanglingProb, 0.0);
    EXPECT_EQ(counters.shareChurnProb, 0.0);

    FaultPlan shares = FaultPlan::annotationChaos();
    EXPECT_FALSE(shares.picWrapBias);
    EXPECT_EQ(shares.sampleLossProb, 0.0);
    EXPECT_EQ(shares.readNoiseProb, 0.0);
    EXPECT_EQ(shares.tornSnapshotProb, 0.0);
    EXPECT_GT(shares.shareDropProb, 0.0);
    EXPECT_GT(shares.shareWrongQProb, 0.0);
    EXPECT_GT(shares.shareDanglingProb, 0.0);
    EXPECT_GT(shares.shareChurnProb, 0.0);
}

TEST(FaultPlanTest, FullChaosKeepsTheCounterChaosSettings)
{
    FaultPlan counters = FaultPlan::counterChaos();
    FaultPlan full = FaultPlan::fullChaos();
    EXPECT_EQ(full.picWrapBias, counters.picWrapBias);
    EXPECT_EQ(full.sampleLossProb, counters.sampleLossProb);
    EXPECT_EQ(full.readNoiseProb, counters.readNoiseProb);
    EXPECT_EQ(full.readNoiseFactorMax, counters.readNoiseFactorMax);
    EXPECT_EQ(full.tornSnapshotProb, counters.tornSnapshotProb);
    EXPECT_GT(full.shareWrongQProb, 0.0);
    EXPECT_GT(full.shareDanglingProb, 0.0);
    EXPECT_GT(full.shareChurnProb, 0.0);
}

TEST(FaultInjectorTest, InertInjectorLeavesEveryInputAlone)
{
    FaultInjector inert((FaultPlan()));
    EXPECT_EQ(inert.picBias(0, 0), 0u);
    EXPECT_EQ(inert.picBias(3, 1), 0u);
    uint32_t refs = 1000, hits = 900;
    EXPECT_FALSE(inert.perturbSnapshot(500, 400, refs, hits));
    EXPECT_EQ(refs, 1000u);
    EXPECT_EQ(hits, 900u);
    ThreadId dst = 3;
    double q = 0.5;
    ShareFault f = inert.perturbShare(1, dst, q, 8);
    EXPECT_FALSE(f.drop);
    EXPECT_FALSE(f.churn);
    EXPECT_EQ(dst, ThreadId(3));
    EXPECT_EQ(q, 0.5);
    EXPECT_EQ(inert.stats().total(), 0u);
}

TEST(FaultInjectorTest, PicBiasSitsJustBelowTheWrap)
{
    FaultPlan plan;
    plan.picWrapBias = true;
    FaultInjector inj(plan, 3);
    for (CpuId cpu = 0; cpu < 4; ++cpu) {
        for (unsigned pic = 0; pic < 2; ++pic) {
            uint32_t bias = inj.picBias(cpu, pic);
            EXPECT_GE(bias, 0xFFFF0000u);
            EXPECT_LT(bias, 0xFFFF8000u);
        }
    }
    EXPECT_EQ(inj.stats().picBiases, 8u);
    EXPECT_EQ(inj.stats().total(), 8u);

    // Without the bias flag other classes never touch the initial PICs.
    FaultInjector other(FaultPlan::annotationChaos(), 3);
    EXPECT_EQ(other.picBias(0, 0), 0u);
    EXPECT_EQ(other.stats().picBiases, 0u);
}

TEST(FaultInjectorTest, SampleLossEitherFreezesOrGarblesTheReading)
{
    FaultPlan plan;
    plan.sampleLossProb = 1.0;
    FaultInjector inj(plan, 17);
    size_t frozen = 0, garbled = 0;
    for (int i = 0; i < 64; ++i) {
        uint32_t refs = 1000, hits = 900;
        EXPECT_TRUE(inj.perturbSnapshot(500, 400, refs, hits));
        if (refs == 500 && hits == 400)
            ++frozen;
        else
            ++garbled;
    }
    EXPECT_GT(frozen, 0u);
    EXPECT_GT(garbled, 0u);
    EXPECT_EQ(inj.stats().samplesLost, 64u);
}

TEST(FaultInjectorTest, ReadNoiseOnlyInflatesTheRefsDelta)
{
    FaultPlan plan;
    plan.readNoiseProb = 1.0;
    plan.readNoiseFactorMax = 4.0;
    FaultInjector inj(plan, 21);
    for (int i = 0; i < 64; ++i) {
        uint32_t refs = 1100, hits = 1050;
        EXPECT_TRUE(inj.perturbSnapshot(1000, 1000, refs, hits));
        EXPECT_EQ(hits, 1050u) << "noise must not touch the hits PIC";
        EXPECT_GE(refs - 1000u, 100u);
        EXPECT_LE(refs - 1000u, 400u);
    }
    EXPECT_EQ(inj.stats().readsNoised, 64u);
}

TEST(FaultInjectorTest, TornSnapshotsSurviveACounterWrap)
{
    // The torn hits reading is built with 32-bit arithmetic, so a
    // snapshot taken just before the PICs wrap still tears the right
    // way: hits delta > refs delta.
    FaultPlan plan;
    plan.tornSnapshotProb = 1.0;
    FaultInjector inj(plan, 8);
    uint32_t refs_snap = 0xFFFFFF00u, hits_snap = 0xFFFFFFF0u;
    for (int i = 0; i < 32; ++i) {
        uint32_t refs = refs_snap + 0x200u, hits = hits_snap + 0x100u;
        EXPECT_TRUE(inj.perturbSnapshot(refs_snap, hits_snap, refs, hits));
        EXPECT_GT(static_cast<uint32_t>(hits - hits_snap),
                  static_cast<uint32_t>(refs - refs_snap));
    }
    EXPECT_EQ(inj.stats().tornSnapshots, 32u);
}

TEST(FaultInjectorTest, PerturbSnapshotReportsExactlyTheInjectedReads)
{
    // The return value tags the telemetry sample as faulted, so it must
    // agree one-for-one with the counter-surface tallies.
    FaultInjector inj(FaultPlan::counterChaos(), 99);
    uint64_t fired = 0;
    for (int i = 0; i < 500; ++i) {
        uint32_t refs = 2000, hits = 1500;
        if (inj.perturbSnapshot(1000, 1000, refs, hits))
            ++fired;
    }
    const FaultStats &s = inj.stats();
    EXPECT_EQ(fired, s.samplesLost + s.readsNoised + s.tornSnapshots);
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, 500u);
}

TEST(FaultInjectorTest, SameSeedDrawsTheSameShareFaults)
{
    FaultInjector a(FaultPlan::annotationChaos(), 31);
    FaultInjector b(FaultPlan::annotationChaos(), 31);
    for (int i = 0; i < 200; ++i) {
        ThreadId da = 2, db = 2;
        double qa = 0.25, qb = 0.25;
        ShareFault fa = a.perturbShare(1, da, qa, 6);
        ShareFault fb = b.perturbShare(1, db, qb, 6);
        ASSERT_EQ(fa.drop, fb.drop) << i;
        ASSERT_EQ(fa.churn, fb.churn) << i;
        ASSERT_EQ(fa.churnQ, fb.churnQ) << i;
        ASSERT_EQ(da, db) << i;
        ASSERT_EQ(qa, qb) << i;
    }
    EXPECT_EQ(a.stats().total(), b.stats().total());
}

TEST(FaultInjectorTest, DroppedShareIsNotAlsoRewritten)
{
    // A dropped call never reaches the annotation table, so the other
    // annotation classes must not also fire (and count) on it.
    FaultPlan plan;
    plan.shareDropProb = 1.0;
    plan.shareWrongQProb = 1.0;
    plan.shareDanglingProb = 1.0;
    plan.shareChurnProb = 1.0;
    FaultInjector inj(plan, 4);
    ThreadId dst = 5;
    double q = 0.75;
    ShareFault f = inj.perturbShare(1, dst, q, 8);
    EXPECT_TRUE(f.drop);
    EXPECT_FALSE(f.churn);
    EXPECT_EQ(dst, ThreadId(5));
    EXPECT_EQ(q, 0.75);
    EXPECT_EQ(inj.stats().total(), inj.stats().sharesDropped);
}

TEST(FaultStatsTest, TotalSumsEveryClass)
{
    FaultStats s;
    EXPECT_EQ(s.total(), 0u);
    s.picBiases = 1;
    s.samplesLost = 2;
    s.readsNoised = 4;
    s.tornSnapshots = 8;
    s.sharesDropped = 16;
    s.sharesMisweighted = 32;
    s.sharesRedirected = 64;
    s.sharesChurned = 128;
    EXPECT_EQ(s.total(), 255u);
}

} // namespace
} // namespace atl
