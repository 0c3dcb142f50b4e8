/**
 * @file
 * Golden-fingerprint guard for hot-path refactors. The packed-line
 * cache lookup, SoA tracer metadata, and flat-heap ready-queue are
 * host-side optimisations only: every simulated result — RunMetrics
 * and the telemetry event stream — must stay bit-identical to the
 * fingerprints captured before the refactor, for all 10 workloads ×
 * 3 policies × engines {classic, epoch×{1,2,4}}.
 *
 * The committed table lives in hotpath_golden.inc. To regenerate it
 * (only when a change is *meant* to alter simulated results), run the
 * whole binary in one process:
 *
 *     ATL_WRITE_GOLDEN=tests/integration/hotpath_golden.inc \
 *         ./build/tests/atl_hotpath_identity_tests
 *
 * and commit the rewritten file with an explanation of why the
 * modelled stream changed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

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

/** Small instance of every workload (matches the parallel suite). */
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

/** FNV-1a over explicitly enumerated fields (never raw struct bytes,
 *  so padding and layout changes cannot perturb the fingerprint). */
struct Fingerprint
{
    uint64_t h = 1469598103934665603ull;

    void byte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }
    void u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    void f64(double d)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(bits));
        u64(bits);
    }
    void str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }
};

/** Hash the simulated (host-independent) slice of a run. */
void
hashMetrics(Fingerprint &fp, const RunMetrics &m)
{
    fp.str(m.workload);
    fp.u64(static_cast<uint64_t>(m.policy));
    fp.u64(m.numCpus);
    fp.u64(m.makespan);
    fp.u64(m.eMisses);
    fp.u64(m.eRefs);
    fp.u64(m.instructions);
    fp.u64(m.contextSwitches);
    fp.u64(m.schedOverheadCycles);
    fp.u64(m.verified ? 1 : 0);
    fp.u64(m.degradation.implausibleSamples);
    fp.u64(m.degradation.tornSamples);
    fp.u64(m.degradation.clampedMisses);
    fp.u64(m.degradation.fallbackActivations);
    fp.u64(m.degradation.fallbackRecoveries);
    fp.u64(m.degradation.fallbackIntervals);
    fp.u64(m.degradation.faultEvents);
    // refsIssued is a host-side diagnostic, but it is a deterministic
    // function of the modelled stream, so pin it too.
    fp.u64(m.refsIssued);
}

/** Hash a retained telemetry stream plus its accounting. */
void
hashTelemetry(Fingerprint &fp, const EventLog &log)
{
    fp.u64(log.recorded());
    fp.u64(log.size());
    for (size_t i = 0; i < log.size(); ++i) {
        const Event &e = log.at(i);
        fp.byte(static_cast<uint8_t>(e.kind));
        fp.byte(e.flag);
        fp.u64(e.cpu);
        fp.u64(e.tid);
        fp.u64(e.time);
        fp.u64(e.t0);
        fp.u64(e.n);
        fp.u64(e.m);
        fp.f64(e.value);
        fp.f64(e.aux);
    }
    fp.u64(log.stringCount());
    for (size_t i = 0; i < log.stringCount(); ++i)
        fp.str(log.string(i));
}

struct EngineVariant
{
    const char *key;
    EngineKind engine;
    unsigned shards;
};

const EngineVariant kVariants[] = {
    {"classic", EngineKind::Classic, 1},
    {"epoch1", EngineKind::Epoch, 1},
    {"epoch2", EngineKind::Epoch, 2},
    {"epoch4", EngineKind::Epoch, 4},
};

/** One monitored run; returns the combined metrics+telemetry hash. */
uint64_t
runFingerprint(const std::string &name, PolicyKind policy,
               const EngineVariant &variant)
{
    EventLog log(TelemetryConfig{.capacity = 1 << 14});
    MachineConfig cfg;
    cfg.numCpus = 4;
    cfg.policy = policy;
    cfg.engine = variant.engine;
    cfg.hostShards = variant.shards;
    cfg.telemetry = &log;
    auto workload = makeSmall(name);
    RunMetrics metrics = runWorkload(*workload, cfg, true, true);
    EXPECT_TRUE(metrics.verified) << name;

    Fingerprint fp;
    hashMetrics(fp, metrics);
    hashTelemetry(fp, log);
    return fp.h;
}

struct GoldenEntry
{
    const char *key;
    uint64_t fingerprint;
};

const GoldenEntry kGolden[] = {
#include "hotpath_golden.inc"
};

const std::map<std::string, uint64_t> &
goldenTable()
{
    static const std::map<std::string, uint64_t> table = [] {
        std::map<std::string, uint64_t> t;
        for (const GoldenEntry &e : kGolden)
            t.emplace(e.key, e.fingerprint);
        return t;
    }();
    return table;
}

bool
writingGolden()
{
    return std::getenv("ATL_WRITE_GOLDEN") != nullptr;
}

/** Entries captured this process, for regeneration runs. */
std::map<std::string, uint64_t> &
capturedEntries()
{
    static std::map<std::string, uint64_t> entries;
    return entries;
}

/** Writes the regenerated table after all cases ran in one process. */
class GoldenWriter : public ::testing::Environment
{
  public:
    void TearDown() override
    {
        const char *path = std::getenv("ATL_WRITE_GOLDEN");
        if (path == nullptr || capturedEntries().empty())
            return;
        std::ofstream out(path);
        ASSERT_TRUE(out.good()) << "cannot open " << path;
        out << "// Generated by atl_hotpath_identity_tests with "
               "ATL_WRITE_GOLDEN; do not edit.\n"
            << "// FNV-1a over simulated RunMetrics fields + telemetry "
               "stream (see test_hotpath_identity.cc).\n";
        for (const auto &[key, fingerprint] : capturedEntries())
            out << "{\"" << key << "\", 0x" << std::hex << fingerprint
                << std::dec << "ull},\n";
    }
};

const auto *const kWriterRegistration =
    ::testing::AddGlobalTestEnvironment(new GoldenWriter);

class HotpathIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, PolicyKind>>
{};

TEST_P(HotpathIdentity, MatchesCommittedFingerprint)
{
    auto [name, policy] = GetParam();
    for (const EngineVariant &variant : kVariants) {
        std::string key = std::string(name) + "/" + policyName(policy) +
                          "/" + variant.key;
        uint64_t fingerprint = runFingerprint(name, policy, variant);
        capturedEntries()[key] = fingerprint;
        if (writingGolden())
            continue;
        auto it = goldenTable().find(key);
        ASSERT_NE(it, goldenTable().end())
            << key << " missing from hotpath_golden.inc — regenerate "
            << "with ATL_WRITE_GOLDEN";
        EXPECT_EQ(it->second, fingerprint)
            << key << " diverged from the committed golden fingerprint: "
            << "the simulated stream is no longer bit-identical";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsAndPolicies, HotpathIdentity,
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

} // namespace
} // namespace atl
