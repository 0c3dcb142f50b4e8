/**
 * @file
 * Metrics-layer tests (obs/metrics.hh): histogram bucket boundaries
 * and saturation, bit-identical merge algebra (associative and
 * commutative), histogram snapshots and their json round trip, the
 * machine-level invariants — merged registry identical across
 * hostShards {1, 2, 4}; attaching a registry never changes RunMetrics
 * or the telemetry stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atl/obs/event_log.hh"
#include "atl/obs/metrics.hh"
#include "atl/runtime/machine.hh"
#include "atl/sim/experiment.hh"
#include "atl/workloads/tasks.hh"

namespace atl
{
namespace
{

// ---- MetricHistogram -----------------------------------------------

TEST(MetricHistogramTest, BucketBoundaries)
{
    // Bucket i holds [2^(i-1), 2^i), bucket 0 holds zeros — the same
    // convention as export.hh's Log2Histogram.
    MetricHistogram h;
    h.observe(0);
    EXPECT_EQ(h.counts[0], 1u);
    h.observe(1);
    EXPECT_EQ(h.counts[1], 1u);
    h.observe(2);
    h.observe(3);
    EXPECT_EQ(h.counts[2], 2u);
    h.observe(4);
    EXPECT_EQ(h.counts[3], 1u);

    for (unsigned k : {4u, 10u, 31u, 63u}) {
        MetricHistogram edge;
        edge.observe((uint64_t{1} << k) - 1); // top of bucket k
        edge.observe(uint64_t{1} << k);       // bottom of bucket k+1
        EXPECT_EQ(edge.counts[k], 1u) << "k=" << k;
        EXPECT_EQ(edge.counts[k + 1], 1u) << "k=" << k;
    }

    MetricHistogram top;
    top.observe(UINT64_MAX);
    EXPECT_EQ(top.counts[64], 1u);
    EXPECT_EQ(top.total, 1u);
    EXPECT_EQ(top.sum, UINT64_MAX);
}

TEST(MetricHistogramTest, SaturatesInsteadOfWrapping)
{
    MetricHistogram h;
    h.observe(UINT64_MAX);
    h.observe(UINT64_MAX); // sum would wrap; must pin at max
    EXPECT_EQ(h.sum, UINT64_MAX);
    EXPECT_EQ(h.total, 2u);

    MetricHistogram a, b;
    a.counts[3] = UINT64_MAX - 1;
    a.total = UINT64_MAX - 1;
    b.counts[3] = 7;
    b.total = 7;
    a.merge(b);
    EXPECT_EQ(a.counts[3], UINT64_MAX);
    EXPECT_EQ(a.total, UINT64_MAX);
}

TEST(MetricHistogramTest, MergeIsAssociativeAndCommutative)
{
    auto fill = [](uint64_t seed, unsigned samples) {
        MetricHistogram h;
        uint64_t x = seed;
        for (unsigned i = 0; i < samples; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            h.observe(x >> (x % 50));
        }
        return h;
    };
    MetricHistogram a = fill(1, 100), b = fill(2, 37), c = fill(3, 211);

    MetricHistogram ab = a;
    ab.merge(b);
    MetricHistogram ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba);
    EXPECT_EQ(ab.json().dumpCompact(), ba.json().dumpCompact());

    MetricHistogram ab_c = ab;
    ab_c.merge(c);
    MetricHistogram bc = b;
    bc.merge(c);
    MetricHistogram a_bc = a;
    a_bc.merge(bc);
    EXPECT_TRUE(ab_c == a_bc);
    EXPECT_EQ(ab_c.json().dumpCompact(), a_bc.json().dumpCompact());
}

TEST(MetricHistogramTest, JsonRoundTripAndQuantiles)
{
    MetricHistogram h;
    for (uint64_t v : {0ull, 1ull, 5ull, 5ull, 100ull, 1000ull, 65536ull})
        h.observe(v);
    MetricHistogram back;
    ASSERT_TRUE(back.fromJson(h.json()));
    EXPECT_TRUE(back == h);

    // Quantiles answer with the bucket's inclusive upper bound.
    EXPECT_EQ(h.quantileUpperBound(0.0), 0u);
    EXPECT_EQ(h.quantileUpperBound(0.5), 7u); // 5 lands in [4, 8)
    // 65536 lands in [2^16, 2^17), whose inclusive bound is 2^17 - 1.
    EXPECT_EQ(h.quantileUpperBound(1.0), (uint64_t{1} << 17) - 1);

    MetricHistogram junk;
    junk.observe(3);
    Json bad = Json::object();
    bad["total"] = Json("not a number");
    EXPECT_FALSE(junk.fromJson(bad));
    EXPECT_EQ(junk.total, 0u) << "failed fromJson must leave it cleared";
}

// ---- MetricsRegistry -----------------------------------------------

TEST(MetricsRegistryTest, MergedReadsFoldAllShards)
{
    MetricsRegistry r(3);
    MetricsRegistry::Id c = r.counter("c");
    MetricsRegistry::Id g = r.gauge("g");
    MetricsRegistry::Id h = r.histogram("h");
    r.add(c, 1, 0);
    r.add(c, 2, 1);
    r.add(c, 3, 2);
    r.set(g, 10.0, 0);
    r.set(g, 20.0, 1); // shard 1 updates twice: most-updates wins
    r.set(g, 30.0, 1);
    r.observe(h, 5, 0);
    r.observe(h, 9, 2);

    EXPECT_EQ(r.counterTotal("c"), 6u);
    double value = 0.0;
    uint64_t updates = 0;
    ASSERT_TRUE(r.gaugeFinal("g", value, updates));
    EXPECT_EQ(updates, 2u);
    EXPECT_EQ(value, 30.0);
    EXPECT_EQ(r.histogramTotal("h").total, 2u);
    EXPECT_EQ(r.counterTotal("unregistered"), 0u);
}

TEST(MetricsRegistryTest, MergeIsCommutativeAcrossRegistrationOrder)
{
    // Two registries that registered the same names in different
    // orders and sharded their updates differently must still merge to
    // byte-identical snapshots in either merge direction.
    MetricsRegistry a(2), b(1);
    MetricsRegistry::Id ac = a.counter("x.count");
    MetricsRegistry::Id ah = a.histogram("x.hist");
    a.add(ac, 5, 0);
    a.add(ac, 7, 1);
    a.observe(ah, 100, 1);

    MetricsRegistry::Id bh = b.histogram("x.hist");
    MetricsRegistry::Id bc = b.counter("x.count");
    b.observe(bh, 100, 0);
    b.add(bc, 30, 0);

    MetricsRegistry ab, ba;
    ab.merge(a);
    ab.merge(b);
    ba.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab.json().dumpCompact(), ba.json().dumpCompact());
    EXPECT_EQ(ab.counterTotal("x.count"), 42u);
    EXPECT_EQ(ab.histogramTotal("x.hist").total, 2u);
}

TEST(MetricsRegistryTest, RegistrationIsGetOrCreatePerKind)
{
    MetricsRegistry r;
    MetricsRegistry::Id a = r.counter("a");
    MetricsRegistry::Id b = r.counter("b");
    EXPECT_NE(a, b);
    EXPECT_EQ(r.counter("a"), a);
    // Each kind has its own dense id space, so a gauge and a histogram
    // may share a name with a counter without aliasing its slots.
    MetricsRegistry::Id ga = r.gauge("a");
    MetricsRegistry::Id ha = r.histogram("a");
    r.add(a, 4);
    r.set(ga, 2.5);
    r.observe(ha, 16);
    EXPECT_EQ(r.counterTotal("a"), 4u);
    double value = 0.0;
    uint64_t updates = 0;
    ASSERT_TRUE(r.gaugeFinal("a", value, updates));
    EXPECT_EQ(value, 2.5);
    EXPECT_EQ(r.histogramTotal("a").total, 1u);
    EXPECT_EQ(r.histogramTotal("a").sum, 16u);
}

TEST(MetricsRegistryTest, ResetZeroesSlotsAndKeepsRegistrations)
{
    MetricsRegistry r(2);
    MetricsRegistry::Id c = r.counter("c");
    MetricsRegistry::Id g = r.gauge("g");
    MetricsRegistry::Id h = r.histogram("h");
    r.add(c, 9, 1);
    r.set(g, 3.0, 0);
    r.observe(h, 7, 1);
    std::string before = r.json().dumpCompact();
    r.reset();

    MetricsRegistry fresh(2);
    fresh.counter("c");
    fresh.gauge("g");
    fresh.histogram("h");
    EXPECT_EQ(r.json().dumpCompact(), fresh.json().dumpCompact());
    EXPECT_NE(r.json().dumpCompact(), before);
    double value = 0.0;
    uint64_t updates = 0;
    EXPECT_FALSE(r.gaugeFinal("g", value, updates));
    // The old handles still address the same metrics.
    r.add(c, 1, 0);
    EXPECT_EQ(r.counterTotal("c"), 1u);
    EXPECT_EQ(r.shards(), 2u);
}

TEST(MetricsRegistryTest, EnsureShardsOnlyGrows)
{
    MetricsRegistry r;
    MetricsRegistry::Id c = r.counter("c");
    EXPECT_EQ(r.shards(), 1u);
    r.ensureShards(4);
    EXPECT_EQ(r.shards(), 4u);
    r.add(c, 5, 3);
    r.ensureShards(2);
    EXPECT_EQ(r.shards(), 4u);
    EXPECT_EQ(r.counterTotal("c"), 5u);
    // Metrics registered after growth get slots in every shard.
    MetricsRegistry::Id late = r.counter("late");
    r.add(late, 2, 3);
    EXPECT_EQ(r.counterTotal("late"), 2u);
}

TEST(MetricsRegistryTest, SnapshotListsEveryMetricByName)
{
    MetricsRegistry r(2);
    r.counter("z.count");
    MetricsRegistry::Id c = r.counter("a.count");
    r.gauge("unset.gauge");
    r.histogram("h");
    r.add(c, 3, 1);

    Json doc = r.json();
    ASSERT_TRUE(doc.at("counters").isObject());
    std::vector<std::string> counters;
    for (const auto &member : doc.at("counters").members())
        counters.push_back(member.first);
    EXPECT_EQ(counters, (std::vector<std::string>{"a.count", "z.count"}));
    EXPECT_EQ(doc.at("counters").at("a.count").asUint(), 3u);
    EXPECT_EQ(doc.at("counters").at("z.count").asUint(), 0u);
    const Json &gauge = doc.at("gauges").at("unset.gauge");
    EXPECT_EQ(gauge.at("updates").asUint(), 0u);
    EXPECT_EQ(gauge.at("value").asNumber(), 0.0);
    MetricHistogram h;
    ASSERT_TRUE(h.fromJson(doc.at("histograms").at("h")));
    EXPECT_EQ(h.total, 0u);
}

// ---- Machine-level invariants --------------------------------------

RunMetrics
monitoredRun(unsigned host_shards, MetricsRegistry *registry,
             EventLog *log)
{
    TasksWorkload workload(TasksWorkload::Params{64, 50, 10});
    MachineConfig cfg;
    cfg.numCpus = 4;
    cfg.policy = PolicyKind::LFF;
    cfg.engine = EngineKind::Epoch;
    cfg.hostShards = host_shards;
    cfg.metrics = registry;
    cfg.telemetry = log;
    return runWorkload(workload, cfg, true, true);
}

TEST(MetricsMachineTest, MergedRegistryIdenticalAcrossHostShards)
{
    // The registry shards by simulated cpu, not host thread, and every
    // recorded input is deterministic simulation state — so the merged
    // snapshot must be byte-identical no matter how the epoch engine
    // shards the cpus across host threads.
    std::string baseline;
    RunMetrics baseline_metrics;
    for (unsigned shards : {1u, 2u, 4u}) {
        MetricsRegistry registry;
        RunMetrics m = monitoredRun(shards, &registry, nullptr);
        std::string snapshot = registry.json().dumpCompact();
        EXPECT_GT(registry.counterTotal("machine.intervals"), 0u);
        if (baseline.empty()) {
            baseline = snapshot;
            baseline_metrics = m;
        } else {
            EXPECT_EQ(m, baseline_metrics) << shards << " shards";
            EXPECT_EQ(snapshot, baseline)
                << "merged registry diverged at " << shards
                << " host shards";
        }
    }
}

TEST(MetricsMachineTest, AttachingARegistryChangesNothingObservable)
{
    // Metrics are an observer, exactly like telemetry: RunMetrics and
    // the telemetry event stream must be bit-identical with and
    // without a registry attached — with the phase profiler armed too,
    // so the whole observability stack is covered by the invariant.
    EventLog plain_log(TelemetryConfig{.capacity = 1 << 14});
    RunMetrics plain = monitoredRun(2, nullptr, &plain_log);

    bool was_enabled = PhaseProfiler::enabled();
    PhaseProfiler::setEnabled(true);
    EventLog metered_log(TelemetryConfig{.capacity = 1 << 14});
    MetricsRegistry registry;
    RunMetrics metered = monitoredRun(2, &registry, &metered_log);
    PhaseProfiler::setEnabled(was_enabled);

    EXPECT_EQ(plain, metered)
        << "attaching a metrics registry changed the simulation";
    EXPECT_EQ(plain_log.events(), metered_log.events())
        << "attaching a metrics registry changed the telemetry stream";
    EXPECT_GT(registry.counterTotal("machine.intervals"), 0u);
}

} // namespace
} // namespace atl
