/**
 * @file
 * Tests for the at_share() annotation graph semantics (paper Section
 * 2.3): dynamic weighted arcs, re-annotation, no implied symmetry or
 * transitivity, and cleanup on thread death.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "atl/model/sharing_graph.hh"
#include "atl/util/logging.hh"
#include "atl/util/rng.hh"

namespace atl
{
namespace
{

TEST(SharingGraphTest, UnspecifiedArcsAreZero)
{
    SharingGraph g;
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 0.0);
    EXPECT_EQ(g.outDegree(1), 0u);
    EXPECT_TRUE(g.outEdges(1).empty());
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(SharingGraphTest, ShareAddsDirectedArc)
{
    SharingGraph g;
    g.share(1, 2, 0.5);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 0.5);
    // Arcs need not be bidirectional (paper: mergesort example).
    EXPECT_DOUBLE_EQ(g.coefficient(2, 1), 0.0);
    EXPECT_EQ(g.outDegree(1), 1u);
    EXPECT_EQ(g.outDegree(2), 0u);
    EXPECT_EQ(g.edgeCount(), 1u);
}

TEST(SharingGraphTest, ReAnnotationChangesWeight)
{
    SharingGraph g;
    g.share(1, 2, 0.5);
    g.share(1, 2, 0.8);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 0.8);
    EXPECT_EQ(g.edgeCount(), 1u); // weight change, not a new arc
}

TEST(SharingGraphTest, ZeroWeightRemovesArc)
{
    SharingGraph g;
    g.share(1, 2, 0.5);
    g.share(1, 2, 0.0);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 0.0);
    EXPECT_EQ(g.edgeCount(), 0u);
    // Removing a nonexistent arc is harmless.
    g.share(3, 4, 0.0);
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(SharingGraphTest, SelfArcsIgnored)
{
    SharingGraph g;
    g.share(5, 5, 1.0);
    EXPECT_EQ(g.edgeCount(), 0u);
    EXPECT_DOUBLE_EQ(g.coefficient(5, 5), 0.0);
}

TEST(SharingGraphTest, OutOfRangeCoefficientsClampedNotFatal)
{
    // Annotations are hints: bad values must never break anything.
    SharingGraph g;
    g.share(1, 2, 1.7);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 1.0);
    g.share(1, 3, -0.4);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 3), 0.0);
    EXPECT_EQ(g.edgeCount(), 1u); // the clamped-to-zero arc was dropped
}

TEST(SharingGraphTest, NoTransitivity)
{
    SharingGraph g;
    g.share(1, 2, 1.0);
    g.share(2, 3, 1.0);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 3), 0.0);
}

TEST(SharingGraphTest, OutEdgesEnumerateDependents)
{
    SharingGraph g;
    g.share(1, 2, 0.3);
    g.share(1, 3, 0.6);
    g.share(1, 4, 0.9);
    const auto &edges = g.outEdges(1);
    ASSERT_EQ(edges.size(), 3u);
    double sum = 0.0;
    for (const SharingEdge &e : edges) {
        EXPECT_TRUE(e.dest == 2 || e.dest == 3 || e.dest == 4);
        sum += e.q;
    }
    EXPECT_DOUBLE_EQ(sum, 1.8);
}

TEST(SharingGraphTest, MergesortAnnotationPattern)
{
    // The paper's example: both children fully contained in the parent.
    SharingGraph g;
    ThreadId parent = 0, left = 1, right = 2;
    g.share(left, parent, 1.0);
    g.share(right, parent, 1.0);
    EXPECT_EQ(g.outDegree(left), 1u);
    EXPECT_EQ(g.outDegree(right), 1u);
    EXPECT_EQ(g.outDegree(parent), 0u);
    EXPECT_DOUBLE_EQ(g.coefficient(left, parent), 1.0);
}

TEST(SharingGraphTest, RemoveThreadDropsBothDirections)
{
    SharingGraph g;
    g.share(1, 2, 0.5); // out of 1
    g.share(3, 1, 0.4); // into 1
    g.share(2, 3, 0.7); // unrelated
    g.removeThread(1);
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 0.0);
    EXPECT_DOUBLE_EQ(g.coefficient(3, 1), 0.0);
    EXPECT_DOUBLE_EQ(g.coefficient(2, 3), 0.7);
}

TEST(SharingGraphTest, RemoveUnknownThreadIsNoop)
{
    SharingGraph g;
    g.share(1, 2, 0.5);
    g.removeThread(42);
    EXPECT_EQ(g.edgeCount(), 1u);
}

TEST(SharingGraphTest, NodeCountTracksIncidentThreads)
{
    SharingGraph g;
    g.share(1, 2, 0.5);
    g.share(2, 3, 0.5);
    EXPECT_EQ(g.nodeCount(), 3u);
    g.removeThread(2);
    // Node 2 is gone; 1 and 3 may remain as (possibly empty) nodes.
    EXPECT_DOUBLE_EQ(g.coefficient(2, 3), 0.0);
}

TEST(SharingGraphTest, ManyThreadsStressAndCleanup)
{
    // A photo-like pattern: 1000 threads annotated with neighbours at
    // distance 1 and 2, then reaped in order.
    SharingGraph g;
    const ThreadId n = 1000;
    for (ThreadId t = 0; t < n; ++t) {
        for (ThreadId d = 1; d <= 2; ++d) {
            if (t + d < n) {
                g.share(t, t + d, d == 1 ? 0.5 : 0.25);
                g.share(t + d, t, d == 1 ? 0.5 : 0.25);
            }
        }
    }
    EXPECT_EQ(g.edgeCount(), 2u * (2 * n - 3));
    for (ThreadId t = 0; t < n; ++t)
        g.removeThread(t);
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(SharingGraphTest, PropertyFuzzAgainstShadowModel)
{
    // Satellite: 10,000 random operations — shares with out-of-range
    // coefficients, self-edges, dangling destinations and interleaved
    // removeThread calls — checked against a trivially correct shadow
    // map. The graph must clamp instead of throwing (setLogThrowMode
    // turns any stray atl_panic/atl_fatal into a test failure) and its
    // aggregate invariants must hold after every batch.
    setLogThrowMode(true);
    SharingGraph g;
    std::map<std::pair<ThreadId, ThreadId>, double> shadow;
    Rng rng(0xf0221);
    constexpr ThreadId kIds = 32;

    auto checkInvariants = [&] {
        EXPECT_EQ(g.edgeCount(), shadow.size());
        for (const auto &[key, q] : shadow) {
            EXPECT_DOUBLE_EQ(g.coefficient(key.first, key.second), q);
            EXPECT_GE(q, 0.0);
            EXPECT_LE(q, 1.0);
        }
        // Per-node consistency: out-degree matches the shadow and
        // every edge weight is in range.
        for (ThreadId t = 0; t < kIds; ++t) {
            size_t shadow_deg = 0;
            for (const auto &[key, q] : shadow)
                if (key.first == t)
                    ++shadow_deg;
            EXPECT_EQ(g.outDegree(t), shadow_deg);
            for (const SharingEdge &e : g.outEdges(t)) {
                EXPECT_GE(e.q, 0.0);
                EXPECT_LE(e.q, 1.0);
                EXPECT_NE(e.dest, t);
            }
        }
    };

    for (unsigned op = 0; op < 10000; ++op) {
        if (rng.chance(0.05)) {
            // Reap a random thread (sometimes one with no edges, and
            // sometimes an id the graph has never seen).
            ThreadId victim = ThreadId(rng.below(kIds + 8));
            g.removeThread(victim);
            for (auto it = shadow.begin(); it != shadow.end();) {
                if (it->first.first == victim ||
                    it->first.second == victim)
                    it = shadow.erase(it);
                else
                    ++it;
            }
        } else {
            ThreadId src = ThreadId(rng.below(kIds));
            // ~10% dangling destinations beyond the live id range.
            ThreadId dst = ThreadId(rng.below(kIds + 3));
            // q spans [-1, 2): roughly a third of samples out of range.
            double q = -1.0 + rng.uniform() * 3.0;
            g.share(src, dst, q);
            if (src == dst)
                continue; // self-arcs ignored
            double clamped = std::clamp(q, 0.0, 1.0);
            if (clamped == 0.0)
                shadow.erase({src, dst});
            else
                shadow[{src, dst}] = clamped;
        }
        if (op % 500 == 0)
            checkInvariants();
    }
    checkInvariants();
    EXPECT_GT(g.clampCount(), 0u);
    setLogThrowMode(false);
}

TEST(SharingGraphTest, NonFiniteCoefficientsAreDroppedNotStored)
{
    SharingGraph g;
    g.share(1, 2, 0.5);
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    for (double q : bad) {
        g.share(1, 2, q);
        g.share(3, 4, q);
    }
    // The existing arc keeps its coefficient; no arc was added.
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 0.5);
    EXPECT_EQ(g.edgeCount(), 1u);
    EXPECT_EQ(g.nonFiniteCount(), 6u);
    EXPECT_EQ(g.clampCount(), 0u);
    g.share(1, 2, 2.0); // finite: clamped, kept
    EXPECT_DOUBLE_EQ(g.coefficient(1, 2), 1.0);
}

} // namespace
} // namespace atl
