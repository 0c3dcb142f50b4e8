/**
 * @file
 * Tests for the coherence line directory: holder-set bookkeeping at
 * one and several bytes per line, and a randomized storm of loads,
 * stores, flushes and invalidations over eight hierarchies that checks,
 * after every operation, that the directory equals the union of the
 * E-caches it describes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atl/mem/hierarchy.hh"
#include "atl/mem/line_directory.hh"
#include "atl/util/rng.hh"

namespace atl
{
namespace
{

std::vector<CpuId>
otherHolders(const LineDirectory &dir, PAddr pa, CpuId self)
{
    std::vector<CpuId> out;
    dir.forEachOtherHolder(pa, self, [&](CpuId c) { out.push_back(c); });
    return out;
}

TEST(LineDirectoryTest, EmptyDirectoryHoldsNothing)
{
    LineDirectory dir(8, 64);
    EXPECT_FALSE(dir.holds(0x1000, 3));
    EXPECT_FALSE(dir.heldByOther(0x1000, 3));
    EXPECT_TRUE(otherHolders(dir, 0x1000, 3).empty());
    dir.remove(0x1000, 3); // never added: a no-op
    dir.keepOnly(0x1000, 3);
    EXPECT_EQ(dir.holderCount(), 0u);
    EXPECT_EQ(dir.bytes(), 0u);
}

TEST(LineDirectoryTest, TracksHoldersPerLineAtOneBytePerLine)
{
    LineDirectory dir(8, 64);
    dir.add(0x1000, 2);
    dir.add(0x1010, 5); // same 64-byte line
    dir.add(0x1040, 7); // next line
    EXPECT_TRUE(dir.holds(0x103f, 2));
    EXPECT_TRUE(dir.holds(0x1000, 5));
    EXPECT_FALSE(dir.holds(0x1000, 7));
    EXPECT_TRUE(dir.heldByOther(0x1000, 2));
    EXPECT_FALSE(dir.heldByOther(0x1040, 7));
    EXPECT_EQ(otherHolders(dir, 0x1000, 0), (std::vector<CpuId>{2, 5}));
    EXPECT_EQ(otherHolders(dir, 0x1000, 5), (std::vector<CpuId>{2}));
    EXPECT_EQ(dir.holderCount(), 3u);

    dir.keepOnly(0x1000, 5);
    EXPECT_FALSE(dir.holds(0x1000, 2));
    EXPECT_TRUE(dir.holds(0x1000, 5));
    dir.remove(0x1000, 5);
    EXPECT_FALSE(dir.heldByOther(0x1000, 0));
    EXPECT_EQ(dir.holderCount(), 1u);
    // One byte per line, allocated a chunk at a time.
    EXPECT_EQ(dir.bytes(), 4096u);
}

TEST(LineDirectoryTest, WideMachinesUseSeveralBytesPerLine)
{
    // 70 processors: ceil(70/8) = 9 holder bytes per line.
    LineDirectory dir(70, 64);
    const PAddr pa = 0x40000;
    for (CpuId c : {0u, 7u, 8u, 63u, 64u, 69u})
        dir.add(pa, c);
    EXPECT_EQ(otherHolders(dir, pa, 8),
              (std::vector<CpuId>{0, 7, 63, 64, 69}));
    EXPECT_TRUE(dir.heldByOther(pa, 69));
    dir.keepOnly(pa, 64);
    EXPECT_EQ(otherHolders(dir, pa, 0), (std::vector<CpuId>{64}));
    EXPECT_FALSE(dir.heldByOther(pa, 64));
    EXPECT_EQ(dir.bytes(), 9u * 4096u);
}

TEST(LineDirectoryTest, SparseLinesAllocateOnlyTheirChunks)
{
    LineDirectory dir(8, 64);
    dir.add(0, 0);
    dir.add(PAddr(1) << 34, 1); // 2^28 lines further on
    EXPECT_EQ(dir.bytes(), 2u * 4096u);
    EXPECT_TRUE(dir.holds(PAddr(1) << 34, 1));
    EXPECT_FALSE(dir.holds(PAddr(1) << 33, 1));
}

TEST(LineDirectoryTest, StormKeepsDirectoryEqualToCacheContents)
{
    constexpr unsigned kCpus = 8;
    constexpr uint64_t kLine = 64;
    // Small two-way E-caches over a pool four times their size, so
    // fills evict victims constantly.
    HierarchyConfig cfg;
    cfg.l1i.sizeBytes = 1024;
    cfg.l1d.sizeBytes = 1024;
    cfg.l2.sizeBytes = 4096;
    cfg.l2.ways = 2;
    constexpr uint64_t kPoolLines = 4 * 4096 / kLine;

    LineDirectory dir(kCpus, kLine);
    std::vector<std::unique_ptr<Hierarchy>> hiers;
    for (CpuId c = 0; c < kCpus; ++c) {
        hiers.push_back(std::make_unique<Hierarchy>(cfg));
        hiers.back()->attachDirectory(&dir, c);
    }

    auto check = [&](uint64_t step) {
        uint64_t resident = 0;
        for (uint64_t l = 0; l < kPoolLines; ++l) {
            PAddr pa = l * kLine;
            for (CpuId c = 0; c < kCpus; ++c) {
                bool cached = hiers[c]->l2Contains(pa);
                resident += cached;
                if (dir.holds(pa, c) != cached) {
                    ADD_FAILURE() << "step " << step << ": line " << l
                                  << " cpu " << c << " directory says "
                                  << dir.holds(pa, c);
                    return false;
                }
            }
        }
        EXPECT_EQ(dir.holderCount(), resident) << "step " << step;
        return true;
    };

    Rng rng(42);
    for (uint64_t step = 0; step < 10000; ++step) {
        CpuId cpu = static_cast<CpuId>(rng.below(kCpus));
        PAddr pa = rng.below(kPoolLines) * kLine + rng.below(kLine);
        uint64_t op = rng.below(100);
        if (op < 55) {
            hiers[cpu]->access(pa, rng.chance(0.2) ? AccessType::IFetch
                                                   : AccessType::Load);
        } else if (op < 90) {
            // A store and the invalidation the machine sends its peers.
            hiers[cpu]->access(pa, AccessType::Store);
            dir.forEachOtherHolder(pa, cpu, [&](CpuId holder) {
                EXPECT_TRUE(hiers[holder]->invalidateLine(pa));
            });
        } else if (op < 98) {
            hiers[cpu]->invalidateLine(pa);
        } else {
            hiers[cpu]->flush();
        }
        if (!check(step))
            break;
    }
}

} // namespace
} // namespace atl
