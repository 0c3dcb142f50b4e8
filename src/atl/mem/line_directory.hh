/**
 * @file
 * The coherence line directory: for every physical E-cache line, the
 * set of processors whose E-cache holds it.
 *
 * The machine asks two questions of it. On an E-miss, "does a peer hold
 * this line?" selects the clean (50-cycle) or dirty-remote (80-cycle)
 * miss cost of the Enterprise 5000. On a store, "which peers hold this
 * line?" names the caches an invalidation must visit. Without a
 * directory both questions probe every peer's E-cache.
 *
 * Storage is one holder bit per processor, ceil(P/8) bytes per line, so
 * the paper's 8-CPU platform costs one byte per line. Lines are grouped
 * in fixed chunks that are allocated, zeroed, on the first fill inside
 * them and never moved: memory follows the physical lines actually
 * cached (dense for bump-allocated frames, sparse under random
 * placement), and growth never copies the directory.
 */

#ifndef ATL_MEM_LINE_DIRECTORY_HH
#define ATL_MEM_LINE_DIRECTORY_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "atl/mem/address.hh"
#include "atl/util/logging.hh"

namespace atl
{

class LineDirectory
{
  public:
    /**
     * @param num_cpus processors tracked (any count)
     * @param line_bytes E-cache line size (a power of two)
     */
    LineDirectory(unsigned num_cpus, uint64_t line_bytes)
        : _stride((num_cpus + 7) / 8)
    {
        atl_assert(num_cpus >= 1, "line directory needs a processor");
        atl_assert(isPowerOf2(line_bytes),
                   "line size must be a power of two");
        _lineShift = log2Exact(line_bytes);
    }

    /** The line holding pa entered cpu's E-cache. */
    void
    add(PAddr pa, CpuId cpu)
    {
        uint64_t line = pa >> _lineShift;
        uint64_t chunk = line >> kChunkShift;
        if (chunk >= _chunks.size())
            _chunks.resize(chunk + 1);
        if (!_chunks[chunk]) {
            _chunks[chunk] =
                std::make_unique<uint8_t[]>(_stride << kChunkShift);
        }
        uint8_t *h = &_chunks[chunk][(line & kChunkMask) * _stride];
        h[cpu / 8] |= bitOf(cpu);
    }

    /** The line holding pa left cpu's E-cache. */
    void
    remove(PAddr pa, CpuId cpu)
    {
        if (uint8_t *h = holders(pa))
            h[cpu / 8] &= static_cast<uint8_t>(~bitOf(cpu));
    }

    /** Drop every holder of the line except cpu. */
    void
    keepOnly(PAddr pa, CpuId cpu)
    {
        uint8_t *h = holders(pa);
        if (!h)
            return;
        for (unsigned b = 0; b < _stride; ++b)
            h[b] &= b == cpu / 8 ? bitOf(cpu) : 0;
    }

    /** True when cpu's E-cache holds the line. */
    bool
    holds(PAddr pa, CpuId cpu) const
    {
        const uint8_t *h = holders(pa);
        return h && (h[cpu / 8] & bitOf(cpu)) != 0;
    }

    /** True when any processor other than self holds the line. */
    bool
    heldByOther(PAddr pa, CpuId self) const
    {
        const uint8_t *h = holders(pa);
        if (!h)
            return false;
        for (unsigned b = 0; b < _stride; ++b) {
            uint8_t peers = h[b];
            if (b == self / 8)
                peers &= static_cast<uint8_t>(~bitOf(self));
            if (peers)
                return true;
        }
        return false;
    }

    /**
     * Call f(cpu) for every holder other than self, in ascending
     * processor order. Each byte of the holder set is read before its
     * callbacks run, so f may remove the holder it is given.
     */
    template <typename F>
    void
    forEachOtherHolder(PAddr pa, CpuId self, F f) const
    {
        const uint8_t *h = holders(pa);
        if (!h)
            return;
        for (unsigned b = 0; b < _stride; ++b) {
            unsigned peers = h[b];
            if (b == self / 8)
                peers &= ~unsigned(bitOf(self));
            while (peers) {
                f(static_cast<CpuId>(b * 8 + std::countr_zero(peers)));
                peers &= peers - 1;
            }
        }
    }

    /** Holder bits set over all lines (a consistency check: it equals
     *  the number of resident E-cache lines summed over processors). */
    uint64_t
    holderCount() const
    {
        uint64_t n = 0;
        for (const auto &chunk : _chunks) {
            if (!chunk)
                continue;
            for (size_t i = 0; i < (_stride << kChunkShift); ++i)
                n += static_cast<uint64_t>(std::popcount(chunk[i]));
        }
        return n;
    }

    /** Bytes of holder storage currently allocated. */
    size_t
    bytes() const
    {
        size_t n = 0;
        for (const auto &chunk : _chunks)
            n += chunk ? _stride << kChunkShift : 0;
        return n;
    }

  private:
    /** log2 of the lines per chunk: 4096, one 4 KB page at P <= 8. */
    static constexpr unsigned kChunkShift = 12;
    static constexpr uint64_t kChunkMask = (uint64_t(1) << kChunkShift) - 1;

    /** First holder byte of the line holding pa; null when no line of
     *  its chunk was ever added. */
    uint8_t *
    holders(PAddr pa) const
    {
        uint64_t line = pa >> _lineShift;
        uint64_t chunk = line >> kChunkShift;
        if (chunk >= _chunks.size() || !_chunks[chunk])
            return nullptr;
        return &_chunks[chunk][(line & kChunkMask) * _stride];
    }

    static uint8_t
    bitOf(CpuId cpu)
    {
        return static_cast<uint8_t>(1u << (cpu % 8));
    }

    /** Holder bytes per line: ceil(P/8). */
    unsigned _stride;
    /** log2 of the line size. */
    unsigned _lineShift = 0;
    /** Holder bits, `_stride` bytes per line, in lazily made chunks. */
    std::vector<std::unique_ptr<uint8_t[]>> _chunks;
};

} // namespace atl

#endif // ATL_MEM_LINE_DIRECTORY_HH
