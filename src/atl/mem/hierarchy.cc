#include "atl/mem/hierarchy.hh"

#include "atl/util/logging.hh"

namespace atl
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : _l1i(config.l1i), _l1d(config.l1d), _l2(config.l2)
{
    atl_assert(_l2.lineBytes() >= _l1d.lineBytes(),
               "E-cache lines must not be smaller than L1 lines");
    atl_assert(_l2.lineBytes() >= _l1i.lineBytes(),
               "E-cache lines must not be smaller than L1 lines");
}

bool
Hierarchy::invalidateLine(PAddr pa)
{
    bool present = _l2.invalidate(pa);
    if (present) {
        invalidateL1Range(_l2.lineAlign(pa));
        if (_dir)
            _dir->remove(pa, _cpuId);
        notifyEvict(_l2.lineAlign(pa));
    }
    return present;
}

void
Hierarchy::flush()
{
    if (_observer || _dir) {
        _l2.forEachResident([this](PAddr line) {
            if (_dir)
                _dir->remove(line, _cpuId);
            if (_observer)
                _observer->onL2Evict(_cpuId, line);
        });
    }
    _l1i.flush();
    _l1d.flush();
    _l2.flush();
}

void
Hierarchy::resetStats()
{
    _l1i.resetStats();
    _l1d.resetStats();
    _l2.resetStats();
}

void
Hierarchy::notifyEvict(PAddr line_addr)
{
    if (_observer)
        _observer->onL2Evict(_cpuId, line_addr);
}

} // namespace atl
