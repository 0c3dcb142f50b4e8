#include "atl/model/footprint_model.hh"

#include <algorithm>
#include <cmath>

#include "atl/util/logging.hh"

namespace atl
{

PowTable::PowTable(double k, uint64_t max_n) : _k(k)
{
    atl_assert(k > 0.0 && k < 1.0, "PowTable base must be in (0,1)");
    _table.resize(max_n + 1);
    // Fill by repeated multiplication; renormalize periodically against
    // std::pow to stop error accumulation over very long tables.
    _table[0] = 1.0;
    for (uint64_t n = 1; n <= max_n; ++n) {
        if ((n & 0xfff) == 0)
            _table[n] = std::pow(k, static_cast<double>(n));
        else
            _table[n] = _table[n - 1] * k;
    }
}

LogTable::LogTable(uint64_t max_f)
{
    atl_assert(max_f >= 1, "LogTable needs a positive range");
    _table.resize(max_f + 1);
    _table[0] = 0.0; // unused: arguments below 1 clamp to log(1) = 0
    for (uint64_t f = 1; f <= max_f; ++f)
        _table[f] = std::log(static_cast<double>(f));
}

double
LogTable::log(double f) const
{
    // A NaN would pass both range tests and reach the index cast below.
    atl_assert(std::isfinite(f), "log table argument ", f, " not finite");
    if (f <= 1.0)
        return 0.0;
    double max = static_cast<double>(maxF());
    if (f >= max)
        return _table.back();
    uint64_t lo = static_cast<uint64_t>(f);
    double frac = f - static_cast<double>(lo);
    return _table[lo] + frac * (_table[lo + 1] - _table[lo]);
}

FootprintModel::FootprintModel(uint64_t n_lines, uint64_t max_pow)
    : _n(static_cast<double>(n_lines)),
      _logK(std::log((_n - 1.0) / _n)),
      _pow((_n - 1.0) / _n, max_pow),
      _log(n_lines)
{
    atl_assert(n_lines >= 2, "the model needs at least two cache lines");
}

double
FootprintModel::blocking(double s, uint64_t n) const
{
    return _n - (_n - s) * _pow.pow(n);
}

double
FootprintModel::independent(double s, uint64_t n) const
{
    return s * _pow.pow(n);
}

double
FootprintModel::dependent(double q, double s, uint64_t n) const
{
    double qn = q * _n;
    return qn - (qn - s) * _pow.pow(n);
}

double
FootprintModel::decayed(double s, uint64_t m_snap, uint64_t m_now) const
{
    atl_assert(m_now >= m_snap, "time runs forward");
    return independent(s, m_now - m_snap);
}

AssociativeFootprintModel::AssociativeFootprintModel(uint64_t n_lines,
                                                     unsigned ways,
                                                     uint64_t max_pow)
    : _n(static_cast<double>(n_lines)),
      // A sleeping thread's lines age toward LRU, so within a selected
      // set they are roughly 2W/(W+1) times more likely than uniform to
      // be the victim. At W=1 this reduces exactly to the direct-mapped
      // base (N-1)/N.
      _pow(1.0 - (2.0 * ways / (ways + 1.0)) / static_cast<double>(n_lines),
           max_pow)
{
    atl_assert(ways >= 1, "associativity must be at least 1");
    atl_assert(n_lines > 2 * ways, "cache too small for this model");
}

double
AssociativeFootprintModel::independent(double s, uint64_t n) const
{
    return s * _pow.pow(n);
}

double
AssociativeFootprintModel::blocking(double s, uint64_t n) const
{
    return std::min(_n, _n - (_n - s) * _pow.pow(n));
}

double
AssociativeFootprintModel::dependent(double q, double s, uint64_t n) const
{
    double qn = q * _n;
    double e = qn - (qn - s) * _pow.pow(n);
    return std::clamp(e, 0.0, _n);
}

} // namespace atl
