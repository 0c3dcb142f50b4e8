#include "atl/model/priority.hh"

#include <ostream>

#include "atl/util/logging.hh"

namespace atl
{

const char *
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::FCFS: return "FCFS";
      case PolicyKind::LFF: return "LFF";
      case PolicyKind::CRT: return "CRT";
    }
    return "?";
}

void
PrintTo(PolicyKind kind, std::ostream *os)
{
    *os << policyName(kind);
}

PriorityScheme::PriorityScheme(PolicyKind kind, const FootprintModel &model)
    : _kind(kind), _model(model)
{
    atl_assert(kind != PolicyKind::FCFS,
               "FCFS does not use a priority scheme");
}

void
PriorityScheme::initialise(FootprintRecord &rec, uint64_t m_now) const
{
    rec.s = 0.0;
    rec.mSnap = m_now;
    rec.logF0 = 0.0;
    // log of an empty footprint clamps to log(1) = 0 in both schemes.
    rec.priority = -(static_cast<double>(m_now) * _model.logK());
}

void
PriorityScheme::beginSwitch(uint64_t m_now)
{
    _mNow = m_now;
    // The -m(t) log k term is shared by every update in this switch:
    // computed once (1 mul), reused for free afterwards.
    _mLogK = static_cast<double>(m_now) * _model.logK();
    _ops.charge(1);
}

void
PriorityScheme::updateBlocking(FootprintRecord &rec, uint64_t n)
{
    atl_assert(_mNow >= n, "interval longer than processor history");

    // Collapse any lazy decay between the record's snapshot and the
    // start of this scheduling interval. For the thread that just ran
    // this is a no-op: materialise() pinned the record at dispatch. A
    // record *newer* than the interval start belongs to a thread
    // created mid-interval: only the misses since its birth affect it.
    uint64_t m_t0 = _mNow - n;
    if (rec.mSnap > m_t0) {
        n = _mNow - rec.mSnap;
    } else if (rec.mSnap < m_t0) {
        rec.s *= _model.kPow(m_t0 - rec.mSnap);
        _ops.charge(1);
    }

    // E[F_A] = N - (N - S) k^n : sub, mul, sub.
    double n_lines = _model.N();
    rec.s = n_lines - (n_lines - rec.s) * _model.kPow(n);
    _ops.charge(3);
    rec.mSnap = _mNow;

    if (_kind == PolicyKind::LFF) {
        // p = log E[F] - m log k : one subtraction (log is a lookup).
        rec.priority = _model.logF(rec.s) - _mLogK;
        _ops.charge(1);
    } else {
        // CRT: the thread just ran, so E[F_last_run] := E[F] and the two
        // log terms cancel: p = -m log k. Remember log E[F_last_run] for
        // later dependent updates.
        rec.logF0 = _model.logF(rec.s);
        rec.priority = 0.0 - _mLogK;
        _ops.charge(1);
    }
}

void
PriorityScheme::holdBlocking(FootprintRecord &rec)
{
    // The quiet-phase misses replaced the thread's own lines with its
    // own lines: footprint unchanged, snapshot moved to now.
    rec.mSnap = _mNow;
    if (_kind == PolicyKind::LFF) {
        rec.priority = _model.logF(rec.s) - _mLogK;
        _ops.charge(1);
    } else {
        rec.logF0 = _model.logF(rec.s);
        rec.priority = 0.0 - _mLogK;
        _ops.charge(1);
    }
}

void
PriorityScheme::updateDependent(FootprintRecord &rec, double q, uint64_t n)
{
    atl_assert(_mNow >= n, "interval longer than processor history");

    // A record newer than the interval start belongs to a dependent
    // *created during* the interval by the blocking thread itself
    // (records are only ever initialised on a processor its creator is
    // occupying). Its state was empty at creation and everything the
    // creator fetched for it during the whole interval counts, so the
    // record rewinds to the interval start with its (empty) footprint
    // unchanged.
    uint64_t m_t0 = _mNow - n;
    if (rec.mSnap > m_t0) {
        rec.mSnap = m_t0;
    } else if (rec.mSnap < m_t0) {
        rec.s *= _model.kPow(m_t0 - rec.mSnap);
        _ops.charge(1);
    }

    // E[F_C] = qN - (qN - S) k^n : mul, sub, mul, sub.
    double qn = q * _model.N();
    rec.s = qn - (qn - rec.s) * _model.kPow(n);
    _ops.charge(4);
    rec.mSnap = _mNow;

    if (_kind == PolicyKind::LFF) {
        rec.priority = _model.logF(rec.s) - _mLogK;
        _ops.charge(1);
    } else {
        // p = log E[F] - log E[F_last_run] - m log k : two subtractions.
        rec.priority = _model.logF(rec.s) - rec.logF0 - _mLogK;
        _ops.charge(2);
    }
}

void
PriorityScheme::materialise(FootprintRecord &rec, uint64_t m_now)
{
    atl_assert(rec.mSnap <= m_now, "record from the future");
    if (rec.mSnap < m_now) {
        rec.s *= _model.kPow(m_now - rec.mSnap);
        _ops.charge(1);
        rec.mSnap = m_now;
    }
}

double
PriorityScheme::expectedFootprint(const FootprintRecord &rec,
                                  uint64_t m_now) const
{
    return _model.decayed(rec.s, rec.mSnap, m_now);
}

} // namespace atl
