#include "atl/obs/event_log.hh"

#include "atl/util/logging.hh"

namespace atl
{

namespace
{

/** Cap on distinct interned warning strings; beyond it messages fold
 *  into the overflow slot so a warning storm cannot grow the log. */
constexpr size_t kMaxStrings = 256;

/** Active deferral buffer for this OS thread (see EventLog::deferTo). */
thread_local EventLog::Deferral *activeDeferral = nullptr;

} // namespace

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Switch: return "switch";
      case EventKind::PicSample: return "pic_sample";
      case EventKind::IntervalEnd: return "interval_end";
      case EventKind::CounterAnomaly: return "counter_anomaly";
      case EventKind::FallbackEnter: return "fallback_enter";
      case EventKind::FallbackLeave: return "fallback_leave";
      case EventKind::Fault: return "fault";
      case EventKind::Residual: return "residual";
      case EventKind::Warning: return "warning";
    }
    return "?";
}

EventLog::EventLog(const TelemetryConfig &config) : _config(config)
{
    atl_assert(config.capacity >= 1, "event log needs capacity >= 1");
    _events.reserve(config.capacity);
    _strings.emplace_back("<message table full>");
}

void
EventLog::deferTo(Deferral *d)
{
    activeDeferral = d;
}

void
EventLog::drain(Deferral &d)
{
    atl_assert(activeDeferral == nullptr,
               "drain with deferral still active would self-feed");
    for (const Event &event : d.events)
        record(event);
    for (const auto &[time, message] : d.warnings)
        recordWarning(time, message);
    d.clear();
}

void
EventLog::record(const Event &event)
{
    if (Deferral *d = activeDeferral) {
        d->events.push_back(event);
        return;
    }
    ++_recorded;
    if (_events.size() < _config.capacity) {
        _events.push_back(event);
        return;
    }
    _events[_head] = event;
    _head = (_head + 1) % _events.size();
}

void
EventLog::recordWarning(Cycles time, std::string_view message)
{
    if (Deferral *d = activeDeferral) {
        d->warnings.emplace_back(time, std::string(message));
        return;
    }
    ++_warnings;
    uint64_t index = 0;
    for (size_t i = 1; i < _strings.size(); ++i) {
        if (_strings[i] == message) {
            index = i;
            break;
        }
    }
    if (index == 0 && _strings.size() < kMaxStrings) {
        index = _strings.size();
        _strings.emplace_back(message);
    }
    Event event;
    event.kind = EventKind::Warning;
    event.cpu = InvalidCpuId16;
    event.time = time;
    event.t0 = index;
    event.n = _warnings;
    record(event);
}

std::vector<Event>
EventLog::events() const
{
    std::vector<Event> out;
    out.reserve(_events.size());
    for (size_t i = 0; i < _events.size(); ++i)
        out.push_back(at(i));
    return out;
}

const std::string &
EventLog::string(uint64_t index) const
{
    if (index >= _strings.size())
        return _strings[0];
    return _strings[index];
}

void
EventLog::clear()
{
    _events.clear();
    _head = 0;
    _recorded = 0;
    _warnings = 0;
    _strings.clear();
    _strings.emplace_back("<message table full>");
}

} // namespace atl
