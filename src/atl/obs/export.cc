#include "atl/obs/export.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace atl
{

namespace
{

/** Bucket index holding the q-quantile of a log2 histogram (the "~2^i"
 *  figure of the human-readable summary). */
size_t
quantileBucket(const Log2Histogram &hist, double q)
{
    if (hist.total() == 0)
        return 0;
    uint64_t target = static_cast<uint64_t>(
        q * static_cast<double>(hist.total()));
    uint64_t seen = 0;
    for (size_t i = 0; i < Log2Histogram::kBuckets; ++i) {
        seen += hist.bucket(i);
        if (seen > target)
            return i;
    }
    return Log2Histogram::kBuckets - 1;
}

} // namespace

void
Log2Histogram::add(uint64_t value)
{
    size_t bucket = 0;
    while (value > 0) {
        ++bucket;
        value >>= 1;
    }
    ++_counts[bucket];
    ++_total;
}

size_t
Log2Histogram::usedBuckets() const
{
    size_t used = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        if (_counts[i] > 0)
            used = i + 1;
    }
    return used;
}

Json
Log2Histogram::json() const
{
    Json out = Json::array();
    size_t used = usedBuckets();
    for (size_t i = 0; i < used; ++i) {
        Json entry = Json::object();
        // Bucket i holds values in [2^(i-1), 2^i), i.e. <= 2^i - 1.
        double le = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i)) - 1.0;
        entry["le"] = Json(le);
        entry["count"] = Json(_counts[i]);
        out.push(std::move(entry));
    }
    return out;
}

TraceSummary
summarizeTrace(const EventLog &log, double residual_floor)
{
    TraceSummary s;
    s.recorded = log.recorded();
    s.retained = log.size();
    s.dropped = log.dropped();
    s.residualFloor = residual_floor;

    double residual_total = 0.0;
    // Open fallback span per processor: index into the timeline, or -1.
    std::vector<long> open;

    for (size_t i = 0; i < log.size(); ++i) {
        const Event &e = log.at(i);
        switch (e.kind) {
          case EventKind::Switch:
            ++s.switches;
            s.switchCostCycles.add(e.n);
            break;
          case EventKind::PicSample:
            ++s.picSamples;
            break;
          case EventKind::IntervalEnd:
            ++s.intervals;
            s.intervalCycles.add(e.time >= e.t0 ? e.time - e.t0 : 0);
            break;
          case EventKind::CounterAnomaly:
            ++s.anomalies;
            break;
          case EventKind::FallbackEnter: {
            ++s.fallbackEnters;
            if (open.size() <= e.cpu)
                open.resize(e.cpu + 1, -1);
            FallbackSpan span;
            span.cpu = e.cpu;
            span.enter = e.time;
            span.confidenceAtEnter = e.value;
            open[e.cpu] = static_cast<long>(s.fallbackTimeline.size());
            s.fallbackTimeline.push_back(span);
            break;
          }
          case EventKind::FallbackLeave:
            ++s.fallbackLeaves;
            if (e.cpu < open.size() && open[e.cpu] >= 0) {
                FallbackSpan &span = s.fallbackTimeline[open[e.cpu]];
                span.leave = e.time;
                span.open = false;
                open[e.cpu] = -1;
            }
            break;
          case EventKind::Fault:
            ++s.faults;
            break;
          case EventKind::Residual:
            ++s.residuals;
            if (e.value < residual_floor) {
                ++s.residualSamplesBelowFloor;
            } else {
                double rel = std::fabs(e.aux - e.value) / e.value;
                residual_total += rel;
                ++s.residualSamplesUsed;
                s.residualError.add(rel);
            }
            break;
          case EventKind::Warning:
            ++s.warnings;
            break;
        }
    }
    if (s.residualSamplesUsed > 0) {
        s.residualMeanAbsRelError =
            residual_total / static_cast<double>(s.residualSamplesUsed);
    }
    return s;
}

void
printTraceSummary(const TraceSummary &s, std::ostream &os,
                  const std::string &title)
{
    os << "==== atl-trace-summary: " << title << "\n";
    os << "  events: " << s.recorded << " recorded, " << s.retained
       << " retained, " << s.dropped << " dropped\n";
    os << "  switches " << s.switches << ", intervals " << s.intervals
       << ", pic samples " << s.picSamples << ", residual samples "
       << s.residuals << "\n";
    os << "  anomalies " << s.anomalies << ", fallback enter/leave "
       << s.fallbackEnters << "/" << s.fallbackLeaves << ", faults "
       << s.faults << ", warnings " << s.warnings << "\n";
    if (s.residualSamplesUsed > 0) {
        os << "  model residual: mean |pred-obs|/obs = "
           << s.residualMeanAbsRelError << " over "
           << s.residualSamplesUsed << " samples ("
           << s.residualSamplesBelowFloor << " below the "
           << s.residualFloor << "-line floor)\n";
    }
    if (s.intervals > 0) {
        os << "  interval length p50 ~2^"
           << (s.intervalCycles.usedBuckets() > 0
                   ? quantileBucket(s.intervalCycles, 0.5)
                   : 0)
           << " cycles, switch cost p50 ~2^"
           << (s.switchCostCycles.usedBuckets() > 0
                   ? quantileBucket(s.switchCostCycles, 0.5)
                   : 0)
           << " cycles\n";
    }
    for (const FallbackSpan &span : s.fallbackTimeline) {
        os << "  fallback cpu" << span.cpu << ": [" << span.enter << ", "
           << (span.open ? std::string("end") : std::to_string(span.leave))
           << ") confidence " << span.confidenceAtEnter << "\n";
    }
}

Json
traceSummaryJson(const TraceSummary &s)
{
    Json out = Json::object();
    Json events = Json::object();
    events["recorded"] = Json(s.recorded);
    events["retained"] = Json(s.retained);
    events["dropped"] = Json(s.dropped);
    out["events"] = std::move(events);

    Json counts = Json::object();
    counts["switches"] = Json(s.switches);
    counts["pic_samples"] = Json(s.picSamples);
    counts["intervals"] = Json(s.intervals);
    counts["anomalies"] = Json(s.anomalies);
    counts["fallback_enters"] = Json(s.fallbackEnters);
    counts["fallback_leaves"] = Json(s.fallbackLeaves);
    counts["faults"] = Json(s.faults);
    counts["residual_samples"] = Json(s.residuals);
    counts["warnings"] = Json(s.warnings);
    out["counts"] = std::move(counts);

    Json residuals = Json::object();
    residuals["mean_abs_rel_error"] = Json(s.residualMeanAbsRelError);
    residuals["floor"] = Json(s.residualFloor);
    residuals["samples_used"] = Json(s.residualSamplesUsed);
    residuals["samples_below_floor"] = Json(s.residualSamplesBelowFloor);
    Json hist = Json::array();
    for (size_t i = 0; i < s.residualError.bins(); ++i) {
        Json bin = Json::object();
        bin["le"] = Json(s.residualError.binLeft(i) + 0.05);
        bin["count"] = Json(s.residualError.binCount(i));
        hist.push(std::move(bin));
    }
    residuals["histogram"] = std::move(hist);
    residuals["histogram_overflow"] = Json(s.residualError.overflow());
    out["residuals"] = std::move(residuals);

    out["interval_cycles"] = s.intervalCycles.json();
    out["switch_cost_cycles"] = s.switchCostCycles.json();

    Json timeline = Json::array();
    for (const FallbackSpan &span : s.fallbackTimeline) {
        Json entry = Json::object();
        entry["cpu"] = Json(static_cast<uint64_t>(span.cpu));
        entry["enter"] = Json(span.enter);
        if (span.open)
            entry["open"] = Json(true);
        else
            entry["leave"] = Json(span.leave);
        entry["confidence_at_enter"] = Json(span.confidenceAtEnter);
        timeline.push(std::move(entry));
    }
    out["fallback_timeline"] = std::move(timeline);
    return out;
}

namespace
{

/** One pending trace_event, sortable by timestamp. */
struct PendingEvent
{
    double ts;
    Json json;
};

Json
baseEvent(const char *name, const char *cat, const char *ph, double ts,
          uint16_t tid)
{
    Json e = Json::object();
    e["name"] = Json(name);
    e["cat"] = Json(cat);
    e["ph"] = Json(ph);
    e["ts"] = Json(ts);
    e["pid"] = Json(static_cast<uint64_t>(0));
    e["tid"] = Json(static_cast<uint64_t>(tid));
    return e;
}

Json
counterEvent(const std::string &name, double ts, const char *key,
             double value)
{
    Json e = Json::object();
    e["name"] = Json(name);
    e["cat"] = Json("counter");
    e["ph"] = Json("C");
    e["ts"] = Json(ts);
    e["pid"] = Json(static_cast<uint64_t>(0));
    Json args = Json::object();
    args[key] = Json(value);
    e["args"] = std::move(args);
    return e;
}

const char *
dispatchSourceName(uint8_t flag)
{
    switch (static_cast<DispatchSource>(flag)) {
      case DispatchSource::None: return "none";
      case DispatchSource::Heap: return "heap";
      case DispatchSource::Global: return "global";
      case DispatchSource::Steal: return "steal";
      case DispatchSource::FairnessBypass: return "fairness_bypass";
    }
    return "?";
}

} // namespace

Json
perfettoTrace(const EventLog &log, const std::string &process_name)
{
    std::vector<PendingEvent> pending;
    pending.reserve(log.size() * 2 + 8);
    std::vector<uint8_t> cpu_seen;

    auto noteCpu = [&](uint16_t cpu) {
        if (cpu == InvalidCpuId16)
            return;
        if (cpu_seen.size() <= cpu)
            cpu_seen.resize(cpu + 1, 0);
        cpu_seen[cpu] = 1;
    };

    for (size_t i = 0; i < log.size(); ++i) {
        const Event &e = log.at(i);
        double ts = static_cast<double>(e.time);
        noteCpu(e.cpu);
        std::string cpu_tag = "cpu" + std::to_string(e.cpu);
        switch (e.kind) {
          case EventKind::Switch: {
            Json j = baseEvent("dispatch", "sched", "i", ts, e.cpu);
            j["s"] = Json("t");
            Json args = Json::object();
            args["tid"] = Json(static_cast<uint64_t>(e.tid));
            args["source"] = Json(dispatchSourceName(e.flag));
            args["switch_cost_cycles"] = Json(e.n);
            args["heap_live"] = Json(e.m);
            args["global_queue"] = Json(e.t0);
            args["expected_footprint"] = Json(e.value);
            args["priority"] = Json(e.aux);
            j["args"] = std::move(args);
            pending.push_back({ts, std::move(j)});
            pending.push_back(
                {ts, counterEvent("E[F] " + cpu_tag, ts, "lines",
                                  e.value)});
            break;
          }
          case EventKind::PicSample: {
            Json j = counterEvent("pic " + cpu_tag, ts, "refs",
                                  static_cast<double>(e.n));
            j["args"]["hits"] = Json(e.m);
            pending.push_back({ts, std::move(j)});
            break;
          }
          case EventKind::IntervalEnd: {
            double start = static_cast<double>(e.t0);
            Json j = Json::object();
            j["name"] = Json("t" + std::to_string(e.tid));
            j["cat"] = Json("interval");
            j["ph"] = Json("X");
            j["ts"] = Json(start);
            j["dur"] = Json(ts >= start ? ts - start : 0.0);
            j["pid"] = Json(static_cast<uint64_t>(0));
            j["tid"] = Json(static_cast<uint64_t>(e.cpu));
            Json args = Json::object();
            args["misses"] = Json(e.n);
            args["instructions"] = Json(e.m);
            args["expected_footprint_after"] = Json(e.value);
            args["confidence"] = Json(e.aux);
            args["switch_reason"] = Json(static_cast<uint64_t>(e.flag));
            j["args"] = std::move(args);
            pending.push_back({start, std::move(j)});
            pending.push_back(
                {ts, counterEvent("misses " + cpu_tag, ts, "misses",
                                  static_cast<double>(e.n))});
            pending.push_back(
                {ts, counterEvent("confidence " + cpu_tag, ts,
                                  "confidence", e.aux)});
            break;
          }
          case EventKind::CounterAnomaly: {
            Json j = baseEvent("counter anomaly", "degradation", "i", ts,
                               e.cpu);
            j["s"] = Json("t");
            Json args = Json::object();
            args["torn"] = Json((e.flag & 1) != 0);
            args["clamped"] = Json((e.flag & 2) != 0);
            args["confidence"] = Json(e.value);
            j["args"] = std::move(args);
            pending.push_back({ts, std::move(j)});
            break;
          }
          case EventKind::FallbackEnter:
          case EventKind::FallbackLeave: {
            bool enter = e.kind == EventKind::FallbackEnter;
            Json j = baseEvent(enter ? "fallback enter" : "fallback leave",
                               "degradation", "i", ts, e.cpu);
            j["s"] = Json("t");
            Json args = Json::object();
            args["confidence"] = Json(e.value);
            j["args"] = std::move(args);
            pending.push_back({ts, std::move(j)});
            pending.push_back(
                {ts, counterEvent("confidence " + cpu_tag, ts,
                                  "confidence", e.value)});
            break;
          }
          case EventKind::Fault: {
            Json j = baseEvent("fault", "fault", "i", ts, e.cpu);
            j["s"] = Json(e.cpu == InvalidCpuId16 ? "g" : "t");
            Json args = Json::object();
            args["surface"] =
                Json(e.flag == static_cast<uint8_t>(FaultSurface::Share)
                         ? "share"
                         : "snapshot");
            args["injector_total"] = Json(e.n);
            j["args"] = std::move(args);
            pending.push_back({ts, std::move(j)});
            break;
          }
          case EventKind::Residual: {
            std::string track = "footprint t" + std::to_string(e.tid);
            Json j = counterEvent(track, ts, "observed", e.value);
            j["args"]["predicted"] = Json(e.aux);
            pending.push_back({ts, std::move(j)});
            break;
          }
          case EventKind::Warning: {
            Json j = baseEvent("warning", "log", "i", ts,
                               InvalidCpuId16);
            j["s"] = Json("g");
            Json args = Json::object();
            args["message"] = Json(log.string(e.t0));
            j["args"] = std::move(args);
            pending.push_back({ts, std::move(j)});
            break;
          }
        }
    }

    // Emit sorted by timestamp (stable: same-ts events keep log order),
    // so ts is monotonic per track and viewers need no pre-sort pass.
    std::stable_sort(pending.begin(), pending.end(),
                     [](const PendingEvent &a, const PendingEvent &b) {
                         return a.ts < b.ts;
                     });

    Json trace_events = Json::array();
    // Track metadata first: process name and one named track per cpu,
    // plus the global "events" track warnings land on.
    {
        Json p = baseEvent("process_name", "__metadata", "M", 0.0, 0);
        Json args = Json::object();
        args["name"] = Json(process_name);
        p["args"] = std::move(args);
        trace_events.push(std::move(p));
    }
    {
        Json p =
            baseEvent("process_sort_index", "__metadata", "M", 0.0, 0);
        Json args = Json::object();
        args["sort_index"] = Json(static_cast<uint64_t>(0));
        p["args"] = std::move(args);
        trace_events.push(std::move(p));
    }
    // thread_sort_index pins tracks to numeric cpu order (the viewer
    // otherwise sorts names lexically: cpu10 before cpu2), with the
    // catch-all "events" track after every cpu.
    auto sortIndexEvent = [&](uint16_t tid, uint64_t index) {
        Json t = baseEvent("thread_sort_index", "__metadata", "M", 0.0,
                           tid);
        Json args = Json::object();
        args["sort_index"] = Json(index);
        t["args"] = std::move(args);
        trace_events.push(std::move(t));
    };
    for (size_t c = 0; c < cpu_seen.size(); ++c) {
        if (!cpu_seen[c])
            continue;
        Json t = baseEvent("thread_name", "__metadata", "M", 0.0,
                           static_cast<uint16_t>(c));
        Json args = Json::object();
        args["name"] = Json("cpu" + std::to_string(c));
        t["args"] = std::move(args);
        trace_events.push(std::move(t));
        sortIndexEvent(static_cast<uint16_t>(c), c);
    }
    {
        Json t = baseEvent("thread_name", "__metadata", "M", 0.0,
                           InvalidCpuId16);
        Json args = Json::object();
        args["name"] = Json("events");
        t["args"] = std::move(args);
        trace_events.push(std::move(t));
        sortIndexEvent(InvalidCpuId16, cpu_seen.size());
    }
    for (PendingEvent &p : pending)
        trace_events.push(std::move(p.json));

    Json doc = Json::object();
    doc["traceEvents"] = std::move(trace_events);
    doc["displayTimeUnit"] = Json("ns");
    Json meta = Json::object();
    meta["events_recorded"] = Json(log.recorded());
    meta["events_dropped"] = Json(log.dropped());
    doc["metadata"] = std::move(meta);
    return doc;
}

} // namespace atl
