#include "atl/obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include <time.h>

#include "atl/util/logging.hh"

namespace atl
{

namespace
{

/** a + b, saturating at UINT64_MAX instead of wrapping. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    uint64_t r = a + b;
    return r < a ? UINT64_MAX : r;
}

/** Inclusive upper bound of log2 bucket i: 2^i - 1 (UINT64_MAX for
 *  bucket 64), matching Log2Histogram's json() convention. */
uint64_t
bucketUpperBound(size_t i)
{
    return i >= 64 ? UINT64_MAX : (uint64_t(1) << i) - 1;
}

} // namespace

void
MetricHistogram::observe(uint64_t value)
{
    size_t bucket = std::bit_width(value);
    counts[bucket] = satAdd(counts[bucket], 1);
    total = satAdd(total, 1);
    sum = satAdd(sum, value);
}

void
MetricHistogram::merge(const MetricHistogram &other)
{
    for (size_t i = 0; i < kBuckets; ++i)
        counts[i] = satAdd(counts[i], other.counts[i]);
    total = satAdd(total, other.total);
    sum = satAdd(sum, other.sum);
}

uint64_t
MetricHistogram::quantileUpperBound(double q) const
{
    if (total == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Smallest bucket whose cumulative count reaches q * total. The
    // ceiling keeps q = 0 on the first non-empty bucket.
    uint64_t need = static_cast<uint64_t>(q * static_cast<double>(total));
    if (need == 0)
        need = 1;
    if (need > total)
        need = total;
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
        seen = satAdd(seen, counts[i]);
        if (seen >= need)
            return bucketUpperBound(i);
    }
    return bucketUpperBound(kBuckets - 1);
}

Json
MetricHistogram::json() const
{
    size_t used = kBuckets;
    while (used > 0 && counts[used - 1] == 0)
        --used;
    Json buckets = Json::array();
    for (size_t i = 0; i < used; ++i) {
        Json entry = Json::object();
        entry["le"] = Json(bucketUpperBound(i));
        entry["count"] = Json(counts[i]);
        buckets.push(std::move(entry));
    }
    Json doc = Json::object();
    doc["total"] = Json(total);
    doc["sum"] = Json(sum);
    doc["buckets"] = std::move(buckets);
    return doc;
}

bool
MetricHistogram::fromJson(const Json &doc)
{
    *this = MetricHistogram{};
    if (!doc.isObject() || !doc.at("total").isNumber() ||
        !doc.at("sum").isNumber() || !doc.at("buckets").isArray()) {
        return false;
    }
    const std::vector<Json> &buckets = doc.at("buckets").items();
    if (buckets.size() > kBuckets)
        return false;
    for (size_t i = 0; i < buckets.size(); ++i) {
        const Json &entry = buckets[i];
        if (!entry.isObject() || !entry.at("count").isNumber()) {
            *this = MetricHistogram{};
            return false;
        }
        counts[i] = entry.at("count").asUint();
    }
    total = doc.at("total").asUint();
    sum = doc.at("sum").asUint();
    return true;
}

bool
MetricHistogram::operator==(const MetricHistogram &other) const
{
    return total == other.total && sum == other.sum &&
           std::memcmp(counts, other.counts, sizeof(counts)) == 0;
}

MetricsRegistry::MetricsRegistry(unsigned shards)
{
    ensureShards(shards < 1 ? 1 : shards);
}

MetricsRegistry::Id
MetricsRegistry::intern(std::vector<std::string> &names,
                        const std::string &name)
{
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return static_cast<Id>(i);
    }
    names.push_back(name);
    return static_cast<Id>(names.size() - 1);
}

void
MetricsRegistry::sizeShards()
{
    for (std::unique_ptr<Shard> &shard : _shards) {
        shard->counters.resize(_counterNames.size(), 0);
        shard->gauges.resize(_gaugeNames.size());
        shard->histograms.resize(_histogramNames.size());
    }
}

MetricsRegistry::Id
MetricsRegistry::counter(const std::string &name)
{
    Id id = intern(_counterNames, name);
    sizeShards();
    return id;
}

MetricsRegistry::Id
MetricsRegistry::gauge(const std::string &name)
{
    Id id = intern(_gaugeNames, name);
    sizeShards();
    return id;
}

MetricsRegistry::Id
MetricsRegistry::histogram(const std::string &name)
{
    Id id = intern(_histogramNames, name);
    sizeShards();
    return id;
}

void
MetricsRegistry::ensureShards(unsigned shards)
{
    while (_shards.size() < shards)
        _shards.push_back(std::make_unique<Shard>());
    sizeShards();
}

void
MetricsRegistry::add(Id id, uint64_t delta, unsigned shard)
{
    assert(shard < _shards.size() && id < _counterNames.size());
    _shards[shard]->counters[id] += delta;
}

void
MetricsRegistry::observe(Id id, uint64_t value, unsigned shard)
{
    assert(shard < _shards.size() && id < _histogramNames.size());
    _shards[shard]->histograms[id].observe(value);
}

void
MetricsRegistry::set(Id id, double value, unsigned shard)
{
    assert(shard < _shards.size() && id < _gaugeNames.size());
    GaugeSlot &slot = _shards[shard]->gauges[id];
    slot.updates = satAdd(slot.updates, 1);
    slot.value = value;
}

uint64_t
MetricsRegistry::counterTotal(const std::string &name) const
{
    for (size_t i = 0; i < _counterNames.size(); ++i) {
        if (_counterNames[i] != name)
            continue;
        uint64_t sum = 0;
        for (const std::unique_ptr<Shard> &shard : _shards)
            sum = satAdd(sum, shard->counters[i]);
        return sum;
    }
    return 0;
}

MetricHistogram
MetricsRegistry::histogramTotal(const std::string &name) const
{
    MetricHistogram merged;
    for (size_t i = 0; i < _histogramNames.size(); ++i) {
        if (_histogramNames[i] != name)
            continue;
        for (const std::unique_ptr<Shard> &shard : _shards)
            merged.merge(shard->histograms[i]);
        break;
    }
    return merged;
}

bool
MetricsRegistry::gaugeFinal(const std::string &name, double &value,
                            uint64_t &updates) const
{
    for (size_t i = 0; i < _gaugeNames.size(); ++i) {
        if (_gaugeNames[i] != name)
            continue;
        GaugeSlot best;
        for (const std::unique_ptr<Shard> &shard : _shards) {
            const GaugeSlot &slot = shard->gauges[i];
            if (slot.updates > best.updates ||
                (slot.updates == best.updates &&
                 slot.value > best.value)) {
                best = slot;
            }
        }
        if (best.updates == 0)
            return false;
        value = best.value;
        updates = best.updates;
        return true;
    }
    return false;
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    Shard &mine = *_shards[0];
    for (size_t i = 0; i < other._counterNames.size(); ++i) {
        Id id = counter(other._counterNames[i]);
        uint64_t sum = 0;
        for (const std::unique_ptr<Shard> &shard : other._shards)
            sum = satAdd(sum, shard->counters[i]);
        mine.counters[id] = satAdd(mine.counters[id], sum);
    }
    for (size_t i = 0; i < other._gaugeNames.size(); ++i) {
        Id id = gauge(other._gaugeNames[i]);
        // Lexicographic max on (updates, value): the gauge semilattice.
        GaugeSlot best = mine.gauges[id];
        for (const std::unique_ptr<Shard> &shard : other._shards) {
            const GaugeSlot &slot = shard->gauges[i];
            if (slot.updates > best.updates ||
                (slot.updates == best.updates &&
                 slot.value > best.value)) {
                best = slot;
            }
        }
        mine.gauges[id] = best;
    }
    for (size_t i = 0; i < other._histogramNames.size(); ++i) {
        Id id = histogram(other._histogramNames[i]);
        for (const std::unique_ptr<Shard> &shard : other._shards)
            mine.histograms[id].merge(shard->histograms[i]);
    }
}

Json
MetricsRegistry::json() const
{
    // Json objects are std::map-backed, so member order is sorted by
    // name regardless of registration order — the canonical form.
    Json counters = Json::object();
    for (const std::string &name : _counterNames)
        counters[name] = Json(counterTotal(name));
    Json gauges = Json::object();
    for (const std::string &name : _gaugeNames) {
        double value = 0.0;
        uint64_t updates = 0;
        gaugeFinal(name, value, updates);
        Json slot = Json::object();
        slot["updates"] = Json(updates);
        slot["value"] = Json(value);
        gauges[name] = std::move(slot);
    }
    Json histograms = Json::object();
    for (const std::string &name : _histogramNames)
        histograms[name] = histogramTotal(name).json();
    Json doc = Json::object();
    doc["counters"] = std::move(counters);
    doc["gauges"] = std::move(gauges);
    doc["histograms"] = std::move(histograms);
    return doc;
}

void
MetricsRegistry::reset()
{
    for (std::unique_ptr<Shard> &shard : _shards) {
        std::fill(shard->counters.begin(), shard->counters.end(), 0);
        std::fill(shard->gauges.begin(), shard->gauges.end(),
                  GaugeSlot{});
        std::fill(shard->histograms.begin(), shard->histograms.end(),
                  MetricHistogram{});
    }
}

const char *
hostPhaseName(HostPhase phase)
{
    switch (phase) {
    case HostPhase::Translate:
        return "translate";
    case HostPhase::Access:
        return "access";
    case HostPhase::Trace:
        return "trace";
    case HostPhase::Schedule:
        return "schedule";
    case HostPhase::Commit:
        return "commit";
    }
    return "?";
}

namespace
{

bool
profEnvEnabled()
{
    const char *env = std::getenv("ATL_PROF");
    return env && *env && std::strcmp(env, "0") != 0;
}

void
profAtExit()
{
    if (!PhaseProfiler::enabled())
        return;
    PhaseProfiler::instance().report(std::cerr);
}

thread_local PhaseProfiler::Slot *t_slot = nullptr;

} // namespace

std::atomic<bool> PhaseProfiler::s_enabled{profEnvEnabled()};

PhaseProfiler::PhaseProfiler()
{
    // Registered once, when the singleton first materialises (first
    // record/report); prints nothing unless the profiler is enabled
    // at exit.
    std::atexit(profAtExit);
}

PhaseProfiler &
PhaseProfiler::instance()
{
    // Deliberately immortal: the atexit report (registered in the
    // constructor) runs *after* function-local statics are destroyed,
    // so a destructible singleton would hand it freed slots. One
    // heap allocation, never reclaimed, reclaimed by process death.
    static PhaseProfiler *profiler = new PhaseProfiler();
    return *profiler;
}

void
PhaseProfiler::setEnabled(bool on)
{
    instance(); // make sure the atexit report is registered
    s_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
PhaseProfiler::now()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_ia32_rdtsc();
#else
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
#endif
}

PhaseProfiler::Slot *
PhaseProfiler::threadSlot()
{
    if (t_slot == nullptr) {
        std::lock_guard<std::mutex> lock(_mutex);
        _slots.push_back(std::make_unique<Slot>());
        t_slot = _slots.back().get();
    }
    return t_slot;
}

void
PhaseProfiler::record(HostPhase phase, uint64_t cycles)
{
    Slot *slot = instance().threadSlot();
    size_t i = static_cast<size_t>(phase);
    // Single writer per slot: load+store instead of fetch_add keeps
    // the hot path free of lock-prefixed instructions while staying
    // race-free for the reporter's relaxed reads.
    slot->cycles[i].store(
        slot->cycles[i].load(std::memory_order_relaxed) + cycles,
        std::memory_order_relaxed);
    slot->calls[i].store(
        slot->calls[i].load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
}

void
PhaseProfiler::reset()
{
    std::lock_guard<std::mutex> lock(_mutex);
    for (std::unique_ptr<Slot> &slot : _slots) {
        for (size_t i = 0; i < kHostPhaseCount; ++i) {
            slot->cycles[i].store(0, std::memory_order_relaxed);
            slot->calls[i].store(0, std::memory_order_relaxed);
        }
    }
}

Json
PhaseProfiler::json() const
{
    uint64_t cycles[kHostPhaseCount] = {};
    uint64_t calls[kHostPhaseCount] = {};
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (const std::unique_ptr<Slot> &slot : _slots) {
            for (size_t i = 0; i < kHostPhaseCount; ++i) {
                cycles[i] +=
                    slot->cycles[i].load(std::memory_order_relaxed);
                calls[i] +=
                    slot->calls[i].load(std::memory_order_relaxed);
            }
        }
    }
    Json doc = Json::object();
    for (size_t i = 0; i < kHostPhaseCount; ++i) {
        Json phase = Json::object();
        phase["calls"] = Json(calls[i]);
        phase["cycles"] = Json(cycles[i]);
        doc[hostPhaseName(static_cast<HostPhase>(i))] =
            std::move(phase);
    }
    return doc;
}

void
PhaseProfiler::report(std::ostream &os) const
{
    Json doc = json();
    os << "atl-prof: host phase cycles (inclusive; rdtsc units)\n";
    for (const auto &[name, phase] : doc.members()) {
        uint64_t calls = phase.at("calls").asUint();
        uint64_t cycles = phase.at("cycles").asUint();
        os << "atl-prof:   " << name << " calls=" << calls
           << " cycles=" << cycles << " mean="
           << (calls ? cycles / calls : 0) << "\n";
    }
    os.flush();
}

} // namespace atl
