/**
 * @file
 * The repository benchmark. Runs the paper's workloads through the
 * public API one cell at a time on one host thread (classic engine, a
 * closed loop), checks every output, and prints one JSON line of
 * metrics as its last line of output:
 *
 *   --trace 0  end-to-end metrics. Only cell-level timers around
 *              machine set-up, Machine::run and Workload::verify are on.
 *              Host time comes from repeated passes over the workload's
 *              Timed cells, the simulated results from one untimed pass
 *              over its Paper cells.
 *   --trace 1  per-layer metrics over the Timed cells. One untraced
 *              pass, then one traced pass with the metrics registry, the
 *              event log, a timed observer around the tracer and a
 *              reference-stream hook attached, then a ladder that
 *              replays the captured stream through Cache, Hierarchy and
 *              TraceReplayer. Spans (name, start, end, parent, cell) are
 *              kept in memory and written to --spans at the end.
 *
 * Usage: perfbench --workload uni|smp|traced --seed N --seconds S
 *                  --trace 0|1 --golden FILE [--spans FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atl/mem/cache.hh"
#include "atl/mem/hierarchy.hh"
#include "atl/mem/vm.hh"
#include "atl/model/footprint_model.hh"
#include "atl/obs/event_log.hh"
#include "atl/obs/metrics.hh"
#include "atl/runtime/machine.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/trace.hh"
#include "atl/sim/tracer.hh"
#include "atl/util/json.hh"
#include "atl/workloads/barnes.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/ocean.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tasks.hh"
#include "atl/workloads/tsp.hh"
#include "atl/workloads/water.hh"

extern char **environ;

using namespace atl;

namespace
{

using Clock = std::chrono::steady_clock;

/** Keeps timed loops' results observable so they are not elided. */
volatile double gSink = 0.0;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

/**
 * Input seed of one application. Benchmark seed 0 reproduces the
 * repository defaults (the committed Fig. 8 / Fig. 9 reports); any other
 * seed mixes the default through splitmix64.
 */
uint64_t
deriveSeed(uint64_t bench_seed, uint64_t default_seed)
{
    if (bench_seed == 0)
        return default_seed;
    uint64_t z = bench_seed * 0x9E3779B97F4A7C15ull + default_seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Repository default input seed of each seeded application. */
const std::map<std::string, uint64_t> kDefaultSeeds = {
    {"merge", 7}, {"photo", 11}, {"tsp", 23},
    {"barnes", 31}, {"ocean", 37}, {"water", 41},
};

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/** How a cell observes footprints. */
enum class Protocol
{
    Plain,     ///< Table 4 parameters, no tracer (Figs. 8 and 9)
    Monitored, ///< init stage, flush, monitored work thread (Fig. 5)
    Hooked,    ///< monitor one worker from its work phase (Fig. 5)
};

/**
 * Input size of a cell. Host time is measured on Timed cells: other
 * tenants of the host slow this process by up to 2x in bursts of one to
 * two seconds, so a cell of the paper's size (up to 1.4 s) rarely runs
 * clear of a burst, while a cell of tens of milliseconds often does. The
 * simulated results are taken from Paper cells.
 */
enum class Size
{
    Paper, ///< Table 4 (Plain) or Fig. 5 (Monitored, Hooked) inputs
    Timed, ///< the same applications on inputs about 1/8 to 1/16 as large
};

/** One application under one policy on one platform. */
struct Cell
{
    std::string app;
    PolicyKind policy;
    unsigned cpus;
    Protocol protocol;
    Size size;

    std::string
    name() const
    {
        return app + "/" + policyName(policy);
    }
};

constexpr PolicyKind kPolicies[] = {PolicyKind::FCFS, PolicyKind::LFF,
                                    PolicyKind::CRT};

/** The cells of a workload, in run order. */
std::vector<Cell>
workloadCells(const std::string &workload, Size size)
{
    std::vector<Cell> cells;
    if (workload == "uni") {
        for (const char *app : {"tasks", "merge", "photo", "tsp"}) {
            for (PolicyKind p : kPolicies)
                cells.push_back({app, p, 1, Protocol::Plain, size});
        }
    } else if (workload == "smp") {
        // tasks is left to uni: its three Paper cells took 40% of an smp
        // Paper pass, which every end-to-end run makes once.
        for (const char *app : {"merge", "photo", "tsp"}) {
            for (PolicyKind p : kPolicies)
                cells.push_back({app, p, 8, Protocol::Plain, size});
        }
    } else if (workload == "traced") {
        for (const char *app : {"barnes", "ocean", "water"}) {
            cells.push_back(
                {app, PolicyKind::LFF, 1, Protocol::Monitored, size});
        }
        for (const char *app : {"merge", "photo", "tsp"}) {
            for (PolicyKind p : kPolicies)
                cells.push_back({app, p, 1, Protocol::Hooked, size});
        }
    }
    return cells;
}

/** Fidelity panel of uni and smp: the Fig. 5 protocol over their own
 *  annotated applications, giving footprint_mare for those workloads. */
std::vector<Cell>
mareCells()
{
    std::vector<Cell> cells;
    for (const char *app : {"merge", "photo", "tsp"}) {
        cells.push_back(
            {app, PolicyKind::LFF, 1, Protocol::Hooked, Size::Paper});
    }
    return cells;
}

/** Machine of one cell, built here rather than through any
 *  environment-reading helper: classic engine, one host thread. */
MachineConfig
machineConfig(const Cell &cell)
{
    MachineConfig cfg;
    cfg.numCpus = cell.cpus;
    cfg.policy = cell.policy;
    cfg.engine = EngineKind::Classic;
    cfg.hostShards = 1;
    // The Fig. 5 protocol excludes the scheduler's own pollution.
    cfg.modelSchedulerFootprint = cell.protocol == Protocol::Plain;
    return cfg;
}

/** Image height of a photo cell; the hooked protocol monitors the
 *  thread of its middle row. */
unsigned
photoHeight(const Cell &cell)
{
    if (cell.size == Size::Timed)
        return 256;
    return cell.protocol == Protocol::Plain ? 1024 : 512;
}

/** Application instance: Table 4 sizes for plain Paper cells, Fig. 5
 *  sizes for monitored ones, and smaller inputs for Timed cells. */
std::unique_ptr<Workload>
makeApp(const Cell &cell, uint64_t bench_seed)
{
    const std::string &app = cell.app;
    bool fig5 = cell.protocol != Protocol::Plain;
    bool timed = cell.size == Size::Timed;
    uint64_t seed = app == "tasks" ? 0
                                   : deriveSeed(bench_seed,
                                                kDefaultSeeds.at(app));
    if (app == "tasks")
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{1024, 100, timed ? 8u : 100u});
    if (app == "merge")
        return std::make_unique<MergesortWorkload>(
            MergesortWorkload::Params{.elements = timed ? 12500u : 100000u,
                                      .cutoff = 100, .seed = seed});
    if (app == "photo")
        return std::make_unique<PhotoWorkload>(PhotoWorkload::Params{
            .width = 2 * photoHeight(cell), .height = photoHeight(cell),
            .seed = seed});
    if (app == "tsp")
        return std::make_unique<TspWorkload>(TspWorkload::Params{
            .cities = 100,
            .depth = timed ? (fig5 ? 5u : 6u) : (fig5 ? 7u : 9u),
            .seed = seed});
    if (app == "barnes")
        return std::make_unique<BarnesWorkload>(BarnesWorkload::Params{
            .bodies = timed ? 4096u : 16384u, .treeDepth = 4,
            .passes = timed ? 2u : 4u, .seed = seed});
    if (app == "ocean")
        return std::make_unique<OceanWorkload>(OceanWorkload::Params{
            .edge = timed ? 258u : 514u, .iterations = timed ? 1u : 2u,
            .seed = seed});
    if (app == "water")
        return std::make_unique<WaterWorkload>(WaterWorkload::Params{
            .molecules = timed ? 2560u : 10240u, .cellEdge = 8,
            .passes = timed ? 1u : 2u, .seed = seed});
    return nullptr;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/** In-memory span recorder; written once when the benchmark ends. */
class Spans
{
  public:
    Spans() : _origin(Clock::now()) {}

    /** Open a span; @return its id (the parent of nested spans). */
    int
    open(std::string name, int parent = -1, int cell = -1)
    {
        double t = seconds(_origin, Clock::now());
        _spans.push_back({std::move(name), t, t, parent, cell});
        return static_cast<int>(_spans.size()) - 1;
    }

    void
    close(int id)
    {
        _spans[static_cast<size_t>(id)].end =
            seconds(_origin, Clock::now());
    }

    bool
    write(const std::string &path,
          const std::vector<std::string> &cell_names) const
    {
        Json doc = Json::object();
        Json cells = Json::array();
        for (const std::string &c : cell_names)
            cells.push(Json(c));
        doc["cells"] = std::move(cells);
        Json spans = Json::array();
        for (const Span &s : _spans) {
            Json j = Json::object();
            j["name"] = Json(s.name);
            j["start_s"] = Json(s.start);
            j["end_s"] = Json(s.end);
            j["parent"] = Json(static_cast<int64_t>(s.parent));
            j["cell"] = Json(static_cast<int64_t>(s.cell));
            spans.push(std::move(j));
        }
        doc["spans"] = std::move(spans);
        std::ofstream out(path, std::ios::trunc);
        out << doc.dump();
        out.flush();
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
        int cell;
    };
    Clock::time_point _origin;
    std::vector<Span> _spans;
};

/** Opens a span for the scope when a recorder is present. */
class SpanScope
{
  public:
    SpanScope(Spans *spans, std::string name, int parent, int cell)
        : _spans(spans),
          _id(spans ? spans->open(std::move(name), parent, cell) : -1)
    {}
    ~SpanScope()
    {
        if (_spans)
            _spans->close(_id);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return _id; }

  private:
    Spans *_spans;
    int _id;
};

// ---------------------------------------------------------------------
// Traced-pass instrumentation
// ---------------------------------------------------------------------

/** Forwards every observer event to the tracer, counting and timing
 *  each call (installed with Machine::setObserver). */
class TimedObserver : public MemoryObserver
{
  public:
    explicit TimedObserver(MemoryObserver &inner) : _inner(inner) {}

    void
    onL2Fill(CpuId cpu, PAddr line) override
    {
        auto t = Clock::now();
        _inner.onL2Fill(cpu, line);
        charge(t);
    }
    void
    onL2Evict(CpuId cpu, PAddr line) override
    {
        auto t = Clock::now();
        _inner.onL2Evict(cpu, line);
        charge(t);
    }
    void
    onL2Replace(CpuId cpu, PAddr fill, PAddr victim) override
    {
        auto t = Clock::now();
        _inner.onL2Replace(cpu, fill, victim);
        charge(t);
    }
    void
    onEMiss(CpuId cpu, ThreadId tid) override
    {
        auto t = Clock::now();
        _inner.onEMiss(cpu, tid);
        charge(t);
    }

    uint64_t events() const { return _events; }
    double ns() const { return static_cast<double>(_ns); }

  private:
    void
    charge(Clock::time_point t)
    {
        ++_events;
        _ns += (Clock::now() - t).count();
    }

    MemoryObserver &_inner;
    uint64_t _events = 0;
    int64_t _ns = 0;
};

/** Observer that does nothing: the baseline for TimedObserver. */
class NullObserver : public MemoryObserver
{
  public:
    void onL2Fill(CpuId, PAddr) override {}
    void onL2Evict(CpuId, PAddr) override {}
};

/** Per-event cost of TimedObserver around an observer that does
 *  nothing (clock reads plus two virtual calls), subtracted from the
 *  tracer's timed calls. */
double
timedObserverOverheadNs()
{
    constexpr int kReps = 1 << 18;
    NullObserver null;
    TimedObserver timed(null);
    MemoryObserver *observer = &timed;
    for (int i = 0; i < kReps; ++i)
        observer->onL2Replace(0, static_cast<PAddr>(i) << 6, 0);
    return timed.ns() / kReps;
}

/** One (S, n) footprint-model input seen in the traced pass. */
struct ModelSample
{
    double s;
    uint64_t n;
};

/** Per-layer totals accumulated over the traced pass. */
struct Layers
{
    size_t captureCap = 0;
    /** TimedObserver cost per event with nothing behind it. */
    double observerNs = 0.0;

    uint64_t refs = 0, captured = 0;
    uint64_t l1dHits = 0, eRefs = 0, eMisses = 0, eWritebacks = 0,
             eInvalidations = 0;
    /** Rung time scaled to each cell's full reference count (ns). */
    double ecacheNs = 0.0, hierarchyNs = 0.0, replayNs = 0.0;
    /** Same scaling, per cell name (for runtime.self_s). */
    std::map<std::string, double> replayNsByCell;

    uint64_t steals = 0, dispatchHeap = 0, dispatchGlobal = 0,
             dispatchSteal = 0, intervals = 0;
    uint64_t eventsRecorded = 0, eventsDropped = 0;
    uint64_t tracerEvents = 0;
    double tracerNs = 0.0;
    uint64_t monitorSamples = 0;
    uint64_t peakArcs = 0;
    std::vector<ModelSample> modelSamples;
};

/** Reference-stream hook state of one traced cell. */
struct StreamProbe
{
    /** Bounded capture for the ladder. */
    TraceBuffer capture;
    size_t cap = 0;
    /** Full-stream replay of a uniprocessor cell, one reference at a
     *  time through a fresh Vm and Hierarchy — TraceReplayer's loop
     *  without storing the stream. */
    std::optional<Vm> vm;
    std::optional<Hierarchy> hier;
    uint64_t refs = 0;
    uint64_t missesAtCap = 0;
    uint64_t peakArcs = 0;
};

/** Median time (s) of `reps` runs of `body`. */
template <typename F>
double
timeMedian(int reps, F body)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        body();
        t.push_back(seconds(t0, Clock::now()));
    }
    return median(t);
}

/** Per-reference host cost of each memory rung over a captured stream. */
struct Ladder
{
    double ecacheNs = 0.0, hierarchyNs = 0.0, replayNs = 0.0;
    uint64_t replayMisses = 0;
};

Ladder
runLadder(const TraceBuffer &buf, const MachineConfig &cfg, Spans *spans,
          int parent, int cell)
{
    Ladder out;
    const auto &recs = buf.records();
    size_t n = recs.size();
    if (n == 0)
        return out;
    uint64_t colors = std::max<uint64_t>(
        1, cfg.hierarchy.l2.sizeBytes / cfg.pageBytes);
    Vm vm(cfg.pageBytes, colors, cfg.placement);
    std::vector<PAddr> pa(n);
    for (size_t i = 0; i < n; ++i)
        pa[i] = vm.translate(recs[i].va);

    uint64_t sink = 0;
    double ecache, hierarchy, replay;
    {
        SpanScope span(spans, "mem.ecache", parent, cell);
        ecache = timeMedian(3, [&] {
            std::vector<std::unique_ptr<Cache>> caches;
            for (unsigned c = 0; c < cfg.numCpus; ++c)
                caches.push_back(std::make_unique<Cache>(cfg.hierarchy.l2));
            for (size_t i = 0; i < n; ++i) {
                bool store = recs[i].type == AccessType::Store;
                sink += caches[recs[i].cpu]->access(pa[i], store).hit;
            }
        });
    }
    {
        SpanScope span(spans, "mem.hierarchy", parent, cell);
        hierarchy = timeMedian(3, [&] {
            std::vector<std::unique_ptr<Hierarchy>> hiers;
            for (unsigned c = 0; c < cfg.numCpus; ++c)
                hiers.push_back(std::make_unique<Hierarchy>(cfg.hierarchy));
            for (size_t i = 0; i < n; ++i) {
                sink += hiers[recs[i].cpu]->access(pa[i], recs[i].type)
                            .l2Missed;
            }
        });
    }
    {
        SpanScope span(spans, "mem.replay", parent, cell);
        replay = timeMedian(3, [&] {
            TraceReplayer replayer(cfg.hierarchy, cfg.numCpus,
                                   cfg.pageBytes, cfg.placement);
            out.replayMisses = replayer.replay(buf).l2Misses;
        });
    }
    gSink = static_cast<double>(sink);
    double per = 1e9 / static_cast<double>(n);
    out.ecacheNs = ecache * per;
    out.hierarchyNs = hierarchy * per;
    out.replayNs = replay * per;
    return out;
}

// ---------------------------------------------------------------------
// Running one cell
// ---------------------------------------------------------------------

/** Outcome of one cell run. */
struct CellResult
{
    RunMetrics metrics;
    double setupS = 0.0, runS = 0.0, verifyS = 0.0;
    /** Fig. 5 accuracy of the monitored thread (monitored cells). */
    double mare = 0.0;
    bool ok = false;
    std::string error;
    /** Index of the run among all cell runs of the process. */
    uint64_t run = 0;

    double wall() const { return setupS + runS + verifyS; }
};

/**
 * Set up, run and verify one cell. With `layers` null this is the
 * end-to-end path: only the three cell timers run. Otherwise the cell
 * carries the traced-pass instrumentation and adds to `layers`.
 */
CellResult
runCell(const Cell &cell, uint64_t bench_seed, Layers *layers,
        Spans *spans, int parent, int cell_id)
{
    CellResult r;
    SpanScope cell_span(spans, "cell", parent, cell_id);

    MachineConfig cfg = machineConfig(cell);
    std::unique_ptr<MetricsRegistry> registry;
    std::unique_ptr<EventLog> log;
    if (layers) {
        registry = std::make_unique<MetricsRegistry>();
        log = std::make_unique<EventLog>(TelemetryConfig{});
        cfg.metrics = registry.get();
        cfg.telemetry = log.get();
    }

    // Declared before the machine so it outlives every observer call.
    std::optional<TimedObserver> timed;
    StreamProbe probe;

    auto t0 = Clock::now();
    std::optional<SpanScope> setup_span(
        std::in_place, spans, "workloads.setup", cell_span.id(), cell_id);
    std::unique_ptr<Workload> workload = makeApp(cell, bench_seed);
    Machine machine(cfg);
    std::unique_ptr<Tracer> tracer;
    if (cell.protocol != Protocol::Plain)
        tracer = std::make_unique<Tracer>(machine);
    WorkloadEnv env{machine, tracer.get()};
    workload->setup(env);

    std::optional<FootprintMonitor> monitor;
    ThreadId monitored = InvalidThreadId;
    auto arm = [&](ThreadId tid) {
        monitored = tid;
        monitor->setDriver(tid);
        monitor->track(tid, FootprintMonitor::Kind::Executing);
    };
    if (cell.protocol == Protocol::Monitored) {
        monitor.emplace(machine, *tracer, 0, 128);
        auto &w = static_cast<MonitoredWorkload &>(*workload);
        w.onWorkStart([&] {
            machine.flushAllCaches();
            arm(w.workTid());
        });
    } else if (cell.protocol == Protocol::Hooked) {
        monitor.emplace(machine, *tracer, 0, 64);
        auto hook = [&] { arm(machine.self()); };
        if (cell.app == "merge")
            static_cast<MergesortWorkload &>(*workload).onRootMerge(hook);
        else if (cell.app == "photo")
            static_cast<PhotoWorkload &>(*workload).onRowStart(
                photoHeight(cell) / 2, hook);
        else
            static_cast<TspWorkload &>(*workload).onNodeStart(1, hook);
    }
    auto t1 = Clock::now();
    setup_span.reset();

    if (layers) {
        if (tracer) {
            timed.emplace(*tracer);
            machine.setObserver(&*timed);
        }
        probe.cap = layers->captureCap;
        if (cell.cpus == 1 && cell.protocol == Protocol::Plain) {
            const HierarchyConfig &h = cfg.hierarchy;
            probe.vm.emplace(cfg.pageBytes,
                             std::max<uint64_t>(
                                 1, h.l2.sizeBytes / cfg.pageBytes),
                             cfg.placement);
            probe.hier.emplace(h);
        }
        machine.setAccessHook(
            [&probe, &machine](CpuId cpu, ThreadId tid, VAddr va,
                               AccessType type) {
                if (probe.capture.size() < probe.cap)
                    probe.capture.append({va, tid, cpu, type});
                ++probe.refs;
                if (probe.hier) {
                    probe.hier->access(probe.vm->translate(va), type);
                    if (probe.refs == probe.cap)
                        probe.missesAtCap = probe.hier->l2().stats().misses();
                }
                if ((probe.refs & 4095) == 0) {
                    probe.peakArcs = std::max<uint64_t>(
                        probe.peakArcs, machine.graph().edgeCount());
                }
            });
    }

    auto t2 = Clock::now();
    {
        SpanScope run_span(spans, "runtime.run", cell_span.id(), cell_id);
        machine.run();
    }
    auto t3 = Clock::now();

    RunMetrics &m = r.metrics;
    m.refsIssued = machine.refsIssued();
    m.refBlocks = machine.refBlocks();
    m.hostSeconds = seconds(t2, t3);
    m.workload = workload->name();
    m.policy = cfg.policy;
    m.numCpus = cfg.numCpus;
    m.makespan = machine.makespan();
    m.eMisses = machine.totalEMisses();
    m.eRefs = machine.totalERefs();
    m.instructions = machine.totalInstructions();
    m.contextSwitches = machine.totalSwitches();
    for (CpuId c = 0; c < machine.numCpus(); ++c)
        m.schedOverheadCycles += machine.cpuStats(c).schedOverheadCycles;
    m.degradation = machine.scheduler().degradation();

    auto t4 = Clock::now();
    {
        SpanScope verify_span(spans, "workloads.verify", cell_span.id(),
                              cell_id);
        m.verified = workload->verify();
    }
    auto t5 = Clock::now();
    r.setupS = seconds(t0, t1);
    r.runS = seconds(t2, t3);
    r.verifyS = seconds(t4, t5);

    r.ok = m.verified;
    if (!m.verified)
        r.error = cell.name() + " failed verify()";
    if (monitor) {
        if (monitored == InvalidThreadId) {
            r.ok = false;
            r.error = cell.name() + ": monitored thread never started";
        } else {
            r.mare = monitor->meanAbsRelError(monitored, 128.0);
        }
    }

    if (!layers)
        return r;

    machine.setAccessHook({});
    for (CpuId c = 0; c < machine.numCpus(); ++c) {
        const Hierarchy &h = machine.hierarchy(c);
        layers->l1dHits += h.l1d().stats().hits;
        const CacheStats &e = h.l2().stats();
        layers->eRefs += e.refs;
        layers->eMisses += e.misses();
        layers->eWritebacks += e.writebacks;
        layers->eInvalidations += e.invalidations;
    }
    layers->refs += m.refsIssued;
    layers->captured += probe.capture.size();
    layers->steals += machine.scheduler().stealCount();
    layers->dispatchHeap += registry->counterTotal("machine.dispatch.heap");
    layers->dispatchGlobal +=
        registry->counterTotal("machine.dispatch.global");
    layers->dispatchSteal +=
        registry->counterTotal("machine.dispatch.steal");
    layers->intervals += registry->counterTotal("machine.intervals");
    layers->eventsRecorded += log->recorded();
    layers->eventsDropped += log->dropped();
    layers->peakArcs += probe.peakArcs;
    if (timed) {
        layers->tracerEvents += timed->events();
        double overhead =
            layers->observerNs * static_cast<double>(timed->events());
        layers->tracerNs += std::max(0.0, timed->ns() - overhead);
    }
    constexpr size_t kMaxModelSamples = 1 << 18;
    for (size_t i = 0; i < log->size(); ++i) {
        const Event &e = log->at(i);
        if (e.kind == EventKind::IntervalEnd &&
            layers->modelSamples.size() < kMaxModelSamples)
            layers->modelSamples.push_back({e.value, e.n});
    }
    if (monitor && monitored != InvalidThreadId) {
        const auto &samples = monitor->samples(monitored);
        layers->monitorSamples += samples.size();
        for (const FootprintSample &s : samples) {
            if (layers->modelSamples.size() < kMaxModelSamples)
                layers->modelSamples.push_back({s.observed, s.misses});
        }
    }

    // Full-stream replay must reproduce the live E-miss count exactly,
    // and the ladder's TraceReplayer must agree with it at the cap, so
    // the ladder times the stream the machine actually ran.
    if (probe.hier) {
        uint64_t replayed = probe.hier->l2().stats().misses();
        if (replayed != m.eMisses) {
            r.ok = false;
            r.error = cell.name() + ": full-stream replay E-misses " +
                      std::to_string(replayed) + " != live " +
                      std::to_string(m.eMisses);
        }
        if (probe.refs < probe.cap)
            probe.missesAtCap = replayed;
    }

    SpanScope ladder_span(spans, "mem.ladder", cell_span.id(), cell_id);
    Ladder ladder = runLadder(probe.capture, cfg, spans, ladder_span.id(),
                              cell_id);
    if (probe.hier && ladder.replayMisses != probe.missesAtCap) {
        r.ok = false;
        r.error = cell.name() + ": capped TraceReplayer E-misses " +
                  std::to_string(ladder.replayMisses) +
                  " != stream replay " + std::to_string(probe.missesAtCap);
    }
    double refs = static_cast<double>(m.refsIssued);
    layers->ecacheNs += ladder.ecacheNs * refs;
    layers->hierarchyNs += ladder.hierarchyNs * refs;
    layers->replayNs += ladder.replayNs * refs;
    layers->replayNsByCell[cell.name()] = ladder.replayNs * refs;
    return r;
}

// ---------------------------------------------------------------------
// Passes and checks
// ---------------------------------------------------------------------

/** Cell runs attempted, the runs that failed any check, and errors
 *  outside any cell. */
struct Tally
{
    uint64_t attempted = 0;
    std::set<uint64_t> failedRuns;
    uint64_t errors = 0;

    void
    fail(uint64_t run, const std::string &why)
    {
        failedRuns.insert(run);
        std::cerr << "FAIL: " << why << "\n";
    }

    void
    error(const std::string &why)
    {
        ++errors;
        std::cerr << "ERROR: " << why << "\n";
    }

    bool correct() const { return failedRuns.empty() && errors == 0; }
};

/** Run every cell once; failures are counted, never fatal. */
std::vector<CellResult>
runPass(const std::vector<Cell> &cells, uint64_t seed, Layers *layers,
        Spans *spans, const char *pass_name, Tally &tally)
{
    SpanScope pass_span(spans, pass_name, -1, -1);
    std::vector<CellResult> results;
    for (size_t i = 0; i < cells.size(); ++i) {
        uint64_t run = tally.attempted++;
        CellResult r;
        try {
            r = runCell(cells[i], seed, layers, spans, pass_span.id(),
                        static_cast<int>(i));
        } catch (const std::exception &e) {
            r.ok = false;
            r.error = cells[i].name() + " threw: " + e.what();
        }
        r.run = run;
        if (!r.ok)
            tally.fail(run, r.error);
        results.push_back(std::move(r));
    }
    return results;
}

/** Seed-0 results must equal the committed Fig. 8 / Fig. 9 reports. */
void
checkGolden(const Json &golden, const std::string &workload,
            const std::vector<Cell> &cells,
            const std::vector<CellResult> &results, Tally &tally)
{
    const Json &table = golden.at(workload);
    if (!table.isObject())
        return;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Json &want = table.at(cells[i].name());
        const RunMetrics &got = results[i].metrics;
        if (!want.isObject()) {
            tally.fail(results[i].run,
                       "no golden entry for " + cells[i].name());
        } else if (want.at("makespan").asUint() != got.makespan ||
                   want.at("e_misses").asUint() != got.eMisses) {
            tally.fail(results[i].run, workload + " " + cells[i].name() +
                       " differs from the committed report: makespan " +
                       std::to_string(got.makespan) + ", e-misses " +
                       std::to_string(got.eMisses));
        }
    }
}

/** Two passes of the same code must simulate identically. */
void
checkSame(const std::vector<Cell> &cells,
          const std::vector<CellResult> &want,
          const std::vector<CellResult> &got, const char *what,
          Tally &tally)
{
    for (size_t i = 0; i < cells.size(); ++i) {
        if (want[i].metrics != got[i].metrics)
            tally.fail(got[i].run, cells[i].name() + ": " + what +
                       " RunMetrics differ from the end-to-end pass");
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Policy effects over the applications of a pass (sim, exact). */
struct PolicyEffect
{
    double crtSpeedup = 0.0, lffSpeedup = 0.0;
    double crtMissReduction = 0.0, lffMissReduction = 0.0;
};

PolicyEffect
policyEffect(const std::vector<Cell> &cells,
             const std::vector<CellResult> &results)
{
    std::map<std::string, std::map<PolicyKind, const RunMetrics *>> by_app;
    std::vector<std::string> order;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!by_app.count(cells[i].app))
            order.push_back(cells[i].app);
        by_app[cells[i].app][cells[i].policy] = &results[i].metrics;
    }
    PolicyEffect e;
    double log_crt = 0.0, log_lff = 0.0;
    int apps = 0;
    for (const std::string &app : order) {
        auto &row = by_app[app];
        if (row.size() != 3)
            continue;
        const RunMetrics &fcfs = *row[PolicyKind::FCFS];
        const RunMetrics &lff = *row[PolicyKind::LFF];
        const RunMetrics &crt = *row[PolicyKind::CRT];
        log_crt += std::log(RunMetrics::speedup(fcfs, crt));
        log_lff += std::log(RunMetrics::speedup(fcfs, lff));
        e.crtMissReduction += RunMetrics::missesEliminated(fcfs, crt);
        e.lffMissReduction += RunMetrics::missesEliminated(fcfs, lff);
        ++apps;
    }
    if (apps) {
        e.crtSpeedup = std::exp(log_crt / apps);
        e.lffSpeedup = std::exp(log_lff / apps);
        e.crtMissReduction /= apps;
        e.lffMissReduction /= apps;
    }
    return e;
}

/** Mean footprint error over the LFF monitored cells of a pass. */
double
meanMare(const std::vector<Cell> &cells,
         const std::vector<CellResult> &results)
{
    double sum = 0.0;
    int n = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i].protocol != Protocol::Plain &&
            cells[i].policy == PolicyKind::LFF) {
            sum += results[i].mare;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Host ns per FootprintModel evaluation over the recorded samples. */
double
modelNsPerEval(const std::vector<ModelSample> &samples,
               const MachineConfig &cfg)
{
    if (samples.empty())
        return 0.0;
    FootprintModel model(cfg.hierarchy.l2.sizeBytes /
                         cfg.hierarchy.l2.lineBytes);
    // Sharing coefficients are not part of the recorded samples; the
    // dependent case's cost does not depend on q.
    constexpr double q = 0.5;
    double acc = 0.0;
    uint64_t evals = 0;
    auto t0 = Clock::now();
    do {
        for (const ModelSample &s : samples) {
            acc += model.blocking(s.s, s.n) + model.independent(s.s, s.n) +
                   model.dependent(q, s.s, s.n) + model.decayed(s.s, 0, s.n);
        }
        evals += 4 * samples.size();
    } while (seconds(t0, Clock::now()) < 0.05);
    double elapsed = seconds(t0, Clock::now());
    gSink = acc;
    return elapsed * 1e9 / static_cast<double>(evals);
}

/** name -> (value, unit), printed in insertion order. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        _items.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os << std::setprecision(17) << "{";
        for (size_t i = 0; i < _items.size(); ++i) {
            const Item &it = _items[i];
            os << (i ? ", " : "") << "\"" << it.name << "\": {\"value\": "
               << it.value << ", \"unit\": \"" << it.unit << "\"}";
        }
        os << "}";
        return os.str();
    }

    /** Name of the first value that is NaN or infinite, if any. */
    std::optional<std::string>
    nonFinite() const
    {
        for (const Item &it : _items) {
            if (!std::isfinite(it.value))
                return it.name;
        }
        return std::nullopt;
    }

  private:
    struct Item
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> _items;
};

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    std::string golden;
    std::string spans;
};

/** The process's first cell pays host page faults and allocator growth
 *  that later cells do not; run it once, untimed, before measuring. */
void
warmUp(const Options &opt, const std::vector<Cell> &cells, Tally &tally)
{
    runPass({cells.front()}, opt.seed, nullptr, nullptr, "warm-up", tally);
}

constexpr size_t kMinPasses = 3;

/**
 * Host speed probe: a fixed loop of 4-way set-associative tag lookups in
 * a 1 MB table, the benchmark's own code, so no change to the simulator
 * moves it. Other tenants also slow the whole host for minutes at a
 * time, which a best time cannot avoid. Timed before every pass, the
 * probe's best time rose and fell with the cells' best times over runs
 * of `smp` on the 4-CPU host: dividing by it cut the spread of
 * sim_mrefs_per_s over six seeds from 0.075 to 0.019 of the median.
 */
class HostProbe
{
  public:
    /** The probe's best time on a quiet 4-CPU host (s), so that
     *  sim_mrefs_per_s reads in Mrefs/s at that host's speed. */
    static constexpr double kReferenceS = 0.0055;

    /** @return seconds taken by one run of the loop. */
    double
    run()
    {
        std::fill(_tags.begin(), _tags.end(), 0);
        auto t0 = Clock::now();
        uint64_t x = 12345, hot = 0, hits = 0;
        for (int i = 0; i < 400000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            // Three refs in four walk a hot region; the rest are random.
            uint64_t line = (x >> 40) & kLineMask;
            if ((x >> 20) & 3) {
                hot += (x >> 30) & 7;
                line = hot & kLineMask;
            }
            size_t set = (line & kSetMask) * kWays;
            uint64_t key = (line >> kSetBits) | 1;
            bool hit = false;
            for (size_t w = 0; w < kWays && !hit; ++w)
                hit = _tags[set + w] == key;
            if (hit)
                ++hits;
            else
                _tags[set + (x & (kWays - 1))] = key;
        }
        gSink = static_cast<double>(hits);
        return seconds(t0, Clock::now());
    }

  private:
    static constexpr size_t kWays = 4;
    static constexpr unsigned kSetBits = 15;
    static constexpr uint64_t kSetMask = (uint64_t{1} << kSetBits) - 1;
    static constexpr uint64_t kLineMask = (uint64_t{1} << 16) - 1;

    std::vector<uint64_t> _tags =
        std::vector<uint64_t>(kWays << kSetBits, 0);
};

/** End-to-end run: passes of the workload's Timed cells for `seconds`,
 *  then one untimed pass of its Paper cells for the simulated results. */
MetricSet
endToEnd(const Options &opt, const Json &golden, Tally &tally)
{
    std::vector<Cell> cells = workloadCells(opt.workload, Size::Timed);
    warmUp(opt, cells, tally);
    std::vector<std::vector<CellResult>> passes;
    HostProbe probe;
    std::vector<double> probe_s;
    auto start = Clock::now();
    do {
        probe_s.push_back(probe.run());
        passes.push_back(
            runPass(cells, opt.seed, nullptr, nullptr, "pass", tally));
        if (passes.size() > 1)
            checkSame(cells, passes.front(), passes.back(), "repeat pass",
                      tally);
        // At least three passes, so each cell is timed at more than one
        // moment of host load; more while they fit.
        double elapsed = seconds(start, Clock::now());
        double per_pass = elapsed / static_cast<double>(passes.size());
        if (passes.size() >= kMinPasses && elapsed + per_pass > opt.seconds)
            break;
    } while (true);

    // One representative pass. A cell's time is its best over the
    // passes, the repetition that ran clear of other tenants' bursts;
    // a median over the passes follows how busy the host was. Set-up
    // time, which the bursts barely touch, keeps its median.
    const std::vector<CellResult> &first = passes.front();
    double wall = 0.0, setup = 0.0, refs = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        std::vector<double> cell_wall, cell_setup;
        for (const auto &pass : passes) {
            cell_wall.push_back(pass[i].wall());
            cell_setup.push_back(pass[i].setupS);
        }
        double w = *std::min_element(cell_wall.begin(), cell_wall.end());
        wall += w;
        setup += median(cell_setup);
        refs += static_cast<double>(first[i].metrics.refsIssued);
        std::cout << "cell " << cells[i].name() << ": best " << w
                  << " s, median " << median(cell_wall) << " s, "
                  << first[i].metrics.refsIssued << " refs\n";
    }

    // Fidelity, untimed: policy effects come from the workload's Paper
    // cells; footprint_mare from its monitored cells, or for uni and smp
    // from the Fig. 5 protocol over their annotated apps.
    std::vector<Cell> paper = workloadCells(opt.workload, Size::Paper);
    std::vector<CellResult> results =
        runPass(paper, opt.seed, nullptr, nullptr, "paper", tally);
    if (opt.seed == 0)
        checkGolden(golden, opt.workload, paper, results, tally);
    PolicyEffect effect = policyEffect(paper, results);
    double mare = meanMare(paper, results);
    if (opt.workload != "traced") {
        std::vector<Cell> panel = mareCells();
        mare = meanMare(panel, runPass(panel, opt.seed, nullptr, nullptr,
                                       "fidelity", tally));
    }

    std::cout << "passes: " << passes.size() << " of " << cells.size()
              << " cells\n";
    double host = *std::min_element(probe_s.begin(), probe_s.end());
    std::cout << "host probe: best " << host << " s, reference "
              << HostProbe::kReferenceS << " s; " << refs / wall / 1e6
              << " Mrefs/s before scaling\n";
    MetricSet out;
    out.add("sim_mrefs_per_s",
            refs / wall / 1e6 * host / HostProbe::kReferenceS, "Mrefs/s");
    out.add("setup_s", setup, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("crt_speedup", effect.crtSpeedup, "ratio");
    out.add("lff_speedup", effect.lffSpeedup, "ratio");
    out.add("crt_miss_reduction", effect.crtMissReduction, "ratio");
    out.add("lff_miss_reduction", effect.lffMissReduction, "ratio");
    out.add("footprint_mare", mare, "ratio");
    return out;
}

/** Traced run over the Timed cells, whose host time the end-to-end run
 *  measures: one untraced pass, one traced pass, the ladder. */
MetricSet
perLayer(const Options &opt, Tally &tally)
{
    std::vector<Cell> cells = workloadCells(opt.workload, Size::Timed);
    warmUp(opt, cells, tally);
    Spans spans;
    std::vector<CellResult> plain =
        runPass(cells, opt.seed, nullptr, &spans, "pass.e2e", tally);

    // About 24 MB of records per cell; each rung is scaled by the
    // cell's full reference count.
    Layers layers;
    layers.captureCap = size_t{1} << 20;
    layers.observerNs = timedObserverOverheadNs();
    std::vector<CellResult> traced =
        runPass(cells, opt.seed, &layers, &spans, "pass.traced", tally);
    checkSame(cells, plain, traced, "traced", tally);

    double setup = 0.0, verify = 0.0, run = 0.0, plain_wall = 0.0,
           traced_wall = 0.0, self = 0.0;
    uint64_t refs = 0, blocks = 0, switches = 0;
    Cycles sched = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = plain[i];
        setup += r.setupS;
        verify += r.verifyS;
        run += r.runS;
        plain_wall += r.wall();
        traced_wall += traced[i].wall();
        refs += r.metrics.refsIssued;
        blocks += r.metrics.refBlocks;
        switches += r.metrics.contextSwitches;
        sched += r.metrics.schedOverheadCycles;
        self += r.runS - layers.replayNsByCell[cells[i].name()] * 1e-9;
    }

    double model_ns;
    {
        SpanScope model_span(&spans, "model.eval", -1, -1);
        model_ns = modelNsPerEval(layers.modelSamples,
                                  machineConfig(cells.front()));
    }

    auto div = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    auto u = [](uint64_t v) { return static_cast<double>(v); };
    double lrefs = u(layers.refs);
    MetricSet out;
    out.add("workloads.setup_s", setup, "s");
    out.add("workloads.verify_s", verify, "s");
    out.add("workloads.refs_per_call", div(u(refs), u(blocks)), "refs/call");
    out.add("runtime.run_s", run, "s");
    out.add("runtime.self_s", self, "s");
    out.add("runtime.switches", u(switches), "count");
    out.add("runtime.ns_per_switch", div(self * 1e9, u(switches)), "ns");
    out.add("runtime.steals", u(layers.steals), "count");
    out.add("runtime.dispatch.heap", u(layers.dispatchHeap), "count");
    out.add("runtime.dispatch.global", u(layers.dispatchGlobal), "count");
    out.add("runtime.dispatch.steal", u(layers.dispatchSteal), "count");
    out.add("runtime.sched_overhead_cycles", u(sched), "cycles");
    out.add("mem.ecache_ns_per_ref", div(layers.ecacheNs, lrefs), "ns/ref");
    out.add("mem.hierarchy_ns_per_ref", div(layers.hierarchyNs, lrefs),
            "ns/ref");
    out.add("mem.vm_ns_per_ref",
            div(layers.replayNs - layers.hierarchyNs, lrefs), "ns/ref");
    out.add("mem.refs", lrefs, "count");
    out.add("mem.l1d_hits", u(layers.l1dHits), "count");
    out.add("mem.e_refs", u(layers.eRefs), "count");
    out.add("mem.e_misses", u(layers.eMisses), "count");
    out.add("mem.e_writebacks", u(layers.eWritebacks), "count");
    out.add("mem.e_invalidations", u(layers.eInvalidations), "count");
    out.add("mem.e_miss_ratio", div(u(layers.eMisses), u(layers.eRefs)),
            "ratio");
    out.add("mem.capture_cap", u(layers.captureCap), "refs/cell");
    out.add("mem.capture_share", div(u(layers.captured), lrefs), "ratio");
    out.add("model.ns_per_eval", model_ns, "ns");
    out.add("model.annotations", u(layers.peakArcs), "count");
    out.add("perf.samples", u(layers.intervals), "count");
    out.add("sim.tracer_events", u(layers.tracerEvents), "count");
    out.add("sim.tracer_ns_per_event",
            div(layers.tracerNs, u(layers.tracerEvents)), "ns");
    out.add("sim.monitor_samples", u(layers.monitorSamples), "count");
    out.add("obs.events_recorded", u(layers.eventsRecorded), "count");
    out.add("obs.events_dropped", u(layers.eventsDropped), "count");
    out.add("obs.trace_overhead", div(traced_wall, plain_wall) - 1.0,
            "ratio");

    std::cout << "fault: not exercised (empty fault plan)\n";
    if (!opt.spans.empty()) {
        std::vector<std::string> names;
        for (const Cell &c : cells)
            names.push_back(c.name());
        if (spans.write(opt.spans, names)) {
            std::cout << "spans: " << opt.spans << "\n";
        } else {
            tally.error("cannot write spans to " + opt.spans);
        }
    }
    return out;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload uni|smp|traced --seed N "
                 "--seconds S --trace 0|1 --golden FILE [--spans FILE]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            opt.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (flag == "--golden") {
            opt.golden = value;
        } else if (flag == "--spans") {
            opt.spans = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end && *end)
            usage("bad value for " + flag + ": " + value);
    }
    if (workloadCells(opt.workload, Size::Timed).empty())
        usage("unknown workload '" + opt.workload + "'");
    if (opt.trace != 0 && opt.trace != 1)
        usage("--trace must be 0 or 1");
    if (opt.golden.empty())
        usage("--golden is required");
    return opt;
}

/** Drop every ATL_* knob before the library can read one: the
 *  benchmark fixes engine, job count and telemetry itself. */
void
ignoreAtlEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        std::string kv = *e;
        if (kv.rfind("ATL_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names) {
        unsetenv(n.c_str());
        std::cout << "ignored environment variable " << n << "\n";
    }
    // ATL_PROF is read at start-up; switch the profiler off explicitly.
    PhaseProfiler::setEnabled(false);
}

} // namespace

int
main(int argc, char **argv)
{
    ignoreAtlEnvironment();
    Options opt = parseArgs(argc, argv);

    std::ifstream golden_in(opt.golden);
    std::stringstream text;
    text << golden_in.rdbuf();
    Json golden;
    std::string error;
    if (!golden_in || !Json::parse(text.str(), golden, &error)) {
        std::cerr << "perfbench: cannot read " << opt.golden << " " << error
                  << "\n";
        return 2;
    }

    std::cout << "workload " << opt.workload << ": "
              << workloadCells(opt.workload, Size::Timed).size()
              << " cells, engine classic, 1 job, seed " << opt.seed
              << ", host_cpus " << std::thread::hardware_concurrency() << "\n";
    std::cout << "input seeds:";
    for (const auto &[app, dflt] : kDefaultSeeds)
        std::cout << " " << app << "=" << deriveSeed(opt.seed, dflt);
    std::cout << "\n";

    Tally tally;
    MetricSet metrics = opt.trace ? perLayer(opt, tally)
                                  : endToEnd(opt, golden, tally);
    if (auto bad = metrics.nonFinite())
        tally.error("metric " + *bad + " is not finite");
    bool correct = tally.correct();
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failedRuns.size()
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
}
