/**
 * @file
 * Figure 5 reproduction: observed versus predicted footprints for the
 * six well-behaved applications (barnes, ocean, water from the
 * SPLASH-2-style C kernels; merge, photo, tsp from the Sather-style
 * annotated applications). Also prints the Table 2 workload
 * descriptions.
 *
 * The paper's finding, asserted here: for most applications observed
 * footprints are in good agreement with the model; for C applications
 * the prediction is *somewhat larger* than observed (reference
 * clustering), for the OO-style programs the correspondence is
 * generally good.
 */

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "atl/obs/export.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/sweep.hh"
#include "atl/util/table.hh"
#include "atl/workloads/barnes.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/ocean.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tsp.hh"
#include "atl/workloads/water.hh"

using namespace atl;

namespace
{

int failures = 0;

struct AppResult
{
    std::string name;
    bool verified = false;
    double meanError = 0.0;
    size_t floorExcluded = 0;
    double finalObserved = 0.0;
    double finalPredicted = 0.0;
    std::vector<FootprintSample> samples;
};

/** Run a monitored kernel (init -> flush -> monitored work thread). */
AppResult
runMonitored(MonitoredWorkload &w)
{
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.modelSchedulerFootprint = false;
    Machine machine(cfg);
    Tracer tracer(machine);
    FootprintMonitor monitor(machine, tracer, 0, 128);

    WorkloadEnv env{machine, &tracer};
    w.setup(env);
    w.onWorkStart([&] {
        machine.flushAllCaches();
        monitor.setDriver(w.workTid());
        monitor.track(w.workTid(), FootprintMonitor::Kind::Executing);
    });
    machine.run();

    AppResult r;
    r.name = w.name();
    r.verified = w.verify();
    r.samples = monitor.samples(w.workTid());
    r.meanError =
        monitor.meanAbsRelError(w.workTid(), 128.0, &r.floorExcluded);
    if (!r.samples.empty()) {
        r.finalObserved = r.samples.back().observed;
        r.finalPredicted = r.samples.back().predicted;
    }
    return r;
}

/**
 * The fig5 barnes run again, under a locality policy and with an event
 * log attached: the telemetry path of the same experiment. The
 * Residual events the monitor emits must reproduce the figure's
 * accuracy number exactly — summarizeTrace() with the same floor is
 * just another reader of the same samples.
 */
AppResult
runTracedBarnes(PolicyKind policy, EventLog &log)
{
    BarnesWorkload w(
        {.bodies = 16384, .treeDepth = 4, .passes = 4, .seed = 31});

    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.policy = policy;
    cfg.modelSchedulerFootprint = false;
    cfg.telemetry = &log;
    Machine machine(cfg);
    Tracer tracer(machine);
    FootprintMonitor monitor(machine, tracer, 0, 128);

    WorkloadEnv env{machine, &tracer};
    w.setup(env);
    w.onWorkStart([&] {
        machine.flushAllCaches();
        monitor.setDriver(w.workTid());
        monitor.track(w.workTid(), FootprintMonitor::Kind::Executing);
    });
    machine.run();

    AppResult r;
    r.name = w.name();
    r.verified = w.verify();
    r.samples = monitor.samples(w.workTid());
    r.meanError =
        monitor.meanAbsRelError(w.workTid(), 128.0, &r.floorExcluded);
    if (!r.samples.empty()) {
        r.finalObserved = r.samples.back().observed;
        r.finalPredicted = r.samples.back().predicted;
    }
    return r;
}

/** Write one text file under the results dir, loudly. */
void
writeResultsFile(const std::string &stem, const std::string &content)
{
    std::string dir = BenchReport::resultsDir();
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string path = dir + "/" + stem;
    std::ofstream out(path, std::ios::trunc);
    out << content;
    out.flush();
    if (!out) {
        std::cerr << "FAIL: cannot write " << path << "\n";
        ++failures;
        return;
    }
    std::cerr << "wrote " << path << "\n";
}

/** Policies the ATL_TRACE_POLICY env selects (default: lff only). */
std::vector<PolicyKind>
tracedPolicies()
{
    const char *env = std::getenv("ATL_TRACE_POLICY");
    std::string sel = env ? env : "lff";
    if (sel == "all")
        return {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT};
    if (sel == "fcfs")
        return {PolicyKind::FCFS};
    if (sel == "crt")
        return {PolicyKind::CRT};
    if (sel == "none")
        return {};
    return {PolicyKind::LFF};
}

/**
 * Run an application while monitoring one designated worker thread from
 * the moment it begins its main work phase (the hook captures the
 * thread's true initial footprint, which may be non-zero when
 * neighbours prefetched shared state).
 */
template <typename W, typename HookSetter>
AppResult
runHooked(W &w, ThreadId (*tid_of)(W &), HookSetter set_hook)
{
    MachineConfig cfg;
    cfg.numCpus = 1;
    cfg.modelSchedulerFootprint = false;
    Machine machine(cfg);
    Tracer tracer(machine);
    FootprintMonitor monitor(machine, tracer, 0, 64);

    WorkloadEnv env{machine, &tracer};
    w.setup(env);
    // The monitored thread may not exist until the application's main
    // thread creates it, so resolve the id inside the hook (which runs
    // in the monitored thread itself).
    set_hook(w, [&] {
        ThreadId tid = machine.self();
        monitor.setDriver(tid);
        monitor.track(tid, FootprintMonitor::Kind::Executing);
    });
    machine.run();

    ThreadId tid = tid_of(w);
    AppResult r;
    r.name = w.name();
    r.verified = w.verify();
    r.samples = monitor.samples(tid);
    r.meanError = monitor.meanAbsRelError(tid, 128.0, &r.floorExcluded);
    if (!r.samples.empty()) {
        r.finalObserved = r.samples.back().observed;
        r.finalPredicted = r.samples.back().predicted;
    }
    return r;
}

void
printSeries(const AppResult &r)
{
    FigureWriter fig(std::cout, std::string("5-") + r.name,
                     "E-cache misses (thousands)", "footprint (lines)");
    std::vector<std::pair<double, double>> obs, pred;
    for (const auto &s : r.samples) {
        obs.emplace_back(static_cast<double>(s.misses) / 1000.0,
                         s.observed);
        pred.emplace_back(static_cast<double>(s.misses) / 1000.0,
                          s.predicted);
    }
    fig.series("observed", obs, 8);
    fig.series("predicted", pred, 8);
}

} // namespace

int
main()
{
    // ---- Table 2: simulated workloads -------------------------------
    {
        BarnesWorkload barnes{BarnesWorkload::Params{}};
        OceanWorkload ocean{OceanWorkload::Params{}};
        WaterWorkload water{WaterWorkload::Params{}};
        MergesortWorkload merge{MergesortWorkload::Params{}};
        PhotoWorkload photo{PhotoWorkload::Params{}};
        TspWorkload tsp{TspWorkload::Params{}};
        TextTable table("Table 2: simulated workloads");
        table.header({"application", "description"});
        for (Workload *w : std::initializer_list<Workload *>{
                 &barnes, &ocean, &water, &merge, &photo, &tsp})
            table.row({w->name(), w->description()});
        table.print(std::cout);
    }

    // The six monitored runs are independent simulations; sweep them
    // on the worker pool and keep the presentation order fixed.
    std::vector<std::function<AppResult()>> makers;
    makers.push_back([] {
        BarnesWorkload w({.bodies = 16384, .treeDepth = 4, .passes = 4,
                          .seed = 31});
        return runMonitored(w);
    });
    makers.push_back([] {
        OceanWorkload w({.edge = 514, .iterations = 2, .seed = 37});
        return runMonitored(w);
    });
    makers.push_back([] {
        WaterWorkload w({.molecules = 10240, .cellEdge = 8, .passes = 2,
                         .seed = 41});
        return runMonitored(w);
    });
    makers.push_back([] {
        MergesortWorkload w({.elements = 100000, .cutoff = 100,
                             .seed = 7, .annotate = true});
        return runHooked<MergesortWorkload>(
            w, [](MergesortWorkload &x) { return x.rootTid(); },
            [](MergesortWorkload &x, std::function<void()> h) {
                x.onRootMerge(std::move(h));
            });
    });
    makers.push_back([] {
        PhotoWorkload w({.width = 1024, .height = 512, .seed = 11,
                         .annotate = true});
        return runHooked<PhotoWorkload>(
            w, [](PhotoWorkload &x) { return x.rowTid(256); },
            [](PhotoWorkload &x, std::function<void()> h) {
                x.onRowStart(256, std::move(h));
            });
    });
    makers.push_back([] {
        TspWorkload w({.cities = 100, .depth = 7, .seed = 23,
                       .annotate = true});
        return runHooked<TspWorkload>(
            w, [](TspWorkload &) { return static_cast<ThreadId>(0); },
            [](TspWorkload &x, std::function<void()> h) {
                x.onNodeStart(1, std::move(h));
            });
    });

    std::vector<AppResult> results(makers.size());
    SweepRunner runner;
    runner.forEach(makers.size(),
                   [&](size_t i) { results[i] = makers[i](); });
    for (const AppResult &r : results) {
        if (!r.verified) {
            std::cerr << "FAIL: " << r.name << " did not verify\n";
            ++failures;
        }
    }

    TextTable table("Figure 5 summary: model accuracy per application");
    table.header({"app", "mean |pred-obs|/obs", "samples below floor",
                  "final observed", "final predicted", "pred/obs"});
    BenchReport report("bench_fig5_footprints");
    Json curves = Json::array();
    for (const AppResult &r : results) {
        printSeries(r);
        double ratio = r.finalObserved > 0
                           ? r.finalPredicted / r.finalObserved
                           : 0.0;
        table.row({r.name, TextTable::pct(r.meanError, 1),
                   std::to_string(r.floorExcluded) + "/" +
                       std::to_string(r.samples.size()),
                   TextTable::num(r.finalObserved, 0),
                   TextTable::num(r.finalPredicted, 0),
                   TextTable::num(ratio, 2)});
        Json c = Json::object();
        c["app"] = Json(r.name);
        c["verified"] = Json(r.verified);
        c["mean_abs_rel_error"] = Json(r.meanError);
        c["samples"] = Json(static_cast<uint64_t>(r.samples.size()));
        c["samples_below_floor"] =
            Json(static_cast<uint64_t>(r.floorExcluded));
        c["final_observed"] = Json(r.finalObserved);
        c["final_predicted"] = Json(r.finalPredicted);
        curves.push(std::move(c));
        // "Good agreement" for all six applications.
        if (r.meanError > 0.40) {
            std::cerr << "FAIL: " << r.name
                      << " error above the good-agreement limit\n";
            ++failures;
        }
        // An accuracy figure computed over almost no samples would be
        // vacuous: most samples must clear the reporting floor.
        if (r.floorExcluded * 2 > r.samples.size() &&
            !r.samples.empty()) {
            std::cerr << "FAIL: " << r.name
                      << " accuracy rests on a minority of samples\n";
            ++failures;
        }
    }
    table.print(std::cout);
    report.set("curves", std::move(curves));

    // ---- Traced run: the barnes experiment with telemetry attached --
    // The monitor's Residual events are the figure's samples seen
    // through the event log; summarising them with the same floor must
    // land on the same accuracy number, bit for bit — the telemetry
    // path adds a reader, never a different answer.
    for (PolicyKind policy : tracedPolicies()) {
        EventLog log(TelemetryConfig{.capacity = 1 << 18});
        AppResult traced = runTracedBarnes(policy, log);
        std::string tag = policyName(policy);
        for (char &c : tag)
            c = static_cast<char>(std::tolower(c));

        TraceSummary summary = summarizeTrace(log, 128.0);
        if (log.dropped() != 0) {
            std::cerr << "FAIL: trace(" << tag << ") dropped "
                      << log.dropped() << " events\n";
            ++failures;
        }
        if (!traced.verified) {
            std::cerr << "FAIL: traced barnes(" << tag
                      << ") did not verify\n";
            ++failures;
        }
        double gap = std::fabs(summary.residualMeanAbsRelError -
                               traced.meanError);
        if (gap > 1e-9 ||
            summary.residualSamplesUsed + summary.residualSamplesBelowFloor !=
                traced.samples.size()) {
            std::cerr << "FAIL: trace(" << tag << ") residual error "
                      << summary.residualMeanAbsRelError
                      << " disagrees with the monitor's "
                      << traced.meanError << "\n";
            ++failures;
        }

        writeResultsFile("trace_fig5_" + tag + ".json",
                         perfettoTrace(log, "fig5-barnes-" + tag).dump());
        std::ostringstream text;
        printTraceSummary(summary, text, "fig5 barnes under " +
                                             std::string(policyName(policy)));
        writeResultsFile("trace_fig5_" + tag + "_summary.txt", text.str());
        std::cout << text.str();
        if (policy == PolicyKind::LFF)
            report.set("telemetry", traceSummaryJson(summary));
    }

    report.write();

    if (failures) {
        std::cerr << "fig5: " << failures << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "fig5: OK — observed footprints in good agreement "
                 "with predictions for all six applications\n";
    return 0;
}
