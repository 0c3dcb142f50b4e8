/**
 * @file
 * Shared harness for the Section 5 performance experiments (Figures 8
 * and 9, Table 5): runs the four applications of Table 4 (tasks, merge,
 * photo, tsp) under FCFS, LFF and CRT on a given machine width with the
 * paper's platform timing, and prints the paper-style charts.
 */

#ifndef ATL_BENCH_POLICY_MATRIX_HH
#define ATL_BENCH_POLICY_MATRIX_HH

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "atl/obs/event_log.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/fabric.hh"
#include "atl/sim/journal.hh"
#include "atl/sim/sweep.hh"
#include "atl/util/table.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tasks.hh"
#include "atl/workloads/tsp.hh"

namespace atl::bench
{

/** Machine config for the paper's platforms: 1-cpu Ultra-1 (42-cycle
 *  miss) or the N-cpu Enterprise 5000 (50/80-cycle misses). */
inline MachineConfig
platformConfig(unsigned n_cpus, PolicyKind policy)
{
    MachineConfig cfg;
    cfg.numCpus = n_cpus;
    cfg.policy = policy;
    // ATL_HOST_SHARDS=N runs every matrix cell on the epoch engine
    // with N host worker threads (epoch metrics are bit-identical for
    // any N, so the charts are unaffected; only wall time changes).
    if (const char *shards_env = std::getenv("ATL_HOST_SHARDS")) {
        unsigned shards =
            static_cast<unsigned>(std::strtoul(shards_env, nullptr, 10));
        if (shards > 1) {
            cfg.engine = EngineKind::Epoch;
            cfg.hostShards = shards;
        }
    }
    return cfg; // the miss-cost split is applied automatically by width
}

/** Factory for one Table 4 application at the paper's parameters. */
inline std::unique_ptr<Workload>
makeTable4Workload(const std::string &name)
{
    if (name == "tasks") {
        // 1024 tasks, footprints 100 lines each, 100 periods.
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{1024, 100, 100});
    }
    if (name == "merge") {
        // 100,000 uniformly distributed elements, cutoff 100.
        MergesortWorkload::Params p;
        p.elements = 100000;
        p.cutoff = 100;
        return std::make_unique<MergesortWorkload>(p);
    }
    if (name == "photo") {
        // The paper uses 2048x2048 / 2048 threads; we run 2048x1024
        // (2048-pixel rows, 1024 row threads) to keep the full matrix
        // of runs fast; the access structure per thread is identical.
        PhotoWorkload::Params p;
        p.width = 2048;
        p.height = 1024;
        return std::make_unique<PhotoWorkload>(p);
    }
    if (name == "tsp") {
        // 100 cities, ~1000 threads (depth-9 fixed tree: 1023).
        TspWorkload::Params p;
        p.cities = 100;
        p.depth = 9;
        return std::make_unique<TspWorkload>(p);
    }
    return nullptr;
}

/** All three policy runs of one application. */
struct MatrixRow
{
    std::string app;
    std::string parameters;
    RunMetrics fcfs;
    RunMetrics lff;
    RunMetrics crt;
};

/**
 * Run the full application x policy matrix on an n_cpus platform.
 * The 12 runs are independent (each builds its own machine), so they
 * execute on the sweep pool; rows come back in application order with
 * metrics identical to a serial loop. A crashed cell counts as a
 * failure and leaves default metrics in its row slot instead of losing
 * the whole matrix; pass outcome_out to report the partial sweep.
 */
inline std::vector<MatrixRow>
runMatrix(unsigned n_cpus, int &failures,
          SweepOutcome *outcome_out = nullptr,
          FabricOutcome *fabric_out = nullptr)
{
    const char *apps[] = {"tasks", "merge", "photo", "tsp"};
    constexpr PolicyKind policies[] = {PolicyKind::FCFS, PolicyKind::LFF,
                                       PolicyKind::CRT};

    // ATL_FABRIC_WORKERS>=1 shards the matrix cells across forked
    // worker processes instead of pool threads (sim/fabric.hh). The
    // outcome is bit-identical either way; only crash blast radius and
    // wall time differ.
    const char *fabric_env = std::getenv("ATL_FABRIC_WORKERS");
    bool use_fabric = fabric_env && *fabric_env &&
                      std::strtoul(fabric_env, nullptr, 10) >= 1;

    // ATL_TRACE=1 attaches an event log to the first application's run
    // under each policy; the sweep engine prints their
    // atl-trace-summary blocks once the pool is quiet. Logs are owned
    // here so they outlive the sweep that fills and summarises them.
    const char *trace_env = std::getenv("ATL_TRACE");
    bool trace = trace_env && *trace_env && std::string(trace_env) != "0";
    if (trace && use_fabric) {
        // A per-job EventLog fills inside a worker process and cannot
        // cross the pipe; refuse the combination instead of printing
        // twelve empty summaries.
        std::cerr << "warning: ATL_TRACE is ignored under "
                     "ATL_FABRIC_WORKERS (traces cannot cross the "
                     "worker process boundary)\n";
        trace = false;
    }
    std::vector<std::unique_ptr<EventLog>> logs;

    std::vector<SweepJob> jobs;
    for (const char *app : apps) {
        for (PolicyKind policy : policies) {
            std::string name =
                std::string(app) + "/" + policyName(policy);
            EventLog *log = nullptr;
            if (trace && app == apps[0]) {
                logs.push_back(std::make_unique<EventLog>(
                    TelemetryConfig{.capacity = 1 << 16}));
                log = logs.back().get();
            }
            jobs.push_back({name, [app, policy, n_cpus, log] {
                                auto workload = makeTable4Workload(app);
                                MachineConfig cfg =
                                    platformConfig(n_cpus, policy);
                                cfg.telemetry = log;
                                return runWorkload(*workload, cfg, false);
                            }});
            jobs.back().trace = log;
        }
    }

    // The crash-resilience knobs (isolation, timeout, retries, journal)
    // come from the environment so every matrix bench honours them
    // uniformly: ATL_ISOLATE=1 forks each attempt, ATL_JOURNAL=1
    // journals completed cells so an interrupted matrix resumes.
    SweepOptions options = sweepOptionsFromEnv();
    // Job names encode app x policy but not the workload parameters or
    // platform width, so fold those into the fingerprint: editing
    // makeTable4Workload (or the machine) invalidates a stale journal
    // or fabric shard instead of replaying its old metrics as current
    // results.
    std::string fingerprint = std::to_string(n_cpus) + "cpu";
    for (const char *app : apps) {
        fingerprint += ";" + std::string(app) + "{" +
                       makeTable4Workload(app)->parameters() + "}";
    }
    std::unique_ptr<SweepJournal> journal;
    const char *journal_env = std::getenv("ATL_JOURNAL");
    if (!use_fabric && journal_env && *journal_env &&
        std::string(journal_env) != "0") {
        journal = std::make_unique<SweepJournal>(
            "matrix_" + std::to_string(n_cpus) + "cpu");
        options.journal = journal.get();
        options.configFingerprint = fingerprint;
    }

    SweepOutcome outcome;
    FabricOutcome fabric_outcome;
    if (use_fabric) {
        FabricOptions fabric_options;
        fabric_options.cell = options;
        fabric_options.benchName =
            "matrix_" + std::to_string(n_cpus) + "cpu";
        fabric_options.configFingerprint = fingerprint;
        fabric_options = fabricOptionsFromEnv(fabric_options);
        fabric_outcome = runFabric(jobs, fabric_options);
        std::cout << "fabric: " << fabric_outcome.workers
                  << " worker(s), " << fabric_outcome.stolenRuns
                  << " stolen run(s), "
                  << fabric_outcome.workerFailures.size()
                  << " worker death(s), " << fabric_outcome.mergedFromShards
                  << " cell(s) resumed from shards\n";
        outcome = fabric_outcome.sweep;
    } else {
        SweepRunner runner;
        outcome = runner.runCollect(jobs, options);
    }
    if (fabric_out)
        *fabric_out = fabric_outcome;
    for (const SweepJobFailure &f : outcome.failures) {
        std::cerr << "FAIL: job '" << f.name << "' " << f.message
                  << "\n";
        ++failures;
    }
    if (outcome.interrupted) {
        std::cerr << "INTERRUPTED: matrix stopped early; "
                  << outcome.resumedRuns()
                  << " cell(s) were replayed from the journal and the "
                     "rest resume on the next run\n";
        ++failures;
    }

    std::vector<MatrixRow> rows;
    size_t next = 0;
    for (const char *app : apps) {
        MatrixRow row;
        row.app = app;
        row.parameters = makeTable4Workload(app)->parameters();
        for (PolicyKind policy : policies) {
            size_t i = next++;
            const RunMetrics &m = outcome.results[i];
            if (outcome.ok[i] && !m.verified) {
                std::cerr << "FAIL: " << app << " under "
                          << policyName(policy) << " did not verify\n";
                ++failures;
            }
            switch (policy) {
              case PolicyKind::FCFS: row.fcfs = m; break;
              case PolicyKind::LFF: row.lff = m; break;
              case PolicyKind::CRT: row.crt = m; break;
            }
        }
        rows.push_back(row);
    }
    if (outcome_out)
        *outcome_out = std::move(outcome);
    return rows;
}

/** Emit the sweep (partial results included) as the bench's
 *  machine-readable report. */
inline void
writeMatrixReport(const std::string &bench_name,
                  const std::string &platform, unsigned n_cpus,
                  const SweepOutcome &outcome,
                  const FabricOutcome *fabric = nullptr)
{
    BenchReport report(bench_name);
    report.set("platform", Json(platform));
    report.set("num_cpus", Json(static_cast<uint64_t>(n_cpus)));
    if (fabric)
        noteFabricReport(report, *fabric);
    else
        report.noteOutcome(outcome);
    std::string path = report.write();
    if (!path.empty())
        std::cerr << "wrote " << path << "\n";
}

/** Print the paper-style pair of charts: total E-cache misses
 *  (normalised to FCFS) and relative performance. */
inline void
printCharts(const std::string &platform,
            const std::vector<MatrixRow> &rows)
{
    TextTable misses("Total E-cache misses, normalised to FCFS (" +
                     platform + ")");
    misses.header({"app", "FCFS", "LFF", "CRT"});
    for (const MatrixRow &r : rows) {
        misses.row({r.app, "1.00",
                    TextTable::num(static_cast<double>(r.lff.eMisses) /
                                       static_cast<double>(
                                           r.fcfs.eMisses),
                                   2),
                    TextTable::num(static_cast<double>(r.crt.eMisses) /
                                       static_cast<double>(
                                           r.fcfs.eMisses),
                                   2)});
    }
    misses.print(std::cout);

    TextTable perf("Performance relative to FCFS (" + platform + ")");
    perf.header({"app", "FCFS", "LFF", "CRT"});
    for (const MatrixRow &r : rows) {
        perf.row({r.app, "1.00",
                  TextTable::num(RunMetrics::speedup(r.fcfs, r.lff), 2),
                  TextTable::num(RunMetrics::speedup(r.fcfs, r.crt), 2)});
    }
    perf.print(std::cout);

    TextTable params("Table 4: input parameters for application runs");
    params.header({"app", "parameters"});
    for (const MatrixRow &r : rows)
        params.row({r.app, r.parameters});
    params.print(std::cout);
}

} // namespace atl::bench

#endif // ATL_BENCH_POLICY_MATRIX_HH
