/**
 * @file
 * Distributed-fabric matrix: runs small workloads x all three policies
 * on the sweep fabric (sim/fabric.hh) and proves the fabric's core
 * invariant — the merged outcome is bit-identical (modulo host timing)
 * to a serial in-process run of the same cells — across worker counts
 * and under chaos (seeded worker self-kills plus one deterministic
 * coordinator-driven SIGKILL).
 *
 * Two modes:
 *   - Standalone (no ATL_FABRIC_WORKERS): three internal legs — 2
 *     workers clean, 4 workers clean, 4 workers with
 *     FaultPlan::workerChaos() and killWorkerAfterCells — each checked
 *     against the serial reference.
 *   - Driven (ATL_FABRIC_WORKERS set): one leg with all knobs taken
 *     from the environment (ATL_FABRIC_CHAOS, ATL_FABRIC_KILL_AFTER,
 *     ATL_FABRIC_COORD_KILL_AFTER, plus the usual sweep knobs for the
 *     per-cell options). ATL_FABRIC_COORD_KILL_AFTER=n makes this the
 *     fabric's resume smoke: the coordinator SIGKILLs itself after n
 *     cells and a rerun must recover the journalled cells from the
 *     worker shards and finish with the same report (check.sh --fabric
 *     drives both halves).
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "atl/fault/fault.hh"
#include "atl/obs/event_log.hh"
#include "atl/obs/export.hh"
#include "atl/obs/metrics.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/fabric.hh"
#include "atl/sim/sweep.hh"
#include "atl/util/table.hh"
#include "atl/workloads/mergesort.hh"
#include "atl/workloads/photo.hh"
#include "atl/workloads/tasks.hh"

using namespace atl;

namespace
{

std::unique_ptr<Workload>
makeSmallWorkload(const std::string &name)
{
    if (name == "tasks")
        return std::make_unique<TasksWorkload>(
            TasksWorkload::Params{64, 50, 10});
    if (name == "merge") {
        MergesortWorkload::Params p;
        p.elements = 5000;
        p.cutoff = 100;
        return std::make_unique<MergesortWorkload>(p);
    }
    PhotoWorkload::Params p;
    p.width = 128;
    p.height = 64;
    return std::make_unique<PhotoWorkload>(p);
}

/** The matrix cells. When `registries` is given, every job gets its
 *  own MetricsRegistry (per-job, per the SweepJob::metrics contract)
 *  wired into its machine, so the leg's merged registry can be checked
 *  bit-for-bit against the serial merge. */
std::vector<SweepJob>
matrixJobs(std::vector<std::unique_ptr<MetricsRegistry>> *registries =
               nullptr)
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"tasks", "merge", "photo"}) {
        for (PolicyKind policy :
             {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT}) {
            MetricsRegistry *reg = nullptr;
            if (registries) {
                registries->push_back(
                    std::make_unique<MetricsRegistry>());
                reg = registries->back().get();
            }
            SweepJob job;
            job.name = std::string(app) + "/" + policyName(policy);
            job.body = [app, policy, reg] {
                auto workload = makeSmallWorkload(app);
                MachineConfig cfg;
                cfg.numCpus = 2;
                cfg.policy = policy;
                cfg.metrics = reg;
                return runWorkload(*workload, cfg, false);
            };
            job.metrics = reg;
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::string
matrixFingerprint()
{
    std::string fingerprint = "2cpu";
    for (const char *app : {"tasks", "merge", "photo"}) {
        fingerprint += ";";
        fingerprint += app;
        fingerprint += "{";
        fingerprint += makeSmallWorkload(app)->parameters();
        fingerprint += "}";
    }
    return fingerprint;
}

/** One fabric leg, checked cell-by-cell against the serial reference.
 *  The coordinator-merged metrics registry must also reproduce the
 *  serial fold bit-for-bit (`reference_metrics`); on a complete leg the
 *  merged snapshot is left in `metrics_json` for the report.
 *  @return check failures added */
int
runLeg(const std::string &label, const FabricOptions &options,
       const std::vector<RunMetrics> &reference,
       const std::string &reference_metrics, FabricOutcome &out,
       Json &metrics_json)
{
    int failures = 0;
    std::vector<std::unique_ptr<MetricsRegistry>> job_registries;
    std::vector<SweepJob> jobs = matrixJobs(&job_registries);
    MetricsRegistry merged_metrics;
    FabricOptions leg_options = options;
    leg_options.metrics = &merged_metrics;
    std::cout << "--- leg '" << label << "': " << options.workers
              << " worker(s), workerCrashProb="
              << options.faults.workerCrashProb
              << ", killAfter=" << options.killWorkerAfterCells
              << ", coordKillAfter=" << options.coordinatorKillAfterCells
              << "\n";
    out = runFabric(jobs, leg_options);

    if (!out.sweep.complete()) {
        std::cerr << "FAIL: leg '" << label
                  << "' did not complete (interrupted="
                  << out.sweep.interrupted << ", "
                  << out.sweep.failures.size() << " cell failure(s))\n";
        for (const SweepJobFailure &f : out.sweep.failures)
            std::cerr << "      cell '" << f.name << "': " << f.message
                      << "\n";
        ++failures;
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!out.sweep.ok[i]) {
            std::cerr << "FAIL: leg '" << label << "' lost cell '"
                      << jobs[i].name << "'\n";
            ++failures;
            continue;
        }
        if (!(out.sweep.results[i] == reference[i])) {
            std::cerr << "FAIL: leg '" << label << "' cell '"
                      << jobs[i].name
                      << "' diverged from the serial reference\n";
            ++failures;
        }
        if (!out.sweep.results[i].verified) {
            std::cerr << "FAIL: leg '" << label << "' cell '"
                      << jobs[i].name << "' did not verify\n";
            ++failures;
        }
    }
    if (out.sweep.complete()) {
        metrics_json = merged_metrics.json();
        if (metrics_json.dumpCompact() != reference_metrics) {
            std::cerr << "FAIL: leg '" << label
                      << "' merged metrics registry diverged from the "
                         "serial fold\n";
            ++failures;
        }
    }
    std::cout << "    " << out.workers << " worker(s), "
              << out.stolenRuns << " stolen run(s), "
              << out.workerFailures.size() << " worker death(s), "
              << out.mergedFromShards << " cell(s) merged from shards\n";
    return failures;
}

} // namespace

int
main()
{
    std::cout << "Distributed-fabric matrix (3 apps x 3 policies, "
                 "forked worker pool)\n\n";
    int failures = 0;

    // Serial in-process ground truth: what every fabric leg must
    // reproduce bit-identically (modulo host timing). The per-job
    // metrics registries folded in index order are the ground truth for
    // the coordinator-merged registry of every leg.
    std::vector<std::unique_ptr<MetricsRegistry>> ref_registries;
    std::vector<SweepJob> ref_jobs = matrixJobs(&ref_registries);
    std::vector<RunMetrics> reference = SweepRunner(1).run(ref_jobs);
    MetricsRegistry ref_merged;
    for (const auto &reg : ref_registries)
        ref_merged.merge(*reg);
    std::string reference_metrics = ref_merged.json().dumpCompact();

    EventLog telemetry(TelemetryConfig{.capacity = 1 << 12});
    FabricOptions base;
    base.benchName = "bench_fabric_matrix";
    base.configFingerprint = matrixFingerprint();
    base.cell = sweepOptionsFromEnv();
    base.faultSeed = 0xfab1ull;
    base.telemetry = &telemetry;

    FabricOutcome last;
    Json last_metrics;
    bool driven = std::getenv("ATL_FABRIC_WORKERS") != nullptr;
    if (driven) {
        // check.sh mode: one leg, all knobs from the environment.
        failures += runLeg("env", fabricOptionsFromEnv(base), reference,
                           reference_metrics, last, last_metrics);
    } else {
        FabricOptions two = base;
        two.workers = 2;
        failures += runLeg("2-clean", two, reference, reference_metrics,
                           last, last_metrics);

        FabricOptions four = base;
        four.workers = 4;
        failures += runLeg("4-clean", four, reference, reference_metrics,
                           last, last_metrics);

        FabricOptions chaos = base;
        chaos.workers = 4;
        chaos.faults = FaultPlan::workerChaos();
        chaos.killWorkerAfterCells = 3;
        failures += runLeg("4-chaos", chaos, reference, reference_metrics,
                           last, last_metrics);
        if (last.workerFailures.empty()) {
            std::cerr << "FAIL: chaos leg killed no worker — the "
                         "matrix is not exercising the fabric's "
                         "death path\n";
            ++failures;
        }
    }

    TraceSummary summary = summarizeTrace(telemetry);
    std::cout << "\nfabric telemetry: " << summary.workerDeaths
              << " worker death(s), " << summary.cellsStolen
              << " steal(s), " << summary.sweepResumes
              << " resume(s)\n";

    TextTable table("Fabric containment per cell (last leg)");
    table.header({"cell", "status", "resumed"});
    std::vector<SweepJob> jobs = matrixJobs();
    for (size_t i = 0; i < jobs.size(); ++i) {
        table.row({jobs[i].name,
                   i < last.sweep.ok.size() && last.sweep.ok[i]
                       ? "ok"
                       : "LOST",
                   i < last.sweep.resumed.size() && last.sweep.resumed[i]
                       ? "yes"
                       : "no"});
    }
    table.print(std::cout);

    BenchReport report("bench_fabric_matrix");
    report.set("telemetry", traceSummaryJson(summary));
    noteFabricReport(report, last);
    // Simulation-derived metrics only, so a fabric report diffs clean
    // against a serial run of the same matrix (check.sh --fabric).
    if (last_metrics.isObject())
        report.set("metrics", last_metrics);
    std::string path = report.write();
    if (!path.empty())
        std::cerr << "wrote " << path << "\n";

    if (failures) {
        std::cerr << "fabric-matrix: " << failures
                  << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "fabric-matrix: OK — every leg reproduced the serial "
                 "reference bit-for-bit\n";
    return 0;
}
