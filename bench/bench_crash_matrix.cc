/**
 * @file
 * Crash-isolation matrix: runs small workloads x all three policies
 * with FaultPlan::crashChaos() injected — most cells crash-prone, each
 * attempt dying by SIGSEGV / abort / silent _exit / infinite loop with
 * probability 1/2 — under SweepOptions::isolate with retries, backoff
 * and a durable journal. The sweep must end *complete*: every crash is
 * contained in a forked child, retried with a fresh attempt seed, and
 * the surviving metrics must be bit-identical (modulo host timing) to
 * a clean in-process reference run of the same cells.
 *
 * ATL_SWEEP_KILL_AFTER=n (via sweepOptionsFromEnv) turns the bench into
 * the journal-resume smoke: the sweep SIGKILLs itself after n completed
 * cells, and a rerun must resume from the journal and finish with the
 * same report (check.sh --crash drives both halves).
 *
 * A second, *checkpointed* column then runs the same cells with the
 * chaos moved inside the simulation — seeded per-commit-boundary crash
 * rolls (FaultPlan::crashChaos(mid_run)) plus one calibrated guaranteed
 * mid-run death per cell — under SweepOptions::checkpointCycles, so
 * dead attempts resume from their newest fork-based COW holder instead
 * of re-running from cycle zero. Its bar: the sweep completes, healthy
 * metrics still match the clean reference bit-for-bit, and the report
 * ends with checkpoint_cycles_saved > 0.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "atl/fault/fault.hh"
#include "atl/obs/event_log.hh"
#include "atl/obs/export.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/journal.hh"
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

std::vector<SweepJob>
matrixJobs()
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"tasks", "merge", "photo"}) {
        for (PolicyKind policy :
             {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT}) {
            jobs.push_back({std::string(app) + "/" + policyName(policy),
                            [app, policy] {
                                auto workload = makeSmallWorkload(app);
                                MachineConfig cfg;
                                cfg.numCpus = 2;
                                cfg.policy = policy;
                                return runWorkload(*workload, cfg,
                                                   false);
                            }});
        }
    }
    return jobs;
}

/**
 * The checkpointed column's cells: same matrix, but each body embeds a
 * mid-run fault surface — a calibrated guaranteed death halfway through
 * the cell's clean makespan plus the seeded per-boundary rolls of
 * crashChaos(mid_run) — wired into the machine via MachineConfig::
 * faults. The bodies are seeded (seededBody): the injector seed is the
 * sweep's per-attempt seed, so a cell unlucky enough to roll a chaos
 * crash *before* its first checkpoint (no holder to resume from yet)
 * retries under a fresh roll stream instead of re-dying identically.
 * The seed feeds only the injector, never the simulation, so every
 * surviving attempt still reproduces the reference metrics exactly.
 */
std::vector<SweepJob>
checkpointedJobs(const std::vector<RunMetrics> &reference,
                 double cycle_crash_prob)
{
    std::vector<SweepJob> jobs;
    size_t index = 0;
    for (const char *app : {"tasks", "merge", "photo"}) {
        for (PolicyKind policy :
             {PolicyKind::FCFS, PolicyKind::LFF, PolicyKind::CRT}) {
            uint64_t crash_at = reference[index].makespan / 2;
            SweepJob job;
            job.name = std::string(app) + "/" + policyName(policy);
            job.seededBody = [app, policy, crash_at,
                              cycle_crash_prob](uint64_t seed) {
                FaultPlan plan;
                plan.jobCrashAtCycle = crash_at;
                plan.cycleCrashProb = cycle_crash_prob;
                FaultInjector injector(plan, seed);
                auto workload = makeSmallWorkload(app);
                MachineConfig cfg;
                cfg.numCpus = 2;
                cfg.policy = policy;
                cfg.faults = &injector;
                return runWorkload(*workload, cfg, false);
            };
            jobs.push_back(std::move(job));
            ++index;
        }
    }
    return jobs;
}

} // namespace

int
main()
{
    std::cout << "Crash-isolation matrix (crash-chaos plan, "
                 "3 apps x 3 policies, forked attempts)\n\n";
    int failures = 0;

    // Clean in-process reference first: the same cells, no faults, no
    // isolation, serial. This is the ground truth the healthy metrics
    // of the crashing sweep must reproduce exactly.
    std::vector<RunMetrics> reference =
        SweepRunner(1).run(matrixJobs());

    std::vector<SweepJob> jobs = matrixJobs();
    FaultInjector faults(FaultPlan::crashChaos(), 0xc4a54ull);
    injectJobFaults(jobs, faults);
    std::cout << faults.stats().jobsCrashProne << " of " << jobs.size()
              << " cells are crash-prone\n";

    EventLog telemetry(TelemetryConfig{.capacity = 1 << 12});
    SweepJournal journal("bench_crash_matrix");

    SweepOptions options;
    options.isolate = true;
    options.maxAttempts = 8;
    options.timeoutSeconds = 1.0; // reclaims Spin crashes
    options.backoffBaseMs = 2.0;
    options.backoffMaxMs = 20.0;
    options.retrySeedBase = 0x5eedull;
    options.journal = &journal;
    options.telemetry = &telemetry;
    options = sweepOptionsFromEnv(options);

    // Journal keying: the cell names repeat across any parameter
    // change, so the fingerprint carries everything else that shapes a
    // cell's metrics — workload parameters, machine width, fault plan
    // and seeds. A journal from an older parameterisation is then
    // discarded instead of replayed.
    std::string fingerprint = "crashChaos seed=0xc4a54 retrySeed=";
    fingerprint += std::to_string(options.retrySeedBase);
    fingerprint += " 2cpu";
    for (const char *app : {"tasks", "merge", "photo"}) {
        fingerprint += ";";
        fingerprint += app;
        fingerprint += "{";
        fingerprint += makeSmallWorkload(app)->parameters();
        fingerprint += "}";
    }
    options.configFingerprint = std::move(fingerprint);

    SweepRunner runner;
    SweepOutcome outcome = runner.runCollect(jobs, options);
    for (const SweepJobFailure &f : outcome.failures) {
        std::cerr << "FAIL: cell '" << f.name << "' lost after "
                  << f.attempts << " attempt(s): " << f.message << "\n";
        ++failures;
    }

    TraceSummary summary = summarizeTrace(telemetry);
    TextTable table("Crash containment per cell");
    table.header({"cell", "status", "resumed"});
    for (size_t i = 0; i < jobs.size(); ++i) {
        table.row({jobs[i].name, outcome.ok[i] ? "ok" : "LOST",
                   outcome.resumed[i] ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\nsweep recovery: " << summary.sweepCrashes
              << " crash(es), " << summary.sweepRetries
              << " retrie(s), " << summary.sweepResumes
              << " resume(s)\n";

    // The whole point of the bench: crashChaos kills attempts, yet the
    // sweep completes and every healthy cell matches the clean run.
    if (!outcome.complete()) {
        std::cerr << "FAIL: crash matrix lost cells (isolation or "
                     "retries broke)\n";
        ++failures;
    }
    if (summary.sweepCrashes == 0 && outcome.resumedRuns() == 0) {
        std::cerr << "FAIL: crash plan never crashed an attempt — the "
                     "matrix is not exercising isolation\n";
        ++failures;
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (!outcome.ok[i])
            continue;
        if (!(outcome.results[i] == reference[i])) {
            std::cerr << "FAIL: cell '" << jobs[i].name
                      << "' metrics diverged from the in-process "
                         "reference\n";
            ++failures;
        }
        if (!outcome.results[i].verified) {
            std::cerr << "FAIL: cell '" << jobs[i].name
                      << "' did not verify\n";
            ++failures;
        }
    }

    // ---------------------------------------------------------------
    // Checkpointed column: mid-run crashes, mid-cell resume.
    std::cout << "\nCheckpointed column (mid-run crash chaos, "
                 "fork-based COW resume)\n";

    FaultPlan mid_run = FaultPlan::crashChaos(/*mid_run=*/true);
    std::vector<SweepJob> ckpt_jobs =
        checkpointedJobs(reference, mid_run.cycleCrashProb);

    uint64_t min_makespan = ~uint64_t(0);
    for (const RunMetrics &m : reference)
        min_makespan = std::min(min_makespan, m.makespan);

    SweepJournal ckpt_journal("bench_crash_matrix_ckpt");
    SweepOptions ckpt_options = options;
    ckpt_options.journal = &ckpt_journal;
    // The journal-resume smoke (ATL_SWEEP_KILL_AFTER, check.sh
    // --crash/--checkpoint) targets the classic column above; a second
    // armed kill counter here would also kill the *resume* run and the
    // report would never be written.
    ckpt_options.selfKillAfter = 0;
    // The column calibrates its own cadence from the reference
    // makespans (guaranteeing holders exist before the calibrated
    // crash fires) rather than honouring ATL_CKPT_CYCLES, which is
    // free to be absurd for the healthy cells of the classic column.
    ckpt_options.checkpointCycles =
        std::max<uint64_t>(1, min_makespan / 8);
    std::string ckpt_fingerprint =
        "crashChaos(mid_run) p=" +
        std::to_string(mid_run.cycleCrashProb) +
        " ckpt=" + std::to_string(ckpt_options.checkpointCycles) +
        " retrySeed=" + std::to_string(ckpt_options.retrySeedBase) +
        " 2cpu";
    for (size_t i = 0; i < reference.size(); ++i) {
        ckpt_fingerprint += ";crash_at=";
        ckpt_fingerprint += std::to_string(reference[i].makespan / 2);
    }
    ckpt_options.configFingerprint = std::move(ckpt_fingerprint);

    SweepOutcome ckpt_outcome = runner.runCollect(ckpt_jobs,
                                                  ckpt_options);
    for (const SweepJobFailure &f : ckpt_outcome.failures) {
        std::cerr << "FAIL: checkpointed cell '" << f.name
                  << "' lost after " << f.attempts
                  << " attempt(s): " << f.message << "\n";
        ++failures;
    }

    TextTable ckpt_table("Checkpointed crash containment per cell");
    ckpt_table.header({"cell", "status", "resumed"});
    for (size_t i = 0; i < ckpt_jobs.size(); ++i) {
        ckpt_table.row({ckpt_jobs[i].name,
                        ckpt_outcome.ok[i] ? "ok" : "LOST",
                        ckpt_outcome.resumed[i] ? "yes" : "no"});
    }
    ckpt_table.print(std::cout);
    std::cout << "\nmid-cell checkpoint/restore: "
              << ckpt_outcome.checkpointResumes << " resume(s), "
              << ckpt_outcome.checkpointCyclesSaved
              << " simulated cycle(s) saved\n";

    if (!ckpt_outcome.complete()) {
        std::cerr << "FAIL: checkpointed column lost cells (mid-cell "
                     "resume or retries broke)\n";
        ++failures;
    }
    // The column's reason to exist: mid-run deaths actually resumed
    // from a holder, so re-execution was avoided.
    if (ckpt_outcome.checkpointCyclesSaved == 0) {
        std::cerr << "FAIL: checkpointed column saved no cycles — "
                     "mid-run crashes never resumed from a holder\n";
        ++failures;
    }
    for (size_t i = 0; i < ckpt_jobs.size(); ++i) {
        if (!ckpt_outcome.ok[i])
            continue;
        if (!(ckpt_outcome.results[i] == reference[i])) {
            std::cerr << "FAIL: checkpointed cell '"
                      << ckpt_jobs[i].name
                      << "' metrics diverged from the in-process "
                         "reference\n";
            ++failures;
        }
        if (!ckpt_outcome.results[i].verified) {
            std::cerr << "FAIL: checkpointed cell '"
                      << ckpt_jobs[i].name << "' did not verify\n";
            ++failures;
        }
    }

    // The combined summary covers both columns (they share the event
    // log), so the report's telemetry block carries the checkpoint and
    // resume counts alongside the classic crash/retry ones.
    TraceSummary combined = summarizeTrace(telemetry);

    BenchReport report("bench_crash_matrix");
    report.set("crash_prone_cells",
               Json(faults.stats().jobsCrashProne));
    report.set("telemetry", traceSummaryJson(combined));
    report.noteOutcome(outcome);
    report.noteOutcome(ckpt_outcome);
    std::string path = report.write();
    if (!path.empty())
        std::cerr << "wrote " << path << "\n";

    if (failures) {
        std::cerr << "crash-matrix: " << failures
                  << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "crash-matrix: OK — every crash was contained (or "
                 "resumed mid-cell) and the surviving metrics match "
                 "the clean run\n";
    return 0;
}
