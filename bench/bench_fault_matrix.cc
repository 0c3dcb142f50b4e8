/**
 * @file
 * Fault-matrix smoke: runs a 3x3 matrix of fault plans (counter chaos,
 * annotation chaos, full chaos) against three small workloads and
 * checks the graceful-degradation guarantee end to end — every run
 * terminates with verified output, counter-fault plans visibly trip the
 * scheduler's plausibility checks and fallback, and annotation faults
 * never affect correctness.
 *
 * This is the robustness analogue of the Figure 8/9 matrices: instead
 * of sweeping policies it sweeps adversarial conditions. The report it
 * writes stays `complete` — injected faults degrade scheduling quality,
 * never the sweep itself.
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "atl/fault/fault.hh"
#include "atl/sim/experiment.hh"
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
    if (name == "photo") {
        PhotoWorkload::Params p;
        p.width = 128;
        p.height = 64;
        return std::make_unique<PhotoWorkload>(p);
    }
    return nullptr;
}

struct PlanSpec
{
    const char *name;
    FaultPlan plan;
    bool expectCounterFaults;
};

} // namespace

int
main()
{
    std::cout << "Fault-injection matrix (3 plans x 3 workloads, "
                 "2-cpu LFF)\n\n";
    int failures = 0;

    const PlanSpec plans[] = {
        {"counter-chaos", FaultPlan::counterChaos(), true},
        {"annotation-chaos", FaultPlan::annotationChaos(), false},
        {"full-chaos", FaultPlan::fullChaos(), true},
    };
    const char *apps[] = {"tasks", "merge", "photo"};

    std::vector<SweepJob> jobs;
    for (size_t p = 0; p < std::size(plans); ++p) {
        for (size_t a = 0; a < std::size(apps); ++a) {
            const FaultPlan plan = plans[p].plan;
            const char *app = apps[a];
            uint64_t seed =
                SweepRunner::deriveSeed(0xfa117ull, p * 8 + a);
            std::string name =
                std::string(plans[p].name) + "/" + app;
            jobs.push_back({name, [plan, app, seed] {
                                FaultInjector faults(plan, seed);
                                auto workload = makeSmallWorkload(app);
                                MachineConfig cfg;
                                cfg.numCpus = 2;
                                cfg.policy = PolicyKind::LFF;
                                cfg.faults = &faults;
                                return runWorkload(*workload, cfg,
                                                   false);
                            }});
        }
    }

    SweepRunner runner;
    SweepOutcome outcome = runner.runCollect(jobs);
    for (const SweepJobFailure &f : outcome.failures) {
        std::cerr << "FAIL: job '" << f.name << "' crashed: "
                  << f.message << "\n";
        ++failures;
    }

    TextTable table("Degradation under injected faults");
    table.header({"plan/app", "verified", "fault events", "implausible",
                  "clamped", "fallback act/rec"});

    size_t next = 0;
    for (size_t p = 0; p < std::size(plans); ++p) {
        uint64_t plan_faults = 0;
        uint64_t plan_implausible = 0;
        uint64_t plan_activations = 0;
        uint64_t plan_recoveries = 0;
        for (size_t a = 0; a < std::size(apps); ++a) {
            size_t i = next++;
            if (!outcome.ok[i])
                continue;
            const RunMetrics &r = outcome.results[i];
            const DegradationStats &d = r.degradation;
            if (!r.verified) {
                std::cerr << "FAIL: " << jobs[i].name
                          << " produced wrong output under faults\n";
                ++failures;
            }
            plan_faults += d.faultEvents;
            plan_implausible += d.implausibleSamples;
            plan_activations += d.fallbackActivations;
            plan_recoveries += d.fallbackRecoveries;
            table.row({jobs[i].name, r.verified ? "yes" : "NO",
                       std::to_string(d.faultEvents),
                       std::to_string(d.implausibleSamples),
                       std::to_string(d.clampedMisses),
                       std::to_string(d.fallbackActivations) + "/" +
                           std::to_string(d.fallbackRecoveries)});
        }
        if (plan_faults == 0) {
            std::cerr << "FAIL: plan " << plans[p].name
                      << " injected no faults at all\n";
            ++failures;
        }
        if (plans[p].expectCounterFaults) {
            if (plan_implausible == 0) {
                std::cerr << "FAIL: plan " << plans[p].name
                          << " never tripped a plausibility check\n";
                ++failures;
            }
            if (plan_activations == 0) {
                std::cerr << "FAIL: plan " << plans[p].name
                          << " never pushed a cpu into fallback\n";
                ++failures;
            }
            if (plan_recoveries == 0) {
                std::cerr << "FAIL: plan " << plans[p].name
                          << " never recovered from fallback\n";
                ++failures;
            }
        }
    }
    table.print(std::cout);

    BenchReport report("bench_fault_matrix");
    report.set("plans", Json(static_cast<uint64_t>(std::size(plans))));
    report.noteOutcome(outcome);
    std::string path = report.write();
    if (!path.empty())
        std::cerr << "wrote " << path << "\n";

    if (!outcome.complete()) {
        std::cerr << "FAIL: fault matrix sweep lost runs\n";
        ++failures;
    }
    if (failures) {
        std::cerr << "fault-matrix: " << failures
                  << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "fault-matrix: OK — every faulted run terminated with "
                 "correct output and the scheduler degraded "
                 "gracefully\n";
    return 0;
}
