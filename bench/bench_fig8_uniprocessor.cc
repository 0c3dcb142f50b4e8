/**
 * @file
 * Figure 8 reproduction: performance impact of locality scheduling on
 * the single-processor Ultra-1 model — total E-cache misses and overall
 * performance for tasks, merge, photo and tsp under FCFS, LFF and CRT.
 *
 * Shape checks from the paper:
 *   - tasks and merge improve substantially (tasks runs more than
 *     ~1.5x faster, a large share of misses eliminated);
 *   - tsp eliminates only a moderate number of misses (compulsory
 *     copies dominate);
 *   - photo's FCFS order is already cache-friendly on one processor:
 *     locality policies bring no gain and a small slowdown from their
 *     more complex data structures.
 */

#include "policy_matrix.hh"

using namespace atl;
using namespace atl::bench;

int
main()
{
    int failures = 0;
    std::cout << "Reproducing paper Figure 8 (1-cpu Ultra-1 model, "
                 "42-cycle E-miss)\n\n";
    WallTimer timer;
    SweepOutcome outcome;
    FabricOutcome fabric;
    std::vector<MatrixRow> rows = runMatrix(1, failures, &outcome, &fabric);
    // Host time goes to stderr: stdout is the deterministic capture
    // that scripts/regen_results.sh compares with results/*.txt.
    std::cerr << "matrix swept in " << timer.seconds() << " s on "
              << SweepRunner::defaultJobs() << " worker(s)\n";
    printCharts("1-cpu Ultra-1", rows);
    writeMatrixReport("bench_fig8_uniprocessor", "1-cpu Ultra-1", 1,
                      outcome, fabric.workers ? &fabric : nullptr);

    for (const MatrixRow &r : rows) {
        double lff_elim = RunMetrics::missesEliminated(r.fcfs, r.lff);
        double crt_elim = RunMetrics::missesEliminated(r.fcfs, r.crt);
        double lff_speed = RunMetrics::speedup(r.fcfs, r.lff);

        if (r.app == "tasks") {
            if (lff_elim < 0.6 || crt_elim < 0.6 || lff_speed < 1.5) {
                std::cerr << "FAIL: tasks should improve strongly on "
                             "1 cpu (paper: 92% misses, 2.38x)\n";
                ++failures;
            }
        } else if (r.app == "merge") {
            if (lff_elim < 0.2 || lff_speed < 1.05) {
                std::cerr << "FAIL: merge should improve on 1 cpu "
                             "(paper: 57% misses, 1.59x)\n";
                ++failures;
            }
        } else if (r.app == "tsp") {
            // Only a moderate number of misses eliminated (paper: 12%).
            if (lff_elim > 0.5) {
                std::cerr << "FAIL: tsp misses eliminated implausibly "
                             "high on 1 cpu\n";
                ++failures;
            }
        } else if (r.app == "photo") {
            // FCFS is near-optimal: within a few percent either way.
            if (lff_elim > 0.25 || lff_speed > 1.25 || lff_speed < 0.85) {
                std::cerr << "FAIL: photo on 1 cpu should be near "
                             "FCFS (paper: -1% misses, 0.97x)\n";
                ++failures;
            }
        }
    }

    if (failures) {
        std::cerr << "fig8: " << failures << " check(s) FAILED\n";
        return 1;
    }
    std::cout << "fig8: OK — uniprocessor shape matches the paper\n";
    return 0;
}
