/**
 * @file
 * Parallel-engine scaling study: host wall-clock throughput of the
 * epoch engine versus the classic serial engine, across machine widths
 * and host shard counts, on a monitored (tracer-attached) run. Also
 * measures the opt-in lax mode's accuracy/speedup tradeoff. Writes
 * results/BENCH_parallel.json; simulated metrics reproduce
 * bit-for-bit, wall-time fields depend on the host (the report records
 * `host_cpus` — shard counts beyond it cannot speed anything up).
 */

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atl/sim/experiment.hh"
#include "atl/sim/sweep.hh"
#include "atl/util/table.hh"
#include "atl/workloads/tasks.hh"

namespace
{

using namespace atl;

/** The monitored workload: enough threads to occupy the widest
 *  platform, sized so the full grid stays in benchmark territory. */
std::unique_ptr<Workload>
makeWorkload()
{
    return std::make_unique<TasksWorkload>(
        TasksWorkload::Params{256, 100, 20});
}

RunMetrics
run(unsigned n_cpus, EngineKind engine, unsigned shards,
    unsigned lax_factor = 1)
{
    MachineConfig cfg;
    cfg.numCpus = n_cpus;
    cfg.policy = PolicyKind::LFF;
    cfg.engine = engine;
    cfg.hostShards = shards;
    cfg.laxFactor = lax_factor;
    auto workload = makeWorkload();
    return runWorkload(*workload, cfg, true, true);
}

double
relDelta(uint64_t reference, uint64_t value)
{
    if (reference == 0)
        return 0.0;
    double r = static_cast<double>(reference);
    return (static_cast<double>(value) - r) / r;
}

} // namespace

int
main()
{
    int failures = 0;
    unsigned host_cpus = std::thread::hardware_concurrency();

    BenchReport report("bench_parallel_scaling");
    report.set("host_cpus", Json(static_cast<uint64_t>(host_cpus)));
    report.set("policy", Json("LFF"));
    report.set("workload", Json(makeWorkload()->parameters()));

    const unsigned widths[] = {8, 16, 64};
    const unsigned shard_counts[] = {1, 2, 4};

    Json scaling = Json::array();
    TextTable table("Epoch-engine scaling (monitored LFF run, refs/s)");
    table.header({"cpus", "engine", "shards", "host s", "refs/s",
                  "vs classic", "identical"});

    for (unsigned n_cpus : widths) {
        RunMetrics classic = run(n_cpus, EngineKind::Classic, 1);
        if (!classic.verified) {
            std::cerr << "FAIL: classic run at " << n_cpus
                      << " cpus did not verify\n";
            ++failures;
        }
        RunMetrics epoch_one; // epoch reference for the identity check

        for (int engine = 0; engine < 2; ++engine) {
            for (unsigned shards : shard_counts) {
                if (engine == 0 && shards > 1)
                    continue; // the classic engine has no shards
                RunMetrics m =
                    engine == 0
                        ? classic
                        : run(n_cpus, EngineKind::Epoch, shards);
                bool identical = true;
                if (engine == 1) {
                    if (!m.verified) {
                        std::cerr << "FAIL: epoch run at " << n_cpus
                                  << " cpus x " << shards
                                  << " shards did not verify\n";
                        ++failures;
                    }
                    if (shards == 1) {
                        epoch_one = m;
                    } else if (m != epoch_one) {
                        identical = false;
                        std::cerr << "FAIL: epoch metrics diverged at "
                                  << n_cpus << " cpus x " << shards
                                  << " shards\n";
                        ++failures;
                    }
                }
                double vs_classic =
                    m.hostSeconds > 0.0
                        ? classic.hostSeconds / m.hostSeconds
                        : 0.0;
                double vs_one_shard =
                    engine == 1 && m.hostSeconds > 0.0
                        ? epoch_one.hostSeconds / m.hostSeconds
                        : 1.0;

                Json row = Json::object();
                row["num_cpus"] = Json(static_cast<uint64_t>(n_cpus));
                row["engine"] =
                    Json(engine == 0 ? "classic" : "epoch");
                row["shards"] = Json(static_cast<uint64_t>(
                    engine == 0 ? 1 : shards));
                row["makespan"] = Json(m.makespan);
                row["e_misses"] = Json(m.eMisses);
                row["refs_issued"] = Json(m.refsIssued);
                row["host_seconds"] = Json(m.hostSeconds);
                row["refs_per_sec"] = Json(m.refsPerSec());
                row["speedup_vs_classic"] = Json(vs_classic);
                row["speedup_vs_one_shard"] = Json(vs_one_shard);
                row["identical_to_one_shard"] = Json(identical);
                scaling.push(std::move(row));

                table.row({std::to_string(n_cpus),
                           engine == 0 ? "classic" : "epoch",
                           std::to_string(engine == 0 ? 1 : shards),
                           TextTable::num(m.hostSeconds, 3),
                           TextTable::num(m.refsPerSec() / 1e6, 2) + "M",
                           TextTable::num(vs_classic, 2),
                           identical ? "yes" : "NO"});
            }
        }
    }
    table.print(std::cout);
    report.set("scaling", std::move(scaling));

    // Lax mode: one barrier per laxFactor*epochCycles instead of one
    // per quantum. Fewer commits means less synchronisation but
    // coarser cross-processor effect propagation: the schedule drifts
    // from the tight-epoch run, deterministically per configuration.
    Json lax = Json::array();
    TextTable lax_table(
        "Lax mode at 64 cpus x 4 shards (accuracy vs speedup)");
    lax_table.header({"laxFactor", "host s", "vs tight", "makespan delta",
                      "e-miss delta"});
    RunMetrics tight = run(64, EngineKind::Epoch, 4, 1);
    for (unsigned lax_factor : {1u, 4u, 16u}) {
        RunMetrics m = lax_factor == 1
                           ? tight
                           : run(64, EngineKind::Epoch, 4, lax_factor);
        if (!m.verified) {
            std::cerr << "FAIL: lax run x" << lax_factor
                      << " did not verify\n";
            ++failures;
        }
        double vs_tight = m.hostSeconds > 0.0
                              ? tight.hostSeconds / m.hostSeconds
                              : 0.0;
        double makespan_delta = relDelta(tight.makespan, m.makespan);
        double miss_delta = relDelta(tight.eMisses, m.eMisses);

        Json row = Json::object();
        row["num_cpus"] = Json(static_cast<uint64_t>(64));
        row["shards"] = Json(static_cast<uint64_t>(4));
        row["lax_factor"] = Json(static_cast<uint64_t>(lax_factor));
        row["makespan"] = Json(m.makespan);
        row["e_misses"] = Json(m.eMisses);
        row["host_seconds"] = Json(m.hostSeconds);
        row["speedup_vs_tight"] = Json(vs_tight);
        row["makespan_rel_delta"] = Json(makespan_delta);
        row["e_miss_rel_delta"] = Json(miss_delta);
        lax.push(std::move(row));

        lax_table.row({std::to_string(lax_factor),
                       TextTable::num(m.hostSeconds, 3),
                       TextTable::num(vs_tight, 2),
                       TextTable::num(makespan_delta * 100.0, 2) + "%",
                       TextTable::num(miss_delta * 100.0, 2) + "%"});
    }
    lax_table.print(std::cout);
    report.set("lax", std::move(lax));

    std::string path = report.write();
    if (!path.empty()) {
        std::cerr << "wrote " << path << "\n";
        // Mirror under the headline artifact name the docs reference.
        std::string mirror =
            BenchReport::resultsDir() + "/BENCH_parallel.json";
        std::error_code ec;
        std::filesystem::copy_file(
            path, mirror, std::filesystem::copy_options::overwrite_existing,
            ec);
        if (!ec)
            std::cerr << "wrote " << mirror << "\n";
    }
    return failures == 0 ? 0 : 1;
}
