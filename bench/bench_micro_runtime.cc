/**
 * @file
 * Micro-benchmarks of the core runtime primitives (google-benchmark):
 * fiber context switch, modelled memory access, thread create/join
 * round trip, and the scheduler's dispatch path. These bound the
 * simulator's own speed (host ns per simulated event), not simulated
 * cycles.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "atl/obs/event_log.hh"
#include "atl/obs/metrics.hh"
#include "atl/runtime/context.hh"
#include "atl/runtime/machine.hh"
#include "atl/runtime/refbatch.hh"
#include "atl/sim/experiment.hh"
#include "atl/sim/tracer.hh"
#include "atl/workloads/tasks.hh"
#include "gbench_main.hh"

using namespace atl;

namespace
{

void
BM_FiberSwitch(benchmark::State &state)
{
    FiberStack stack(64 * 1024);
    Fiber engine, worker;
    bool stop = false;
    worker.arm(stack, [&] {
        while (!stop)
            Fiber::switchTo(worker, engine);
        // A fiber entry must never return: park permanently.
        for (;;)
            Fiber::switchTo(worker, engine);
    });
    for (auto _ : state)
        Fiber::switchTo(engine, worker); // two context switches
    stop = true;
    Fiber::switchTo(engine, worker);
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_FiberSwitch);

void
BM_ModelledAccessHit(benchmark::State &state)
{
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    VAddr va = m.alloc(64, 64);
    // Drive accesses from inside a thread via a generator fiber that
    // yields to the bench loop through counters.
    uint64_t accesses = 0;
    uint64_t target = 0;
    m.spawn([&] {
        m.read(va, 64);
        while (accesses < target) {
            m.read(va, 32);
            ++accesses;
        }
    });
    // Warm and measure in one run: measure total wall time of the run
    // divided by accesses.
    target = 2000000;
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state) {
        benchmark::DoNotOptimize(accesses);
    }
    state.counters["ns_per_hit_access"] =
        dt * 1e9 / static_cast<double>(target);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
}
BENCHMARK(BM_ModelledAccessHit)->Iterations(1);

void
BM_HotPathRefThroughput(benchmark::State &state)
{
    // End-to-end modelled reference throughput (refs/sec of host time)
    // over a 256KB working set: mostly L1 hits with periodic L1-miss /
    // E-hit refills, the mix the policy sweeps spend their time in.
    // The loop issues through the block API, like the workloads do;
    // this is the number the memory-pipeline optimisations move.
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    constexpr uint64_t lines = 4096; // 256KB of 64B lines, half the E$
    constexpr uint64_t target = 4000000;
    VAddr va = m.alloc(lines * 64, 64);
    m.spawn([&] {
        RefBatch batch(m);
        for (uint64_t i = 0; i < target; ++i)
            batch.read(va + (i % lines) * 64, 4);
    });
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(dt);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
    state.counters["ns_per_ref"] =
        dt * 1e9 / static_cast<double>(target);
}
BENCHMARK(BM_HotPathRefThroughput)->Iterations(1);

void
BM_HotPathRefThroughputTelemetry(benchmark::State &state)
{
    // The same stream with an event log attached: telemetry records
    // only at scheduling points, so even the *enabled* feature must be
    // invisible on the per-reference path (perf_gate.sh holds this
    // within 2% of BM_HotPathRefThroughput, which also bounds the
    // disabled path — a null-pointer test per interval — from above).
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    EventLog log;
    cfg.telemetry = &log;
    Machine m(cfg);
    constexpr uint64_t lines = 4096;
    constexpr uint64_t target = 4000000;
    VAddr va = m.alloc(lines * 64, 64);
    m.spawn([&] {
        RefBatch batch(m);
        for (uint64_t i = 0; i < target; ++i)
            batch.read(va + (i % lines) * 64, 4);
    });
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(dt);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
    state.counters["ns_per_ref"] =
        dt * 1e9 / static_cast<double>(target);
    state.counters["events_recorded"] =
        static_cast<double>(log.recorded());
}
BENCHMARK(BM_HotPathRefThroughputTelemetry)->Iterations(1);

void
BM_HotPathRefThroughputMetrics(benchmark::State &state)
{
    // The same stream with the full observability stack on: a metrics
    // registry attached to the machine *and* the phase profiler armed.
    // Metrics record only at interval/switch boundaries and the
    // profiler's scopes wrap the coarse phases, so even fully enabled
    // the per-reference path must stay within 2% of
    // BM_HotPathRefThroughput (perf_gate.sh holds this self-relative,
    // mirroring the telemetry gate).
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    MetricsRegistry registry;
    cfg.metrics = &registry;
    PhaseProfiler::setEnabled(true);
    Machine m(cfg);
    constexpr uint64_t lines = 4096;
    constexpr uint64_t target = 4000000;
    VAddr va = m.alloc(lines * 64, 64);
    m.spawn([&] {
        RefBatch batch(m);
        for (uint64_t i = 0; i < target; ++i)
            batch.read(va + (i % lines) * 64, 4);
    });
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    PhaseProfiler::setEnabled(false);
    for (auto _ : state)
        benchmark::DoNotOptimize(dt);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
    state.counters["ns_per_ref"] =
        dt * 1e9 / static_cast<double>(target);
    state.counters["intervals_counted"] = static_cast<double>(
        registry.counterTotal("machine.intervals"));
}
BENCHMARK(BM_HotPathRefThroughputMetrics)->Iterations(1);

void
BM_HotPathScalarRefThroughput(benchmark::State &state)
{
    // The same stream through the scalar one-call-per-reference API:
    // guards against the batched pipeline taxing unconverted callers.
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    constexpr uint64_t lines = 4096;
    constexpr uint64_t target = 4000000;
    VAddr va = m.alloc(lines * 64, 64);
    m.spawn([&] {
        for (uint64_t i = 0; i < target; ++i)
            m.read(va + (i % lines) * 64, 4);
    });
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(dt);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
    state.counters["ns_per_ref"] =
        dt * 1e9 / static_cast<double>(target);
}
BENCHMARK(BM_HotPathScalarRefThroughput)->Iterations(1);

void
BM_HotPathMissHeavy(benchmark::State &state)
{
    // Same pipeline with a 4MB working set (8x the E-cache): every
    // reference streams through fill/evict and the VM reverse path.
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    constexpr uint64_t lines = 65536; // 4MB of 64B lines
    constexpr uint64_t target = 1000000;
    VAddr va = m.alloc(lines * 64, 64);
    m.spawn([&] {
        RefBatch batch(m);
        for (uint64_t i = 0; i < target; ++i)
            batch.read(va + (i % lines) * 64, 4);
    });
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(dt);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
    state.counters["ns_per_ref"] =
        dt * 1e9 / static_cast<double>(target);
}
BENCHMARK(BM_HotPathMissHeavy)->Iterations(1);

void
BM_HotPathMonitoredMissHeavy(benchmark::State &state)
{
    // The miss-heavy stream with a Tracer attached: every reference
    // drives onL2Fill/onL2Evict owner lookups and footprint counters,
    // the structures the flat-vector tracer layout optimises.
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    Tracer tracer(m);
    constexpr uint64_t lines = 65536; // 4MB of 64B lines
    constexpr uint64_t target = 1000000;
    VAddr va = m.alloc(lines * 64, 64);
    ThreadId tid = m.spawn([&] {
        RefBatch batch(m);
        for (uint64_t i = 0; i < target; ++i)
            batch.read(va + (i % lines) * 64, 4);
    });
    tracer.registerState(tid, va, lines * 64);
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(dt);
    state.counters["refs_per_sec"] = static_cast<double>(target) / dt;
    state.counters["ns_per_ref"] =
        dt * 1e9 / static_cast<double>(target);
}
BENCHMARK(BM_HotPathMonitoredMissHeavy)->Iterations(1);

void
BM_MachineParallelSpeedup(benchmark::State &state)
{
    // Wall-clock effect of host sharding on a monitored wide-machine
    // run: the 64-cpu epoch engine at 4 shards versus 1 shard (the
    // shard counts are metrics-identical, so this is pure host
    // throughput). On hosts with fewer free cores than shards the
    // "speedup" is honestly <= 1 — barrier traffic with nothing to
    // overlap; the gate baselines refs_per_sec of the sharded run.
    auto runOnce = [](unsigned shards) {
        MachineConfig cfg;
        cfg.numCpus = 64;
        cfg.policy = PolicyKind::LFF;
        cfg.engine = EngineKind::Epoch;
        cfg.hostShards = shards;
        TasksWorkload workload(TasksWorkload::Params{256, 100, 20});
        return runWorkload(workload, cfg, true, true);
    };
    RunMetrics one = runOnce(1);
    RunMetrics four = runOnce(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(four.makespan);
    state.counters["refs_per_sec"] = four.refsPerSec();
    state.counters["speedup_vs_one_shard"] =
        four.hostSeconds > 0.0 ? one.hostSeconds / four.hostSeconds
                               : 0.0;
    state.counters["metrics_identical"] = one == four ? 1.0 : 0.0;
}
BENCHMARK(BM_MachineParallelSpeedup)->Iterations(1);

void
BM_ThreadCreateJoin(benchmark::State &state)
{
    // Host cost of a full simulated thread lifecycle, amortised.
    uint64_t count = 20000;
    MachineConfig cfg;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    m.spawn([&] {
        for (uint64_t i = 0; i < count; ++i) {
            ThreadId t = m.spawn([] {});
            m.join(t);
        }
    });
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(count);
    state.counters["ns_per_thread"] =
        dt * 1e9 / static_cast<double>(count);
}
BENCHMARK(BM_ThreadCreateJoin)->Iterations(1);

void
BM_DispatchPathLff(benchmark::State &state)
{
    // Scheduler dispatch cost with a populated heap: yield storms.
    uint64_t yields = 50000;
    MachineConfig cfg;
    cfg.policy = PolicyKind::LFF;
    cfg.modelSchedulerFootprint = false;
    Machine m(cfg);
    VAddr va = m.alloc(200 * 64, 64);
    for (int t = 0; t < 16; ++t) {
        m.spawn([&m, va, yields] {
            m.read(va, 200 * 64);
            for (uint64_t i = 0; i < yields / 16; ++i)
                m.yield();
        });
    }
    auto t0 = std::chrono::steady_clock::now();
    m.run();
    auto dt = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    for (auto _ : state)
        benchmark::DoNotOptimize(yields);
    state.counters["ns_per_dispatch"] =
        dt * 1e9 / static_cast<double>(m.totalSwitches());
}
BENCHMARK(BM_DispatchPathLff)->Iterations(1);

} // namespace

int
main(int argc, char **argv)
{
    return bench::runGoogleBenchmarks(argc, argv, "bench_micro_runtime");
}
