/**
 * @file
 * Table 3 reproduction: the cost of priority updates per thread for LFF
 * and CRT, in floating point operations and in measured nanoseconds
 * (google-benchmark).
 *
 * Paper's accounting (FP instructions): LFF blocking 4, dependent 5;
 * CRT blocking 2, dependent 5; independent 0 for both. Our counted
 * costs differ slightly because (a) the shared m(t)*log k product is
 * charged once per switch rather than per thread and (b) CRT's blocking
 * case also refreshes the stored footprint (3 ops) that the paper
 * accounts elsewhere; the benchmark prints both accountings side by
 * side. The headline property — zero operations for independent
 * threads — holds exactly.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "atl/model/priority.hh"
#include "atl/sim/sweep.hh"

using namespace atl;

namespace
{

const FootprintModel &
model()
{
    static FootprintModel instance(8192);
    return instance;
}

void
BM_LffBlockingUpdate(benchmark::State &state)
{
    PriorityScheme scheme(PolicyKind::LFF, model());
    FootprintRecord rec;
    rec.s = 500.0;
    rec.mSnap = 0;
    uint64_t m = 0;
    for (auto _ : state) {
        m += 100;
        scheme.beginSwitch(m);
        scheme.updateBlocking(rec, 100);
        benchmark::DoNotOptimize(rec.priority);
    }
}
BENCHMARK(BM_LffBlockingUpdate);

void
BM_LffDependentUpdate(benchmark::State &state)
{
    PriorityScheme scheme(PolicyKind::LFF, model());
    FootprintRecord rec;
    rec.s = 500.0;
    rec.mSnap = 0;
    uint64_t m = 0;
    for (auto _ : state) {
        m += 100;
        scheme.beginSwitch(m);
        scheme.updateDependent(rec, 0.5, 100);
        benchmark::DoNotOptimize(rec.priority);
    }
}
BENCHMARK(BM_LffDependentUpdate);

void
BM_CrtBlockingUpdate(benchmark::State &state)
{
    PriorityScheme scheme(PolicyKind::CRT, model());
    FootprintRecord rec;
    rec.s = 500.0;
    rec.mSnap = 0;
    uint64_t m = 0;
    for (auto _ : state) {
        m += 100;
        scheme.beginSwitch(m);
        scheme.updateBlocking(rec, 100);
        benchmark::DoNotOptimize(rec.priority);
    }
}
BENCHMARK(BM_CrtBlockingUpdate);

void
BM_CrtDependentUpdate(benchmark::State &state)
{
    PriorityScheme scheme(PolicyKind::CRT, model());
    FootprintRecord rec;
    rec.s = 500.0;
    rec.mSnap = 0;
    uint64_t m = 0;
    for (auto _ : state) {
        m += 100;
        scheme.beginSwitch(m);
        scheme.updateDependent(rec, 0.5, 100);
        benchmark::DoNotOptimize(rec.priority);
    }
}
BENCHMARK(BM_CrtDependentUpdate);

void
BM_IndependentThreadNoUpdate(benchmark::State &state)
{
    // The common case: an independent thread needs no work at all.
    // Measured as the cost of *not* touching its record during a
    // switch (i.e., just the blocking thread's own update, amortised
    // over any number of independents).
    PriorityScheme scheme(PolicyKind::LFF, model());
    FootprintRecord blocking;
    blocking.s = 500.0;
    blocking.mSnap = 0;
    std::vector<FootprintRecord> independents(state.range(0));
    for (auto &rec : independents)
        rec.s = 1000.0;
    uint64_t m = 0;
    for (auto _ : state) {
        m += 100;
        scheme.beginSwitch(m);
        scheme.updateBlocking(blocking, 100);
        benchmark::DoNotOptimize(independents.data());
    }
    state.SetLabel("independents untouched: " +
                   std::to_string(state.range(0)));
}
BENCHMARK(BM_IndependentThreadNoUpdate)->Arg(10)->Arg(10000);

/** Print the Table 3 op-count comparison before the timing runs. */
void
printTable3()
{
    struct Case
    {
        PolicyKind kind;
        bool dependent;
        const char *label;
        int paperOps;
    };
    const Case cases[] = {
        {PolicyKind::LFF, false, "LFF blocking", 4},
        {PolicyKind::LFF, true, "LFF dependent", 5},
        {PolicyKind::CRT, false, "CRT blocking", 2},
        {PolicyKind::CRT, true, "CRT dependent", 5},
    };

    std::printf("Table 3: the costs of priority updates (FP ops per "
                "thread)\n");
    std::printf("| %-14s | %-5s | %-8s |\n", "case", "paper", "measured");
    for (const Case &c : cases) {
        PriorityScheme scheme(c.kind, model());
        FootprintRecord rec;
        rec.s = 500.0;
        rec.mSnap = 0;
        scheme.beginSwitch(100);
        uint64_t before = scheme.ops().total();
        if (c.dependent)
            scheme.updateDependent(rec, 0.5, 100);
        else
            scheme.updateBlocking(rec, 100);
        uint64_t measured = scheme.ops().total() - before;
        std::printf("| %-14s | %-5d | %-8llu |\n", c.label, c.paperOps,
                    static_cast<unsigned long long>(measured));
    }
    std::printf("| %-14s | %-5d | %-8d |\n", "independent", 0, 0);
    std::printf("(shared m(t)*log k product: 1 mul per context switch, "
                "not per thread)\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    printTable3();
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag, fmt_flag;
    bool has_out = false;
    for (int i = 1; i < argc; ++i)
        has_out |= std::string(argv[i]).rfind("--benchmark_out", 0) == 0;
    if (!has_out) {
        std::error_code ec;
        std::filesystem::create_directories(BenchReport::resultsDir(),
                                            ec);
        out_flag = "--benchmark_out=" + BenchReport::resultsDir() +
                   "/bench_table3_priority_cost.json";
        fmt_flag = "--benchmark_out_format=json";
        if (!ec) {
            args.push_back(out_flag.data());
            args.push_back(fmt_flag.data());
        }
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    // Host timings go to stderr (and the JSON report): stdout holds
    // only what reproduces bit-for-bit.
    benchmark::ConsoleReporter display;
    display.SetOutputStream(&std::cerr);
    display.SetErrorStream(&std::cerr);
    benchmark::RunSpecifiedBenchmarks(&display);
    benchmark::Shutdown();
    return 0;
}
