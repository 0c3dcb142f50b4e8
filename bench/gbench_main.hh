/**
 * @file
 * Shared main() body of the google-benchmark benches: the console
 * tables go to stderr (stdout holds only what reproduces bit-for-bit)
 * unless the caller asks for a --benchmark_format, whose output goes to
 * stdout for scripts to parse; and unless the caller names its own
 * --benchmark_out the JSON report lands at <results dir>/<bench
 * name>.json next to the other benches' reports.
 */

#ifndef ATL_BENCH_GBENCH_MAIN_HH
#define ATL_BENCH_GBENCH_MAIN_HH

#include <benchmark/benchmark.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "atl/sim/sweep.hh"

namespace atl::bench
{

/**
 * Run the benchmarks selected by the command line.
 * @return the process exit status: 1 when a --benchmark_filter matched
 *         nothing while writing the default report (google-benchmark
 *         would leave an empty file there), 0 otherwise
 */
inline int
runGoogleBenchmarks(int argc, char **argv, const std::string &bench_name)
{
    std::vector<char *> args(argv, argv + argc);
    std::string out_path, out_flag, fmt_flag;
    bool has_out = false, has_format = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        has_out |= arg.rfind("--benchmark_out", 0) == 0;
        has_format |= arg.rfind("--benchmark_format", 0) == 0;
    }
    if (!has_out) {
        std::error_code ec;
        std::filesystem::create_directories(BenchReport::resultsDir(),
                                            ec);
        if (!ec) {
            out_path =
                BenchReport::resultsDir() + "/" + bench_name + ".json";
            out_flag = "--benchmark_out=" + out_path;
            fmt_flag = "--benchmark_out_format=json";
            args.push_back(out_flag.data());
            args.push_back(fmt_flag.data());
        }
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    size_t ran;
    if (has_format) {
        ran = benchmark::RunSpecifiedBenchmarks();
    } else {
        benchmark::ConsoleReporter display;
        display.SetOutputStream(&std::cerr);
        display.SetErrorStream(&std::cerr);
        ran = benchmark::RunSpecifiedBenchmarks(&display);
    }
    std::string filter = benchmark::GetBenchmarkFilter();
    benchmark::Shutdown();
    if (ran == 0 && !out_path.empty()) {
        std::error_code ec;
        std::filesystem::remove(out_path, ec);
        std::cerr << bench_name << ": --benchmark_filter='" << filter
                  << "' matched no benchmark; no report written\n";
        return 1;
    }
    return 0;
}

} // namespace atl::bench

#endif // ATL_BENCH_GBENCH_MAIN_HH
