#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "simd/simd.hpp"

namespace perfbench {

void
add_host_facts(Report &report)
{
    report.fact("host.cpus",
                std::to_string(std::thread::hardware_concurrency()));
    report.fact("host.simd_backend", lte::simd::backend_name());
    report.fact("build.compiler", "g++ " __VERSION__);
    report.fact("build.type", PERFBENCH_BUILD_TYPE);
    report.fact("build.LTE_SIMD", PERFBENCH_LTE_SIMD ? "ON" : "OFF");
    report.fact("build.LTE_NATIVE", PERFBENCH_LTE_NATIVE ? "ON" : "OFF");
}

namespace {

/** Eight floats; the compiler lowers it to the build's vector ISA. */
typedef float v8f __attribute__((vector_size(32)));

/** Twelve independent multiply-add chains, @p iters rounds each;
 *  returns a value depending on every chain so none is elided. */
__attribute__((noinline)) float
muladd_chains(std::uint64_t iters, float seed)
{
    constexpr int kChains = 12;
    v8f acc[kChains];
    for (int c = 0; c < kChains; ++c)
        acc[c] = v8f{} + seed * static_cast<float>(c + 1) * 1e-3f;
    const v8f mul = v8f{} + 0.999999f;
    const v8f add = v8f{} + 1e-7f;
    for (std::uint64_t i = 0; i < iters; ++i) {
        for (int c = 0; c < kChains; ++c)
            acc[c] = acc[c] * mul + add;
    }
    v8f sum = v8f{};
    for (int c = 0; c < kChains; ++c)
        sum += acc[c];
    float out = 0.0f;
    for (int l = 0; l < 8; ++l)
        out += sum[l];
    return out;
}

} // namespace

double
measure_host_peak(Report &report)
{
    // Multiply-add peak: best of five ~0.1 s bursts on this thread.
    constexpr std::uint64_t kIters = 4'000'000;
    constexpr double kFlopsPerIter = 12.0 * 8.0 * 2.0;
    double best_gflops = 0.0;
    volatile float sink = 0.0f;
    for (int rep = 0; rep < 5; ++rep) {
        const auto start = Clock::now();
        sink = sink + muladd_chains(kIters, 1.0f + static_cast<float>(rep));
        const double secs = seconds_since(start);
        best_gflops = std::max(best_gflops,
                               kFlopsPerIter * static_cast<double>(kIters) /
                                   secs / 1e9);
    }
    report.metric("host.peak_gflops", best_gflops, "GFLOP/s");
    report.fact("host.peak_method",
                "one thread, 12 independent 8-wide float multiply-add "
                "chains, best of 5");

    // Streaming copy over arrays of at least 4x the last-level cache.
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0)
        llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (llc <= 0)
        llc = 32L << 20;
    const std::size_t bytes = 4 * static_cast<std::size_t>(llc);
    auto src = std::make_unique<char[]>(bytes);
    auto dst = std::make_unique<char[]>(bytes);
    std::memset(src.get(), 1, bytes);
    std::memset(dst.get(), 2, bytes);
    double best_gbps = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        src[static_cast<std::size_t>(rep)] = static_cast<char>(rep);
        const auto start = Clock::now();
        std::memcpy(dst.get(), src.get(), bytes);
        const double secs = seconds_since(start);
        // Bytes moved: every byte is read once and written once.
        best_gbps = std::max(
            best_gbps, 2.0 * static_cast<double>(bytes) / secs / 1e9);
    }
    sink = sink + static_cast<float>(dst[bytes / 2]);
    report.metric("host.copy_gbps", best_gbps, "GB/s");
    report.fact("host.copy_method",
                "memcpy best of 3, read+write bytes counted; arrays " +
                    std::to_string(bytes >> 20) + " MiB each, LLC " +
                    std::to_string(static_cast<std::size_t>(llc) >> 20) +
                    " MiB");
    return best_gflops;
}

} // namespace perfbench
