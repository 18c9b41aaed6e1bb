/**
 * @file
 * google-benchmark microbenchmarks of the DSP kernels the receive
 * chain is built from: FFT plans across size classes, channel
 * estimation, MMSE combiner weights, antenna combining, soft
 * demapping, interleaving, CRC, soft descrambling, the per-user tail
 * tasks, the turbo codec extension, and the op model's per-user
 * pricing that the simulator runs for every dispatched user.
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "simd/simd.hpp"

#include "channel/signal_source.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "phy/channel_estimator.hpp"
#include "phy/combiner.hpp"
#include "phy/crc.hpp"
#include "phy/scfdma.hpp"
#include "phy/scrambler.hpp"
#include "phy/interleaver.hpp"
#include "phy/modulation.hpp"
#include "phy/op_model.hpp"
#include "phy/turbo.hpp"
#include "phy/user_processor.hpp"
#include "phy/zadoff_chu.hpp"

namespace {

using namespace lte;

CVec
random_signal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    CVec v(n);
    for (auto &s : v) {
        s = cf32(static_cast<float>(rng.next_gaussian()),
                 static_cast<float>(rng.next_gaussian()));
    }
    return v;
}

template <bool Inverse>
void
BM_Fft(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    fft::Fft plan(n);
    const CVec in = random_signal(n, n);
    CVec out(n);
    for (auto _ : state) {
        if constexpr (Inverse)
            plan.inverse(in.data(), out.data());
        else
            plan.forward(in.data(), out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

// One size or more per code path: 5-smooth sizes (12, 108, 144, 300,
// 1200; 108 and 144 are with 132 the Fig. 6 mix's heaviest sizes),
// powers of two (the pure radix-4/radix-2 butterflies), direct-DFT
// leaves for primes 7..61 (84 = 12*7, 132 = 12*11 under two radix-2
// levels narrower than a vector, 492 = 12*41, 708 = 12*59,
// 732 = 12*61), the runtime-radix combine (924 = 12*7*11) and
// Bluestein (804 = 12*67, 1164 = 12*97).
void
fft_sizes(benchmark::internal::Benchmark *b)
{
    for (int n : {12, 108, 144, 300, 1200, 256, 1024, 84, 132, 492, 708,
                  732, 924, 804, 1164})
        b->Arg(n);
}
BENCHMARK_TEMPLATE(BM_Fft, false)->Name("BM_FftForward")->Apply(fft_sizes);
BENCHMARK_TEMPLATE(BM_Fft, true)->Name("BM_FftInverse")->Apply(fft_sizes);

/** One (antenna, layer) channel estimate with preallocated output and
 *  scratch, as the engine's chanest tasks run it. */
void
BM_ChannelEstimate(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const CVec ref = phy::user_dmrs(1, 0, m, 0);
    const CVec rx = random_signal(m, m);
    CVec freq(m);
    CVec scratch(phy::estimate_channel_scratch(m));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            phy::estimate_channel_into(rx, ref, freq, scratch));
        benchmark::DoNotOptimize(freq.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_ChannelEstimate)->Arg(120)->Arg(600)->Arg(1200);

/** MMSE combiner weights: flat ChannelView in, re-shaped
 *  CombinerWeights out (Gram and solve kLanes subcarriers at a time
 *  when SIMD is enabled). */
void
BM_CombinerWeightsInto(benchmark::State &state)
{
    const auto layers = static_cast<std::size_t>(state.range(0));
    const std::size_t antennas = 4;
    const std::size_t m = 300;
    const CVec ch = random_signal(antennas * layers * m, 21);
    const phy::ChannelView view{ch.data(), antennas, layers, m};
    phy::CombinerWeights w;
    for (auto _ : state) {
        phy::compute_combiner_weights_into(view, 0.05f, w);
        benchmark::DoNotOptimize(&w);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_CombinerWeightsInto)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

/** The scalar twin of BM_CombinerWeightsInto (one FixedCMat solve per
 *  subcarrier), so one run shows the SIMD/scalar ratio. */
void
BM_CombinerWeightsScalar(benchmark::State &state)
{
    const auto layers = static_cast<std::size_t>(state.range(0));
    const std::size_t antennas = 4;
    const std::size_t m = 300;
    const CVec ch = random_signal(antennas * layers * m, 21);
    const phy::ChannelView view{ch.data(), antennas, layers, m};
    phy::CombinerWeights w;
    for (auto _ : state) {
        phy::compute_combiner_weights_scalar_into(view, 0.05f, w);
        benchmark::DoNotOptimize(&w);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_CombinerWeightsScalar)->Arg(4);

/** Antenna combining of one SC-FDMA symbol into one layer. */
void
BM_Combine(benchmark::State &state)
{
    const auto antennas = static_cast<std::size_t>(state.range(0));
    const std::size_t layers = 2;
    const std::size_t m = 1200;
    const CVec ch = random_signal(antennas * layers * m, 22);
    const phy::ChannelView view{ch.data(), antennas, layers, m};
    phy::CombinerWeights w;
    phy::compute_combiner_weights_into(view, 0.05f, w);

    std::vector<CVec> rx_store;
    for (std::size_t a = 0; a < antennas; ++a)
        rx_store.push_back(random_signal(m, 23 + a));
    std::vector<CfView> rx;
    for (const CVec &v : rx_store)
        rx.emplace_back(v.data(), v.size());

    CVec out(m);
    for (auto _ : state) {
        phy::combine_layer_into(std::span<const CfView>(rx), w, 0, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_Combine)->Arg(2)->Arg(4);

/** The channel estimator's matched filter in isolation. */
void
BM_MatchedFilter(benchmark::State &state)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const CVec rx = random_signal(m, 24);
    const CVec ref = phy::user_dmrs(1, 0, m, 0);
    CVec out(m);
    for (auto _ : state) {
        phy::matched_filter_conj_into(rx, ref, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_MatchedFilter)->Arg(300)->Arg(1200);

/** Soft demapping of 1200 symbols into a preallocated LLR buffer, per
 *  modulation. */
void
BM_SoftDemapInto(benchmark::State &state)
{
    const auto mod = static_cast<Modulation>(state.range(0));
    const std::size_t m = 1200;
    const CVec symbols = random_signal(m, 7);
    std::vector<Llr> llrs(m * bits_per_symbol(mod));
    for (auto _ : state) {
        phy::demodulate_soft_into(symbols, mod, 0.05f, llrs);
        benchmark::DoNotOptimize(llrs.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m));
}
BENCHMARK(BM_SoftDemapInto)->Arg(0)->Arg(1)->Arg(2);

void
BM_Interleave(benchmark::State &state)
{
    const CVec in = random_signal(1200, 3);
    for (auto _ : state) {
        auto out = phy::interleave(in);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Interleave);

void
BM_Crc24(benchmark::State &state)
{
    Rng rng(5);
    std::vector<std::uint8_t> bits(
        static_cast<std::size_t>(state.range(0)));
    for (auto &b : bits)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(phy::crc24(bits));
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Crc24)->Arg(1024)->Arg(16384);

void
BM_TurboEncode(benchmark::State &state)
{
    Rng rng(6);
    std::vector<std::uint8_t> info(
        static_cast<std::size_t>(state.range(0)));
    for (auto &b : info)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(phy::turbo_encode(info));
}
BENCHMARK(BM_TurboEncode)->Arg(256)->Arg(1024);

/**
 * The workspace decoder at a fixed 6-iteration budget (crc_poly = 0,
 * so no early termination skews the comparison).  `simd` toggles
 * force_scalar: the ratio of the two medians at k = 6144 is the
 * SIMD-trellis speedup the PR 7 acceptance tracks (>= 4x).
 */
void
turbo_decode_block_bench(benchmark::State &state, bool simd)
{
    Rng rng(8);
    const std::size_t k = static_cast<std::size_t>(state.range(0));
    std::vector<std::uint8_t> info(k);
    for (auto &b : info)
        b = static_cast<std::uint8_t>(rng.next_u64() & 1);
    const auto coded = phy::turbo_encode(info);
    std::vector<Llr> llrs(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
        llrs[i] = (coded[i] ? -2.0f : 2.0f) +
                  static_cast<float>(rng.next_gaussian());
    }
    const phy::QppInterleaver &pi = phy::qpp_interleaver(k);
    phy::TurboDecoderConfig cfg;
    cfg.iterations = phy::turbo_iterations_for(phy::DegradeLevel::kNone);
    cfg.force_scalar = !simd;
    phy::TurboWorkspace ws;
    ws.reserve(k);
    std::vector<std::uint8_t> bits(k);
    for (auto _ : state) {
        benchmark::DoNotOptimize(phy::turbo_decode_block_into(
            llrs, k, pi, cfg, 0, ws, BitSpan(bits.data(), k)));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(k));
}

void
BM_TurboDecodeSimd(benchmark::State &state)
{
    turbo_decode_block_bench(state, true);
}
BENCHMARK(BM_TurboDecodeSimd)->Arg(256)->Arg(1024)->Arg(6144);

void
BM_TurboDecodeScalar(benchmark::State &state)
{
    turbo_decode_block_bench(state, false);
}
BENCHMARK(BM_TurboDecodeScalar)->Arg(1024)->Arg(6144);

void
BM_GoldSequence(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            phy::gold_sequence(0x12345, 14400));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 14400);
}
BENCHMARK(BM_GoldSequence);

/** Soft descrambling of one tail codeblock's slice (6144 LLRs) at a
 *  nonzero codeword offset, so the Gold jump is part of the cost. */
void
BM_DescrambleSoft(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t offset = 2 * n;
    Rng rng(13);
    std::vector<Llr> llrs(n);
    for (auto &v : llrs)
        v = static_cast<float>(rng.next_gaussian());
    const std::uint32_t init = phy::scrambling_init(3);
    for (auto _ : state) {
        phy::descramble_soft_inplace(llrs, init, offset);
        benchmark::DoNotOptimize(llrs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DescrambleSoft)->Arg(6144);

/**
 * Every tail task of one 50-PRB single-layer user (600 subcarriers x
 * 12 data symbols): deinterleave, soft demap, EVM, descramble and
 * harden, per modulation.  Items are LLRs.
 */
void
BM_TailTask(benchmark::State &state)
{
    phy::UserParams params;
    params.prb = 50;
    params.layers = 1;
    params.mod = static_cast<Modulation>(state.range(0));
    const phy::ReceiverConfig cfg;
    Rng rng(17);
    const auto signal = channel::random_user_signal(params, cfg.n_antennas,
                                                    rng);
    phy::UserProcessor proc(cfg);
    proc.bind(params, &signal);
    for (std::size_t t = 0; t < proc.n_chanest_tasks(); ++t)
        proc.run_chanest_task(t);
    proc.compute_weights();
    for (std::size_t t = 0; t < proc.n_demod_tasks(); ++t)
        proc.run_demod_task(t);
    for (auto _ : state) {
        for (std::size_t t = 0; t < proc.n_tail_tasks(); ++t)
            proc.run_tail_task(t);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(phy::capacity_bits(params)));
}
BENCHMARK(BM_TailTask)->Arg(0)->Arg(1)->Arg(2);

void
BM_ScFdmaModulate(benchmark::State &state)
{
    phy::ScFdmaConfig cfg;
    const CVec carrier =
        phy::map_to_carrier(random_signal(1200, 4), 0, cfg);
    for (auto _ : state) {
        auto time = phy::scfdma_modulate(carrier, 1, cfg);
        benchmark::DoNotOptimize(time.data());
    }
}
BENCHMARK(BM_ScFdmaModulate);

void
BM_FullUserSubframe(benchmark::State &state)
{
    phy::UserParams params;
    params.prb = static_cast<std::uint32_t>(state.range(0));
    params.layers = 2;
    params.mod = Modulation::k16Qam;
    Rng rng(11);
    const auto signal = channel::random_user_signal(params, 4, rng);
    const phy::ReceiverConfig cfg;
    // Long-lived processor, re-bound per subframe: the steady-state
    // pattern of the engines (allocation-free past the first bind).
    phy::UserProcessor proc(cfg);
    for (auto _ : state) {
        proc.bind(params, &signal);
        benchmark::DoNotOptimize(proc.process_all());
    }
}
BENCHMARK(BM_FullUserSubframe)->Arg(10)->Arg(50)->Arg(200);

/**
 * phy::user_task_costs over a fixed, seeded mix of 256 users (2-200
 * PRBs, 1-4 layers, every modulation) at 4 antennas: the op model's
 * price of one dispatched user in the simulator.  Items are users.
 */
void
BM_UserTaskCosts(benchmark::State &state)
{
    Rng rng(23);
    std::vector<phy::UserParams> users(256);
    for (phy::UserParams &user : users) {
        user.prb = static_cast<std::uint32_t>(rng.next_in(2, 200));
        user.layers = static_cast<std::uint32_t>(rng.next_in(1, 4));
        user.mod = static_cast<Modulation>(rng.next_below(3));
    }
    for (auto _ : state) {
        std::uint64_t total = 0;
        for (const phy::UserParams &user : users)
            total += phy::user_task_costs(user, 4).total();
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_UserTaskCosts);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::AddCustomContext("simd_backend", lte::simd::backend_name());
    benchmark::AddCustomContext(
        "simd_enabled", lte::simd::enabled() ? "true" : "false");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
