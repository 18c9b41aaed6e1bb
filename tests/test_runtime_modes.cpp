/**
 * @file
 * Runtime mode tests beyond the core validation suite: DELTA-paced
 * dispatch timing, realistic-signal mode (every CRC green through the
 * parallel pipeline), input-pool semantics, flow control, and
 * engine-parity checks between the serial and pooled engine kinds.
 */
#include <gtest/gtest.h>

#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace lte::runtime {
namespace {

phy::UserParams
small_user()
{
    phy::UserParams u;
    u.id = 0;
    u.prb = 6;
    u.layers = 1;
    u.mod = Modulation::kQpsk;
    return u;
}

TEST(DeltaPacing, DispatchRateIsHonoured)
{
    // 20 subframes at DELTA = 5 ms must take at least ~95 ms even
    // though the work itself is tiny.
    EngineConfig cfg;
    cfg.pool.n_workers = 2;
    cfg.delta_ms = 5.0;
    cfg.input.pool_size = 2;
    auto bench = make_engine(cfg);
    workload::SteadyModel model(small_user());
    const RunRecord record = bench->run(model, 20);
    EXPECT_EQ(record.subframes.size(), 20u);
    EXPECT_GT(record.wall_seconds, 0.09);
}

TEST(RealisticMode, AllCrcsPassThroughParallelPipeline)
{
    EngineConfig cfg;
    cfg.pool.n_workers = 3;
    cfg.input.realistic = true;
    cfg.input.snr_db = 30.0;
    auto bench = make_engine(cfg);
    workload::SteadyModel model(small_user());
    const RunRecord record = bench->run(model, 12);
    EXPECT_DOUBLE_EQ(record.crc_pass_rate(), 1.0);
}

TEST(RealisticMode, ExpectedBitsAvailablePerUser)
{
    InputGeneratorConfig cfg;
    cfg.realistic = true;
    InputGenerator gen(cfg);
    phy::SubframeParams sf;
    sf.users.push_back(small_user());
    const auto signals = gen.signals_for(sf);
    ASSERT_EQ(signals.size(), 1u);
    EXPECT_FALSE(gen.expected_bits(sf.users[0]).empty());
    // Random mode never has expectations.
    InputGenerator random_gen(InputGeneratorConfig{});
    random_gen.signals_for(sf);
    EXPECT_TRUE(random_gen.expected_bits(sf.users[0]).empty());
}

TEST(InputPool, CyclesThroughUniqueDataSets)
{
    InputGeneratorConfig cfg;
    cfg.pool_size = 3;
    InputGenerator gen(cfg);
    phy::SubframeParams sf;
    sf.users.push_back(small_user());
    const auto *first = gen.signals_for(sf)[0];
    const auto *second = gen.signals_for(sf)[0];
    const auto *third = gen.signals_for(sf)[0];
    const auto *fourth = gen.signals_for(sf)[0];
    EXPECT_NE(first, second);
    EXPECT_NE(second, third);
    EXPECT_EQ(first, fourth); // wrapped around the pool of three
}

TEST(InputPool, DeterministicAcrossGenerators)
{
    // Two generators with the same seed produce identical data for
    // the same request sequence (the validation precondition).
    InputGeneratorConfig cfg;
    cfg.pool_size = 2;
    cfg.seed = 123;
    InputGenerator a(cfg), b(cfg);
    phy::SubframeParams sf;
    sf.users.push_back(small_user());
    const auto *sa = a.signals_for(sf)[0];
    const auto *sb = b.signals_for(sf)[0];
    for (std::size_t slot = 0; slot < kSlotsPerSubframe; ++slot) {
        for (std::size_t sym = 0; sym < kSymbolsPerSlot; ++sym) {
            const auto &va = sa->antennas[0].slots[slot][sym];
            const auto &vb = sb->antennas[0].slots[slot][sym];
            for (std::size_t k = 0; k < va.size(); ++k)
                EXPECT_EQ(va[k], vb[k]);
        }
    }
}

TEST(FlowControl, MaxInFlightRespected)
{
    // max_in_flight = 1 serialises subframes; the run must still
    // complete and produce every result.
    EngineConfig cfg;
    cfg.pool.n_workers = 2;
    cfg.max_in_flight = 1;
    auto bench = make_engine(cfg);
    workload::SteadyModel model(small_user());
    const RunRecord record = bench->run(model, 10);
    EXPECT_EQ(record.subframes.size(), 10u);
    for (const auto &sf : record.subframes)
        EXPECT_EQ(sf.users.size(), 1u);
}

// ------------------------------------------------- engine parity

EngineConfig
parity_config(EngineKind kind)
{
    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = 4;
    cfg.input.pool_size = 4;
    cfg.input.seed = 77;
    return cfg;
}

workload::PaperModelConfig
randomized_model_config()
{
    // Compressed ramp so 25 subframes sweep a wide range of user
    // counts, PRB sizes, layers and modulations.
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 40;
    cfg.prob_update_interval = 5;
    cfg.seed = 77;
    return cfg;
}

TEST(EngineParity, SerialAndWorkStealingAreBitIdentical)
{
    // The paper's Sec. IV-D validation through the unified interface:
    // both engines process the same 25 randomized subframes; every
    // per-user checksum (FNV-1a over the decoded CRC-checked bits,
    // i.e. the full LLR->bit pipeline output) must match exactly.
    const std::size_t n = 25;

    auto serial = make_engine(parity_config(EngineKind::kSerial));
    workload::PaperModel serial_model(randomized_model_config());
    const RunRecord ref = serial->run(serial_model, n);

    auto parallel =
        make_engine(parity_config(EngineKind::kStreaming));
    workload::PaperModel parallel_model(randomized_model_config());
    const RunRecord record = parallel->run(parallel_model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());
    EXPECT_GT(ref.user_count(), 0u);
}

TEST(EngineParity, ProcessSubframeMatchesAcrossEngines)
{
    // Same parity at the synchronous single-subframe entry point,
    // including CRC outcomes, over a randomized sequence.
    auto serial = make_engine(parity_config(EngineKind::kSerial));
    auto parallel =
        make_engine(parity_config(EngineKind::kStreaming));

    workload::PaperModel model(randomized_model_config());
    std::size_t users_seen = 0;
    for (std::size_t i = 0; i < 25; ++i) {
        const phy::SubframeParams params = model.next_subframe();
        const SubframeOutcome &a = serial->process_subframe(params);
        const SubframeOutcome &b = parallel->process_subframe(params);
        ASSERT_EQ(a.users.size(), b.users.size()) << "subframe " << i;
        for (std::size_t u = 0; u < a.users.size(); ++u) {
            EXPECT_EQ(a.users[u].user_id, b.users[u].user_id);
            EXPECT_EQ(a.users[u].checksum, b.users[u].checksum)
                << "subframe " << i << " user " << u;
            EXPECT_EQ(a.users[u].crc_ok, b.users[u].crc_ok);
            EXPECT_EQ(a.users[u].evm_rms, b.users[u].evm_rms);
        }
        users_seen += a.users.size();
    }
    EXPECT_GT(users_seen, 0u);
}

TEST(EngineFactory, MakesTheRequestedKind)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kSerial;
    EXPECT_STREQ(make_engine(cfg)->name(), "serial");
    EXPECT_EQ(make_engine(cfg)->worker_pool(), nullptr);
    cfg.kind = EngineKind::kStreaming;
    cfg.pool.n_workers = 2;
    auto ws = make_engine(cfg);
    EXPECT_STREQ(ws->name(), "streaming");
    ASSERT_NE(ws->worker_pool(), nullptr);
    EXPECT_EQ(ws->worker_pool()->n_workers(), 2u);
    EXPECT_STREQ(engine_kind_name(EngineKind::kSerial), "serial");
    EXPECT_STREQ(engine_kind_name(EngineKind::kStreaming), "streaming");
}

TEST(Config, RejectsInvalidBenchmarkConfig)
{
    EngineConfig cfg;
    cfg.max_in_flight = 0;
    EXPECT_THROW(make_engine(cfg), std::invalid_argument);
    cfg = {};
    cfg.delta_ms = -1.0;
    EXPECT_THROW(make_engine(cfg), std::invalid_argument);
}

} // namespace
} // namespace lte::runtime
