/**
 * @file
 * Sample-plane tests: SPSC ring semantics (wraparound, full, empty),
 * frame-pool exhaustion backpressure, offloaded-vs-inline digest
 * parity, lost-frame admission accounting, and a two-thread
 * producer/consumer soak.  Suite names start with "Io" so
 * the tsan preset's test filter picks them up — the soak and the
 * offloaded parity runs genuinely cross threads through the rings.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "io/io_config.hpp"
#include "io/sample_plane.hpp"
#include "io/spsc_ring.hpp"
#include "runtime/engine.hpp"
#include "runtime/input_generator.hpp"
#include "workload/paper_model.hpp"

namespace lte::io {
namespace {

// ------------------------------------------------------------- ring

TEST(IoRing, RejectsBadCapacities)
{
    EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
    EXPECT_THROW(SpscRing<int>(1), std::invalid_argument);
    EXPECT_THROW(SpscRing<int>(3), std::invalid_argument);
    EXPECT_THROW(SpscRing<int>(6), std::invalid_argument);
    EXPECT_NO_THROW(SpscRing<int>(2));
    EXPECT_NO_THROW(SpscRing<int>(64));
}

TEST(IoRing, CeilPow2)
{
    EXPECT_EQ(ceil_pow2(1), 1u);
    EXPECT_EQ(ceil_pow2(2), 2u);
    EXPECT_EQ(ceil_pow2(3), 4u);
    EXPECT_EQ(ceil_pow2(4), 4u);
    EXPECT_EQ(ceil_pow2(5), 8u);
    EXPECT_EQ(ceil_pow2(16), 16u);
    EXPECT_EQ(ceil_pow2(17), 32u);
}

TEST(IoRing, FullAndEmptyBoundaries)
{
    SpscRing<int> ring(4);
    EXPECT_TRUE(ring.empty());
    int out = -1;
    EXPECT_FALSE(ring.try_pop(out)); // empty pop fails

    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.try_push(i));
    EXPECT_FALSE(ring.try_push(99)); // full push fails
    EXPECT_EQ(ring.size(), 4u);

    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(ring.try_push(4)); // slot freed, push succeeds again
    EXPECT_FALSE(ring.try_push(5));
}

TEST(IoRing, FifoOrderSurvivesManyWraparounds)
{
    // Capacity 4 with 1000 values forces 250 index wraps; the masked
    // positions must never alias and order must stay FIFO.
    SpscRing<std::uint64_t> ring(4);
    std::uint64_t next_push = 0, next_pop = 0;
    while (next_pop < 1000) {
        while (next_push < 1000 && ring.try_push(next_push))
            ++next_push;
        std::uint64_t out = 0;
        while (ring.try_pop(out)) {
            ASSERT_EQ(out, next_pop);
            ++next_pop;
        }
    }
    EXPECT_TRUE(ring.empty());
}

// -------------------------------------------------------- transport

TEST(IoTransport, PoolExhaustionAndRecycling)
{
    SampleTransport transport(4);
    EXPECT_EQ(transport.n_frames(), 4u);
    EXPECT_EQ(transport.free_depth(), 4u);

    // Drain the free ring: the fifth acquire must report exhaustion
    // (this is the backpressure signal the producer acts on).
    std::vector<IqFrame *> held;
    for (int i = 0; i < 4; ++i) {
        IqFrame *frame = transport.try_acquire_free();
        ASSERT_NE(frame, nullptr);
        frame->seq = static_cast<std::uint64_t>(i);
        held.push_back(frame);
    }
    EXPECT_EQ(transport.try_acquire_free(), nullptr);

    // Publish in order; consumer sees the same order.
    for (IqFrame *frame : held)
        transport.publish_ready(frame);
    EXPECT_EQ(transport.ready_depth(), 4u);
    for (int i = 0; i < 4; ++i) {
        IqFrame *frame = transport.try_pop_ready();
        ASSERT_NE(frame, nullptr);
        EXPECT_EQ(frame->seq, static_cast<std::uint64_t>(i));
        transport.release(frame);
    }
    EXPECT_EQ(transport.try_pop_ready(), nullptr);

    // Recycled frames are acquirable again.
    EXPECT_EQ(transport.free_depth(), 4u);
    EXPECT_NE(transport.try_acquire_free(), nullptr);
}

TEST(IoConfigValidation, RejectsBadKnobs)
{
    IoConfig cfg;
    cfg.enabled = false;
    EXPECT_NO_THROW(cfg.validate()); // disabled = anything goes

    cfg.enabled = true;
    EXPECT_NO_THROW(cfg.validate());
    cfg.n_frames = 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- feed

TEST(IoFeed, LosslessFeedDeliversEveryTickInOrder)
{
    /** Source that stamps its own call count into subframe_index. */
    struct CountingSource : SampleSource
    {
        std::uint64_t count = 0;
        void
        produce(IqFrame &frame) override
        {
            frame.params.users.clear();
            frame.params.subframe_index = count++;
            frame.signals.clear();
        }
    };

    SampleTransport transport(4);
    CountingSource source;
    FeedConfig cfg;
    cfg.lossless = true; // block on pool exhaustion, lose nothing
    MultiSampleFeed feed({{&transport, &source}}, cfg);

    const std::uint64_t n = 200;
    feed.start(n);
    std::uint64_t seen = 0;
    while (seen < n) {
        IqFrame *frame = transport.try_pop_ready();
        if (frame == nullptr) {
            std::this_thread::yield();
            continue;
        }
        EXPECT_EQ(frame->params.subframe_index, seen);
        EXPECT_EQ(frame->seq, seen);
        ++seen;
        transport.release(frame);
    }
    feed.stop();
    EXPECT_TRUE(feed.finished());
    EXPECT_EQ(feed.stats().produced.load(), n);
    EXPECT_EQ(feed.stats().lost.load(), 0u);
}

// ----------------------------------------------- engine digest parity

using runtime::EngineConfig;
using runtime::RunRecord;

workload::PaperModelConfig
model_config()
{
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 40;
    cfg.prob_update_interval = 5;
    cfg.seed = 77;
    return cfg;
}

EngineConfig
streaming_config()
{
    EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = 3;
    cfg.input.pool_size = 4;
    cfg.input.seed = 77;
    cfg.max_in_flight = 3;
    cfg.admission_queue = 4;
    cfg.delta_ms = 0.0;
    cfg.deadline_ms = 0.0; // lossless backpressure mode
    return cfg;
}

TEST(IoOffloadParity, OffloadedGeneratorMatchesInlineStreamingDigest)
{
    // The tentpole acceptance gate: a producer-thread generator source
    // in lossless mode must reproduce the inline
    // engine's digests bit for bit — same model draws, same signal
    // pool, same admission order, only the thread boundary added.
    const std::size_t n = 25;

    auto inline_engine = runtime::make_engine(streaming_config());
    workload::PaperModel inline_model(model_config());
    const RunRecord ref = inline_engine->run(inline_model, n);

    EngineConfig cfg = streaming_config();
    cfg.io.enabled = true;
    cfg.io.n_frames = 4;
    auto offloaded = runtime::make_engine(cfg);
    workload::PaperModel model(model_config());
    const RunRecord record = offloaded->run(model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record, &why)) << why;
    EXPECT_EQ(ref.digest(), record.digest());

    const auto &stats =
        dynamic_cast<const runtime::StreamingEngine &>(*offloaded)
            .shed_stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.completed, n);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.io_lost, 0u);
}

TEST(IoOffloadParity, OneCellMultiCellOffloadedMatchesStreaming)
{
    // Every cell-id derivation is the identity at cell 1, so a 1-cell
    // offloaded multi-cell run must equal the single-cell engines.
    const std::size_t n = 20;

    auto inline_engine = runtime::make_engine(streaming_config());
    workload::PaperModel inline_model(model_config());
    const RunRecord ref = inline_engine->run(inline_model, n);

    runtime::MultiCellConfig cfg;
    cfg.n_cells = 1;
    cfg.engine = streaming_config();
    cfg.engine.io.enabled = true;
    runtime::MultiCellEngine engine(cfg);
    workload::PaperModel model(model_config());
    std::vector<workload::ParameterModel *> models{&model};
    const runtime::MultiCellRunRecord record = engine.run(models, n);

    ASSERT_EQ(record.cells.size(), 1u);
    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, record.cells[0], &why))
        << why;
    EXPECT_EQ(ref.digest(), record.cells[0].digest());
    EXPECT_EQ(record.shed[0].completed, n);
    EXPECT_EQ(record.shed[0].io_lost, 0u);
}

TEST(IoOffloadParity, MultiCellOffloadedPerCellDigestsAreDeterministic)
{
    // Two offloaded cells: per-cell streams stay independent and
    // deterministic across runs (per-cell signal seeds, per-cell
    // transports — nothing leaks between lanes).
    const std::size_t n = 12;
    auto run_once = [&] {
        runtime::MultiCellConfig cfg;
        cfg.n_cells = 2;
        cfg.engine = streaming_config();
        cfg.engine.io.enabled = true;
            runtime::MultiCellEngine engine(cfg);
        std::vector<workload::PaperModel> models;
        models.reserve(2);
        for (std::size_t c = 0; c < 2; ++c) {
            workload::PaperModelConfig mc = model_config();
            mc.seed = cell_stream_seed(77, engine.cell_id(c));
            models.emplace_back(mc);
        }
        std::vector<workload::ParameterModel *> ptrs{&models[0],
                                                     &models[1]};
        return engine.run(ptrs, n);
    };

    const runtime::MultiCellRunRecord a = run_once();
    const runtime::MultiCellRunRecord b = run_once();
    ASSERT_EQ(a.cells.size(), 2u);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(a.cells[c].digest(), b.cells[c].digest());
        EXPECT_EQ(a.shed[c].completed, n);
    }
    EXPECT_NE(a.cells[0].digest(), a.cells[1].digest());
}

TEST(IoOverload, LostFramesKeepAdmissionInvariants)
{
    // A tiny pool, a fast tick and a slow drain: frames will be lost
    // at the source and shed at admission, but the books must still
    // balance — every tick resolves exactly once.
    const std::size_t n = 60;
    EngineConfig cfg = streaming_config();
    cfg.pool.n_workers = 2;
    cfg.max_in_flight = 2;
    cfg.admission_queue = 2;
    cfg.delta_ms = 0.02;
    cfg.deadline_ms = 1.0;
    cfg.shed_policy = runtime::ShedPolicy::kDropNewest;
    cfg.io.enabled = true;
    cfg.io.n_frames = 2;
    auto engine = runtime::make_engine(cfg);
    workload::PaperModel model(model_config());
    const RunRecord record = engine->run(model, n);

    const auto &stats =
        dynamic_cast<const runtime::StreamingEngine &>(*engine)
            .shed_stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(record.subframes.size(), stats.completed);
    EXPECT_EQ(stats.completed + stats.shed, stats.submitted);
    EXPECT_EQ(stats.shed_queue_full + stats.shed_expired, stats.shed);
    EXPECT_LE(stats.io_lost, stats.shed_queue_full);
}

// ------------------------------------------------------------- soak

TEST(IoConcurrency, RingProducerConsumerSoak)
{
    // Two threads, 200k values through a small ring: tsan checks the
    // acquire/release pairing, the consumer checks FIFO integrity.
    SpscRing<std::uint64_t> ring(8);
    const std::uint64_t n = 200000;

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < n;) {
            if (ring.try_push(i))
                ++i;
            else
                std::this_thread::yield();
        }
    });

    std::uint64_t expected = 0;
    std::uint64_t sum = 0;
    while (expected < n) {
        std::uint64_t out = 0;
        if (ring.try_pop(out)) {
            ASSERT_EQ(out, expected);
            sum += out;
            ++expected;
        } else {
            std::this_thread::yield();
        }
    }
    producer.join();
    EXPECT_EQ(sum, n * (n - 1) / 2);
    EXPECT_TRUE(ring.empty());
}

TEST(IoConcurrency, TransportRecycleSoak)
{
    // The full frame protocol under load: producer acquires, fills,
    // publishes; consumer pops, checks, releases.  50k frames through
    // a 4-frame pool exercises every recycling edge; payload writes
    // must be visible across the ready ring (tsan-verified).
    SampleTransport transport(4);
    const std::uint64_t n = 50000;

    std::thread producer([&] {
        for (std::uint64_t i = 0; i < n;) {
            IqFrame *frame = transport.try_acquire_free();
            if (frame == nullptr) {
                std::this_thread::yield();
                continue;
            }
            frame->seq = i;
            frame->params.subframe_index = i * 3 + 1;
            transport.publish_ready(frame);
            ++i;
        }
    });

    std::uint64_t seen = 0;
    while (seen < n) {
        IqFrame *frame = transport.try_pop_ready();
        if (frame == nullptr) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(frame->seq, seen);
        ASSERT_EQ(frame->params.subframe_index, seen * 3 + 1);
        ++seen;
        transport.release(frame);
    }
    producer.join();
    EXPECT_EQ(transport.free_depth(), 4u);
}

} // namespace
} // namespace lte::io
