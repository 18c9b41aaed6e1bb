/**
 * @file
 * Zero-allocation guarantee for steady-state subframe processing.
 *
 * The subframe pipeline runs once per millisecond in a real eNodeB;
 * heap allocations on that path cost latency and serialise workers on
 * the allocator lock.  The workspace-arena refactor promises that
 * after warm-up (arenas grown to their high-water mark, FFT plans
 * built, queues and scratch preallocated), Engine::process_subframe()
 * never touches the heap — on either engine.
 *
 * Proven here with counting overrides of the global allocation
 * functions: every operator new variant bumps an atomic counter, and
 * the measured region (20 steady-state subframes after 8 warm-up
 * subframes) must see the counter advance by exactly zero.  The
 * counter is process-global and thread-safe, so allocations made by
 * worker threads inside the measured region are caught too.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <thread>

#include "io/sample_plane.hpp"
#include "mac/scheduler.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"

namespace {

std::atomic<std::size_t> g_alloc_count{0};

void *
counted_alloc(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
counted_alloc_aligned(std::size_t size, std::align_val_t align)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(align);
    if (void *p = std::aligned_alloc(a, (size + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Counting replacements for every allocating operator new variant.
// Deletes forward to free and do not count (we measure allocations).
void *
operator new(std::size_t size)
{
    return counted_alloc(size);
}
void *
operator new[](std::size_t size)
{
    return counted_alloc(size);
}
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return counted_alloc_aligned(size, align);
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return counted_alloc_aligned(size, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace lte::runtime {
namespace {

/** A fixed mixed subframe: four users of different shapes, including
 *  a non-5-smooth allocation (prb=7 -> Bluestein FFT sizes) and a
 *  200-PRB 4-layer 64QAM user whose tail splits into the maximal 48
 *  codeblock tasks — the parallel tail fan-out must stay inside
 *  preallocated deque/LLR capacity on every engine. */
phy::SubframeParams
steady_subframe()
{
    phy::SubframeParams sf;
    sf.subframe_index = 0;

    phy::UserParams a;
    a.id = 0;
    a.prb = 25;
    a.layers = 2;
    a.mod = Modulation::k16Qam;
    sf.users.push_back(a);

    phy::UserParams b;
    b.id = 1;
    b.prb = 7;
    b.layers = 1;
    b.mod = Modulation::kQpsk;
    sf.users.push_back(b);

    phy::UserParams c;
    c.id = 2;
    c.prb = 50;
    c.layers = 4;
    c.mod = Modulation::k64Qam;
    sf.users.push_back(c);

    phy::UserParams d;
    d.id = 3;
    d.prb = 200;
    d.layers = 4;
    d.mod = Modulation::k64Qam;
    sf.users.push_back(d);
    return sf;
}

void
expect_zero_alloc_steady_state(EngineKind kind, bool tracing = false,
                               bool real_turbo = false)
{
    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = 3;
    cfg.pool.strategy = mgmt::Strategy::kNoNap; // yield, never sleep
    cfg.input.pool_size = 4;
    cfg.obs.enabled = tracing;
    if (real_turbo) {
        // The max-log-MAP decode stage must hold the guarantee too:
        // per-thread turbo workspaces and the QPP interleaver cache
        // reach their high-water mark during warm-up.
        cfg.receiver.use_real_turbo = true;
        cfg.receiver.turbo_iterations = 2;
        cfg.input.realistic = true;
        cfg.input.real_turbo = true;
        cfg.input.snr_db = 45.0;
    }
    auto engine = make_engine(cfg);

    const phy::SubframeParams sf = steady_subframe();

    // Warm-up: grow arenas to the high-water mark, build FFT plans,
    // populate input pools and per-thread scratch/plan caches.
    std::uint64_t warm_checksum = 0;
    for (int i = 0; i < 8; ++i) {
        const SubframeOutcome &outcome = engine->process_subframe(sf);
        warm_checksum = outcome.users.front().checksum;
    }

    // Measured region: not one heap allocation allowed, on any thread.
    const std::size_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    std::uint64_t checksum = 0;
    for (int i = 0; i < 20; ++i) {
        const SubframeOutcome &outcome = engine->process_subframe(sf);
        checksum = outcome.users.front().checksum;
    }
    const std::size_t after =
        g_alloc_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "engine '" << engine->name() << "' allocated "
        << (after - before) << " times during 20 steady-state subframes";
    // The work actually ran and is deterministic.
    EXPECT_NE(checksum, 0u);
    EXPECT_EQ(checksum, warm_checksum);

    if (tracing) {
        // Tracing was really on: spans and series samples were
        // recorded into the preallocated buffers, not silently
        // skipped.
        ASSERT_NE(engine->tracer(), nullptr);
        EXPECT_GT(engine->tracer()->total_recorded(), 0u);
        ASSERT_NE(engine->subframe_series(), nullptr);
        EXPECT_EQ(engine->subframe_series()->size(), 28u);
    }
}

TEST(AllocFree, SerialEngineSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_steady_state(EngineKind::kSerial);
}

TEST(AllocFree, WorkStealingEngineSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_steady_state(EngineKind::kStreaming);
}

TEST(AllocFree, SerialEngineTracingEnabledDoesNotAllocate)
{
    // The observability layer must preserve the guarantee: rings,
    // series and counters are preallocated at engine construction, so
    // recording spans in steady state touches no heap.
    expect_zero_alloc_steady_state(EngineKind::kSerial, true);
}

TEST(AllocFree, WorkStealingEngineTracingEnabledDoesNotAllocate)
{
    expect_zero_alloc_steady_state(EngineKind::kStreaming, true);
}

TEST(AllocFree, RealTurboSerialSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_steady_state(EngineKind::kSerial,
                                   /*tracing=*/false,
                                   /*real_turbo=*/true);
}

TEST(AllocFree, RealTurboWorkStealingSteadyStateDoesNotAllocate)
{
    // Regression: turbo_decode used to allocate its trellis state per
    // call, breaking the invariant the moment use_real_turbo was on.
    expect_zero_alloc_steady_state(EngineKind::kStreaming,
                                   /*tracing=*/false,
                                   /*real_turbo=*/true);
}

TEST(AllocFree, StreamingEngineSteadyStateDoesNotAllocate)
{
    // The streaming engine's synchronous path reuses the same pooled
    // jobs and per-job wait; admission bookkeeping is plain counters.
    expect_zero_alloc_steady_state(EngineKind::kStreaming);
}

TEST(AllocFree, StreamingEngineTracingEnabledDoesNotAllocate)
{
    expect_zero_alloc_steady_state(EngineKind::kStreaming, true);
}

void
expect_zero_alloc_multicell(bool tracing)
{
    // The multi-cell engine must preserve the guarantee with several
    // lanes sharing the pool: per-cell job pools, signal vectors and
    // cell-tagged counters all reach their high-water mark during
    // warm-up.
    MultiCellConfig cfg;
    cfg.n_cells = 2;
    cfg.engine.kind = EngineKind::kStreaming;
    cfg.engine.pool.n_workers = 3;
    cfg.engine.pool.strategy = mgmt::Strategy::kNoNap;
    cfg.engine.input.pool_size = 4;
    cfg.engine.obs.enabled = tracing;
    MultiCellEngine engine(cfg);

    phy::SubframeParams sf = steady_subframe();
    std::uint64_t warm_checksum[2] = {0, 0};
    for (int i = 0; i < 8; ++i) {
        for (std::size_t lane = 0; lane < 2; ++lane) {
            sf.cell_id = engine.cell_id(lane);
            const SubframeOutcome &outcome =
                engine.process_subframe(lane, sf);
            warm_checksum[lane] = outcome.users.front().checksum;
        }
    }

    const std::size_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    std::uint64_t checksum[2] = {0, 0};
    for (int i = 0; i < 20; ++i) {
        for (std::size_t lane = 0; lane < 2; ++lane) {
            sf.cell_id = engine.cell_id(lane);
            const SubframeOutcome &outcome =
                engine.process_subframe(lane, sf);
            checksum[lane] = outcome.users.front().checksum;
        }
    }
    const std::size_t after =
        g_alloc_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "multi-cell engine allocated " << (after - before)
        << " times during 40 steady-state subframes";
    for (std::size_t lane = 0; lane < 2; ++lane) {
        EXPECT_NE(checksum[lane], 0u);
        EXPECT_EQ(checksum[lane], warm_checksum[lane]);
    }
    // Different cells really computed different things.
    EXPECT_NE(checksum[0], checksum[1]);
    if (tracing) {
        ASSERT_NE(engine.tracer(), nullptr);
        EXPECT_GT(engine.tracer()->total_recorded(), 0u);
        ASSERT_NE(engine.subframe_series(), nullptr);
        EXPECT_EQ(engine.subframe_series()->size(), 56u);
    }
}

TEST(AllocFree, MultiCellEngineSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_multicell(false);
}

TEST(AllocFree, MultiCellEngineTracingEnabledDoesNotAllocate)
{
    expect_zero_alloc_multicell(true);
}

/**
 * Sample source that regenerates one user's signal in place — the
 * steady-state contract of SampleSource::produce: after shapes have
 * been seen once, filling a recycled frame touches no heap.
 */
class InPlaceSource : public io::SampleSource
{
  public:
    bool
    produce(io::IqFrame &frame) override
    {
        frame.params.subframe_index = count_;
        frame.params.cell_id = 1;
        frame.params.users.resize(1);
        phy::UserParams &u = frame.params.users[0];
        u.id = 0;
        u.prb = 25;
        u.layers = 2;
        u.mod = Modulation::k16Qam;
        frame.storage.resize(1);
        phy::UserSignal &sig = frame.storage[0];
        sig.antennas.resize(2);
        const std::size_t n_sc = u.prb * kScPerPrb;
        for (auto &ant : sig.antennas)
            for (auto &slot : ant.slots)
                for (auto &symbol : slot) {
                    symbol.resize(n_sc);
                    // Deterministic non-trivial payload so the test
                    // proves real writes cross the ring, not just
                    // pointer traffic.
                    for (std::size_t k = 0; k < n_sc; ++k)
                        symbol[k] = cf32(
                            static_cast<float>(count_ + k), 0.5f);
                }
        frame.signals.resize(1);
        frame.signals[0] = &frame.storage[0];
        ++count_;
        return true;
    }

  private:
    std::uint64_t count_ = 0;
};

void
expect_zero_alloc_sample_plane(bool tracing)
{
    // The tentpole's own invariant: with a real producer thread
    // pacing frames through the transport, the steady state moves
    // only pointers — neither side of the ring may allocate once all
    // pooled frames have seen their shapes.  The optional tracing
    // variant proves the engines' kIoFrame span recording rides along
    // without breaking the guarantee (spans go to preallocated rings).
    io::SampleTransport transport(4);
    InPlaceSource source;
    io::FeedConfig cfg;
    cfg.lossless = true;
    io::MultiSampleFeed feed({{&transport, &source}}, cfg);

    obs::ObsConfig obs_cfg;
    obs_cfg.enabled = true;
    std::optional<obs::Tracer> tracer;
    if (tracing)
        tracer.emplace(/*n_slots=*/1, obs_cfg);

    const std::uint64_t warm = 8, measured = 20;
    feed.start(warm + measured);

    auto consume = [&](std::uint64_t n, std::uint64_t first) {
        std::uint64_t seen = 0;
        std::uint64_t checksum = 0;
        while (seen < n) {
            io::IqFrame *frame = transport.try_pop_ready();
            if (frame == nullptr) {
                std::this_thread::yield();
                continue;
            }
            EXPECT_EQ(frame->params.subframe_index, first + seen);
            checksum += static_cast<std::uint64_t>(
                frame->storage[0].antennas[0].slots[0][0][0].real());
            if (tracing)
                tracer->record(/*slot=*/0, obs::SpanKind::kIoFrame,
                               frame->t_arrival_ns,
                               frame->t_arrival_ns + 1,
                               frame->params.subframe_index);
            transport.release(frame);
            ++seen;
        }
        return checksum;
    };

    // Warm-up: every pooled frame cycles at least once, so each has
    // grown its storage to the steady shape.
    const std::uint64_t warm_sum = consume(warm, 0);
    EXPECT_GT(warm_sum, 0u);

    const std::size_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t sum = consume(measured, warm);
    const std::size_t after =
        g_alloc_count.load(std::memory_order_relaxed);

    feed.stop();
    EXPECT_EQ(after - before, 0u)
        << "sample plane allocated " << (after - before)
        << " times during " << measured << " steady-state frames";
    EXPECT_GT(sum, 0u);
    EXPECT_EQ(feed.stats().produced.load(), warm + measured);
    EXPECT_EQ(feed.stats().lost.load(), 0u);
    if (tracing) {
        EXPECT_GE(tracer->total_recorded(), measured);
    }
}

TEST(AllocFree, SamplePlaneProducerSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_sample_plane(false);
}

TEST(AllocFree, SamplePlaneProducerTracingDoesNotAllocate)
{
    expect_zero_alloc_sample_plane(true);
}

void
expect_zero_alloc_mac_closed_loop(EngineKind kind)
{
    // The closed loop live on the hot path: grant production
    // (next_tti_into), subframe processing, and completion feedback
    // (on_subframe_complete via EngineConfig::feedback) must all stay
    // inside preallocated state — UE queues, HARQ ring, retx ring,
    // outstanding table, selection scratch.
    mac::MacConfig mc;
    mc.seed = 9;
    mc.n_ues = 64;
    mc.arrival_rate = 5.0;
    mc.burst_mean = 2.0;
    mc.packet_bits = 3000;
    mac::MacScheduler sched(mc);

    EngineConfig cfg;
    cfg.kind = kind;
    cfg.pool.n_workers = 3;
    cfg.pool.strategy = mgmt::Strategy::kNoNap;
    cfg.input.pool_size = 4;
    cfg.feedback = &sched;
    auto engine = make_engine(cfg);

    // Prewarm the per-PRB-size input pools at every rung of the MAC's
    // quantized allocation ladder (and the arenas at the largest
    // shape), so steady state cannot encounter a fresh pool size.
    phy::SubframeParams warm;
    warm.users.resize(1);
    for (const std::uint32_t prb : {2u, 4u, 8u, 16u, 32u, 64u, 100u}) {
        warm.users[0] = phy::UserParams{};
        warm.users[0].id = 1;
        warm.users[0].prb = prb;
        warm.users[0].layers = 4;
        warm.users[0].mod = Modulation::k64Qam;
        engine->process_subframe(warm);
    }

    // A full 10-user subframe at heavy shapes: per-user job state,
    // outcome vectors and signal arrays reach the maximum the MAC can
    // ever grant before the measured region starts.
    warm.users.resize(10);
    for (std::uint32_t u = 0; u < 10; ++u) {
        warm.users[u] = phy::UserParams{};
        warm.users[u].id = u + 1;
        warm.users[u].prb = u % 2 == 0 ? 100 : 16;
        warm.users[u].layers = 4;
        warm.users[u].mod = Modulation::k64Qam;
    }
    engine->process_subframe(warm);

    // Closed-loop warm-up: grant vectors, outcome vectors and the
    // MAC's lazily-touched UE state reach their high-water marks.
    phy::SubframeParams sf;
    for (int i = 0; i < 400; ++i) {
        sched.next_tti_into(sf);
        engine->process_subframe(sf);
    }

    const std::size_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    std::uint64_t grants = 0;
    for (int i = 0; i < 20; ++i) {
        sched.next_tti_into(sf);
        engine->process_subframe(sf);
        grants += sf.users.size();
    }
    const std::size_t after =
        g_alloc_count.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "MAC closed loop on '" << engine->name() << "' allocated "
        << (after - before) << " times during 20 steady-state TTIs";
    EXPECT_GT(grants, 0u);
    sched.finalize();
    EXPECT_TRUE(sched.stats().conserved());
}

TEST(AllocFree, MacClosedLoopSerialSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_mac_closed_loop(EngineKind::kSerial);
}

TEST(AllocFree, MacClosedLoopWorkStealingSteadyStateDoesNotAllocate)
{
    expect_zero_alloc_mac_closed_loop(EngineKind::kStreaming);
}

TEST(AllocFree, CounterSeesAllocations)
{
    // Sanity-check the harness itself.
    const std::size_t before =
        g_alloc_count.load(std::memory_order_relaxed);
    auto *p = new int(42);
    const std::size_t after =
        g_alloc_count.load(std::memory_order_relaxed);
    delete p;
    EXPECT_GE(after - before, 1u);
}

} // namespace
} // namespace lte::runtime
