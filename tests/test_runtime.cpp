/**
 * @file
 * Work-stealing runtime tests: deque discipline, serial-vs-parallel
 * bit equivalence (the paper's Sec. IV-D validation), determinism
 * across worker counts and strategies, gating safety, and activity
 * accounting sanity.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "phy/params.hpp"
#include "runtime/engine.hpp"
#include "runtime/run_record.hpp"
#include "runtime/task.hpp"
#include "runtime/ws_deque.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace lte::runtime {
namespace {

// ------------------------------------------------------------ deque

TEST(WsDeque, LifoForOwnerFifoForThief)
{
    WsDeque<int> dq;
    dq.push_bottom(1);
    dq.push_bottom(2);
    dq.push_bottom(3);
    EXPECT_EQ(dq.steal_top().value(), 1);  // oldest
    EXPECT_EQ(dq.pop_bottom().value(), 3); // newest
    EXPECT_EQ(dq.pop_bottom().value(), 2);
    EXPECT_FALSE(dq.pop_bottom().has_value());
    EXPECT_FALSE(dq.steal_top().has_value());
}

TEST(WsDeque, RejectsNonPowerOfTwoCapacity)
{
    // index() and steal_top() mask with capacity - 1; a capacity of 3
    // would silently alias slots instead of wrapping.
    EXPECT_THROW(WsDeque<int>(0), std::invalid_argument);
    EXPECT_THROW(WsDeque<int>(3), std::invalid_argument);
    EXPECT_THROW(WsDeque<int>(100), std::invalid_argument);
    EXPECT_NO_THROW(WsDeque<int>(1));
    EXPECT_NO_THROW(WsDeque<int>(64));
}

TEST(WsDeque, GrowWithWrappedRingPreservesOrder)
{
    // Interleaved steals advance head_, so the ring is wrapped when
    // the next push triggers grow(); the linearisation copy must keep
    // both disciplines intact (FIFO for thieves, LIFO for the owner).
    WsDeque<int> dq(4);
    for (int i = 0; i < 4; ++i)
        dq.push_bottom(i);
    EXPECT_EQ(dq.steal_top().value(), 0); // head_ now non-zero
    EXPECT_EQ(dq.steal_top().value(), 1);
    for (int i = 4; i < 10; ++i)
        dq.push_bottom(i); // grows past capacity with head_ != 0
    EXPECT_EQ(dq.size(), 8u);

    EXPECT_EQ(dq.steal_top().value(), 2); // oldest survivor
    EXPECT_EQ(dq.pop_bottom().value(), 9); // newest
    EXPECT_EQ(dq.steal_top().value(), 3);
    EXPECT_EQ(dq.pop_bottom().value(), 8);
    for (int expect : {4, 5, 6, 7})
        EXPECT_EQ(dq.steal_top().value(), expect);
    EXPECT_FALSE(dq.steal_top().has_value());
    EXPECT_FALSE(dq.pop_bottom().has_value());
}

TEST(WsDeque, ConcurrentStealsLoseNothing)
{
    WsDeque<int> dq;
    constexpr int kTasks = 10000;
    for (int i = 0; i < kTasks; ++i)
        dq.push_bottom(i);

    std::atomic<int> taken{0};
    std::vector<std::thread> thieves;
    for (int t = 0; t < 4; ++t) {
        thieves.emplace_back([&] {
            while (dq.steal_top().has_value())
                taken.fetch_add(1);
        });
    }
    int owner_taken = 0;
    while (dq.pop_bottom().has_value())
        ++owner_taken;
    for (auto &th : thieves)
        th.join();
    // The owner may finish before thieves drain the rest.
    while (dq.steal_top().has_value())
        taken.fetch_add(1);
    EXPECT_EQ(taken.load() + owner_taken, kTasks);
}

// ------------------------------------------------ input generator

std::uint64_t
signal_digest(const phy::UserSignal &signal)
{
    // Cheap order-sensitive digest over every complex sample.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) * 0x100000001b3ULL;
    };
    for (const auto &ant : signal.antennas)
        for (const auto &slot : ant.slots)
            for (const auto &sym : slot)
                for (const auto &c : sym) {
                    mix(c.real());
                    mix(c.imag());
                }
    return h;
}

TEST(InputGenerator, PoolIndependentOfRequestOrder)
{
    // Regression: the shared per-PRB pool used to be generated from
    // the first requester's full parameter set, so the layers/mod of
    // whoever asked first leaked into the pool contents.  Two
    // generators serving the same users in reverse order must hand
    // out identical signals.
    const InputGeneratorConfig cfg{.pool_size = 3, .seed = 7};

    phy::UserParams a{.id = 1, .prb = 12, .layers = 1,
                      .mod = Modulation::kQpsk};
    phy::UserParams b{.id = 2, .prb = 12, .layers = 4,
                      .mod = Modulation::k64Qam};

    auto one_user_subframe = [](const phy::UserParams &user) {
        phy::SubframeParams sf;
        sf.users.push_back(user);
        return sf;
    };
    auto request = [&](InputGenerator &gen, const phy::UserParams &u) {
        return signal_digest(*gen.signals_for(one_user_subframe(u))[0]);
    };

    InputGenerator forward(cfg);
    InputGenerator backward(cfg);
    const std::uint64_t fwd_a = request(forward, a);
    const std::uint64_t fwd_b = request(forward, b);
    const std::uint64_t bwd_b = request(backward, b);
    const std::uint64_t bwd_a = request(backward, a);
    // Same pool, same cursor positions: first request each side draws
    // pool[0], second draws pool[1] — regardless of which user asks.
    EXPECT_EQ(fwd_a, bwd_b);
    EXPECT_EQ(fwd_b, bwd_a);
}

// --------------------------------------------- serial vs parallel

EngineConfig
small_config(std::size_t workers, mgmt::Strategy strategy)
{
    EngineConfig cfg;
    cfg.pool.n_workers = workers;
    cfg.pool.strategy = strategy;
    cfg.input.seed = 99;
    cfg.input.pool_size = 4;
    return cfg;
}

EngineConfig
serial_config()
{
    EngineConfig cfg;
    cfg.kind = EngineKind::kSerial;
    cfg.input.pool_size = 4;
    cfg.input.seed = 99;
    return cfg;
}

workload::PaperModelConfig
compressed_model_config()
{
    workload::PaperModelConfig cfg;
    cfg.ramp_subframes = 100;
    cfg.prob_update_interval = 10;
    return cfg;
}

TEST(Validation, ParallelMatchesSerialReference)
{
    // The paper's validation method: process the same predetermined
    // subframe sequence serially and in parallel; per-subframe results
    // must match exactly.
    const std::size_t n = 40;

    workload::PaperModel serial_model(compressed_model_config());
    auto serial = make_engine(serial_config());
    const RunRecord ref = serial->run(serial_model, n);

    workload::PaperModel parallel_model(compressed_model_config());
    auto bench = make_engine(small_config(4, mgmt::Strategy::kNoNap));
    const RunRecord parallel = bench->run(parallel_model, n);

    std::string why;
    EXPECT_TRUE(RunRecord::equivalent(ref, parallel, &why)) << why;
    EXPECT_EQ(ref.digest(), parallel.digest());
    EXPECT_EQ(ref.user_count(), parallel.user_count());
}

TEST(Validation, ResultsIndependentOfWorkerCount)
{
    const std::size_t n = 25;
    std::uint64_t first_digest = 0;
    for (std::size_t workers : {1u, 2u, 3u, 6u}) {
        workload::PaperModel model(compressed_model_config());
        auto bench = make_engine(
            small_config(workers, mgmt::Strategy::kNoNap));
        const RunRecord record = bench->run(model, n);
        if (workers == 1)
            first_digest = record.digest();
        else
            EXPECT_EQ(record.digest(), first_digest)
                << "workers=" << workers;
    }
    EXPECT_NE(first_digest, 0u);
}

TEST(Validation, ResultsIndependentOfStrategy)
{
    const std::size_t n = 25;
    std::uint64_t reference = 0;
    bool first = true;
    for (mgmt::Strategy strategy :
         {mgmt::Strategy::kNoNap, mgmt::Strategy::kIdle,
          mgmt::Strategy::kNapIdle}) {
        workload::PaperModel model(compressed_model_config());
        auto bench = make_engine(small_config(3, strategy));
        const RunRecord record = bench->run(model, n);
        if (first) {
            reference = record.digest();
            first = false;
        } else {
            EXPECT_EQ(record.digest(), reference);
        }
    }
}

TEST(Validation, RepeatedRunsAreDeterministic)
{
    auto run_once = [] {
        workload::PaperModel model(compressed_model_config());
        auto bench = make_engine(small_config(4, mgmt::Strategy::kNoNap));
        return bench->run(model, 20).digest();
    };
    EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------------- behaviour

TEST(WorkerPool, StealsHappenWithUnevenUsers)
{
    // One giant user and several workers: chanest/demod tasks must be
    // stolen off the user thread's deque.
    phy::UserParams user;
    user.prb = 200;
    user.layers = 4;
    user.mod = Modulation::k64Qam;
    workload::SteadyModel model(user);
    auto bench = make_engine(small_config(4, mgmt::Strategy::kNoNap));
    const RunRecord record = bench->run(model, 6);
    EXPECT_GT(record.steals, 0u);
}

TEST(WorkerPool, NapDeactivationStillCompletesWork)
{
    // With only 1 of 4 workers active, everything must still finish.
    workload::PaperModel model(compressed_model_config());
    auto bench = make_engine(small_config(4, mgmt::Strategy::kNapIdle));
    bench->worker_pool()->set_active_workers(1);
    const RunRecord record = bench->run(model, 15);
    EXPECT_EQ(record.subframes.size(), 15u);

    workload::PaperModel reference_model(compressed_model_config());
    auto serial = make_engine(serial_config());
    const RunRecord ref = serial->run(reference_model, 15);
    EXPECT_EQ(record.digest(), ref.digest());
}

TEST(WorkerPool, ActiveWorkersClampedToValidRange)
{
    WorkerPoolConfig cfg;
    cfg.n_workers = 4;
    WorkerPool pool(cfg);
    pool.set_active_workers(0);
    EXPECT_EQ(pool.active_workers(), 1u);
    pool.set_active_workers(100);
    EXPECT_EQ(pool.active_workers(), 4u);
}

TEST(WorkerPool, ActivityAccountingIsSane)
{
    workload::PaperModel model(compressed_model_config());
    auto bench = make_engine(small_config(2, mgmt::Strategy::kNoNap));
    const RunRecord record = bench->run(model, 20);
    EXPECT_GT(record.total_ops, 0u);
    EXPECT_GT(record.wall_seconds, 0.0);
    EXPECT_GE(record.activity, 0.0);
    EXPECT_LE(record.activity, 1.0 + 1e-9);
}

TEST(WorkerPool, EstimatorDrivenNapAdjustsActiveCores)
{
    // A NAP-strategy benchmark with an estimator must reduce active
    // workers on a tiny workload.
    mgmt::CalibrationTable table;
    for (std::uint32_t l = 1; l <= 4; ++l) {
        for (Modulation mod : kAllModulations)
            table.set(l, mod, 0.001 * l);
    }
    phy::UserParams tiny;
    tiny.prb = 2;
    tiny.layers = 1;
    tiny.mod = Modulation::kQpsk;
    workload::SteadyModel model(tiny);

    auto cfg = small_config(6, mgmt::Strategy::kNap);
    auto bench = make_engine(cfg);
    bench->set_estimator(mgmt::WorkloadEstimator(table));
    bench->run(model, 5);
    // estimate = 2 * 0.001 = 0.002 -> 0.002*6 + 2 -> ceil -> 3.
    EXPECT_EQ(bench->worker_pool()->active_workers(), 3u);
}

TEST(WorkerPool, IntervalSnapshotsAreDeltaBased)
{
    // Regression: reset_activity() used to wipe the busy/ops counters
    // while activity() kept measuring wall time from the construction
    // epoch, so every interval after the first diluted busy time over
    // the pool's whole lifetime.  Snapshots are now cumulative and an
    // interval is the difference of two of them.
    WorkerPoolConfig cfg;
    cfg.n_workers = 2;
    WorkerPool pool(cfg);

    InputGeneratorConfig input_cfg;
    input_cfg.pool_size = 2;
    InputGenerator gen(input_cfg);
    phy::SubframeParams sf;
    phy::UserParams user;
    user.prb = 50;
    user.layers = 2;
    user.mod = Modulation::k16Qam;
    sf.users.push_back(user);
    std::vector<const phy::UserSignal *> signals;
    gen.signals_for(sf, signals);

    SubframeJob job;
    job.prepare(sf, signals, phy::ReceiverConfig{});
    pool.submit(&job);
    pool.wait_idle();
    const ActivitySnapshot first = pool.activity();
    EXPECT_GT(first.ops, 0u);
    EXPECT_GT(first.busy.count(), 0);

    // A fresh interval starts empty even though the counters kept
    // their cumulative values.
    pool.reset_activity();
    const ActivitySnapshot idle = pool.activity();
    EXPECT_EQ(idle.ops, 0u);
    EXPECT_EQ(idle.busy.count(), 0);

    // An identical second burst measures the same analytical ops on
    // its own, unpolluted by the first interval.
    job.prepare(sf, signals, phy::ReceiverConfig{});
    pool.submit(&job);
    pool.wait_idle();
    const ActivitySnapshot second = pool.activity();
    EXPECT_EQ(second.ops, first.ops);

    // The cumulative view spans both bursts, and interval arithmetic
    // recovers the first one.
    const ActivitySnapshot total = pool.activity_total();
    EXPECT_EQ(total.ops, first.ops + second.ops);
    EXPECT_GE(total.wall.count(), second.wall.count());
    EXPECT_EQ((total - second).ops, first.ops);
}

TEST(WorkerPool, WaitJobReturnsWhenThatJobCompletes)
{
    WorkerPoolConfig cfg;
    cfg.n_workers = 2;
    WorkerPool pool(cfg);

    InputGeneratorConfig input_cfg;
    input_cfg.pool_size = 2;
    InputGenerator gen(input_cfg);
    phy::SubframeParams sf;
    phy::UserParams user;
    user.prb = 25;
    user.layers = 1;
    user.mod = Modulation::kQpsk;
    sf.users.push_back(user);
    std::vector<const phy::UserSignal *> signals;
    gen.signals_for(sf, signals);

    SubframeJob job;
    job.prepare(sf, signals, phy::ReceiverConfig{});
    pool.submit(&job);
    pool.wait_job(job);
    EXPECT_LE(job.users_remaining.load(std::memory_order_acquire), 0);
    EXPECT_EQ(job.results.size(), 1u);
    EXPECT_NE(job.results[0].checksum, 0u);
}

TEST(RunRecord, EquivalenceDetectsDifferences)
{
    RunRecord a, b;
    a.subframes.push_back({0, 1, {{1, 111, true, false, 0.0f}}});
    b.subframes.push_back({0, 1, {{1, 222, true, false, 0.0f}}});
    std::string why;
    EXPECT_FALSE(RunRecord::equivalent(a, b, &why));
    EXPECT_NE(why.find("checksum"), std::string::npos);

    b = a;
    EXPECT_TRUE(RunRecord::equivalent(a, b, &why));
    b.subframes[0].users.clear();
    EXPECT_FALSE(RunRecord::equivalent(a, b, &why));
}

TEST(RunRecord, CrcPassRate)
{
    RunRecord r;
    r.subframes.push_back(
        {0, 1,
         {{0, 1, true, false, 0.0f}, {1, 2, false, false, 0.0f}}});
    EXPECT_DOUBLE_EQ(r.crc_pass_rate(), 0.5);
    EXPECT_EQ(r.user_count(), 2u);
}

// --------------------------------------- bypass real-decode sampling

TEST(DecodeSampling, HashIsDeterministicAndUniform)
{
    // Same (subframe, user) pair -> same coin, always in [0, 1).
    for (std::uint64_t sf = 0; sf < 50; ++sf) {
        for (std::uint32_t id = 0; id < 20; ++id) {
            const double h = SubframeJob::sample_hash(sf, id);
            EXPECT_GE(h, 0.0);
            EXPECT_LT(h, 1.0);
            EXPECT_DOUBLE_EQ(h, SubframeJob::sample_hash(sf, id));
        }
    }
    // The sampled fraction tracks the configured rate.
    const double rate = 0.1;
    std::size_t sampled = 0;
    const std::size_t trials = 20000;
    for (std::size_t i = 0; i < trials; ++i)
        sampled += SubframeJob::sample_hash(i / 8, i % 8 + 1) < rate;
    const double fraction =
        static_cast<double>(sampled) / static_cast<double>(trials);
    EXPECT_NEAR(fraction, rate, 0.02);
}

TEST(DecodeSampling, ReceiverConfigValidatesRate)
{
    phy::ReceiverConfig cfg;
    cfg.decode_sample_rate = 0.05;
    EXPECT_NO_THROW(cfg.validate());
    cfg.decode_sample_rate = -0.1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    cfg.decode_sample_rate = 1.5;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

} // namespace
} // namespace lte::runtime
