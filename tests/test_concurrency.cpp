/**
 * @file
 * WorkerPool interleaving tests, designed to run under
 * ThreadSanitizer (the `tsan` preset): submissions racing with NAP
 * watermark changes (submit-while-shrinking), repeated
 * shrink/grow cycles while jobs drain, and tracing enabled so the
 * per-slot trace rings are exercised concurrently with an exporter
 * snapshot.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>

#include "obs/export.hpp"
#include "runtime/input_generator.hpp"
#include "runtime/worker_pool.hpp"

namespace lte::runtime {
namespace {

phy::SubframeParams
mixed_subframe()
{
    phy::SubframeParams sf;
    sf.subframe_index = 0;
    phy::UserParams a;
    a.id = 0;
    a.prb = 8;
    a.layers = 2;
    a.mod = Modulation::k16Qam;
    sf.users.push_back(a);
    phy::UserParams b;
    b.id = 1;
    b.prb = 4;
    b.layers = 1;
    b.mod = Modulation::kQpsk;
    sf.users.push_back(b);
    phy::UserParams c;
    c.id = 2;
    c.prb = 12;
    c.layers = 1;
    c.mod = Modulation::k64Qam;
    sf.users.push_back(c);
    return sf;
}

std::uint64_t
results_digest(const SubframeJob &job)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t u = 0; u < job.n_users; ++u)
        h = (h ^ job.results[u].checksum) * 0x100000001b3ULL;
    return h;
}

TEST(Concurrency, SubmitWhileShrinkingKeepsResultsStable)
{
    // A dedicated thread hammers the NAP watermark while the main
    // thread submits and drains jobs.  Under TSan this exercises the
    // submit / park / wake / steal interleavings; functionally the
    // results must be identical every iteration regardless of how
    // many workers were active at any instant.
    const phy::ReceiverConfig receiver;
    InputGenerator input(InputGeneratorConfig{.pool_size = 2, .seed = 5});
    const phy::SubframeParams sf = mixed_subframe();
    std::vector<const phy::UserSignal *> signals;
    input.signals_for(sf, signals);

    obs::ObsConfig ocfg;
    ocfg.enabled = true;
    ocfg.events_per_thread = 1 << 12;
    obs::Tracer tracer(4, ocfg);

    WorkerPoolConfig cfg;
    cfg.n_workers = 4;
    cfg.reactive_idle = true;
    cfg.nap_poll_period = std::chrono::microseconds(50);
    cfg.idle_poll_period = std::chrono::microseconds(50);
    cfg.tracer = &tracer;
    WorkerPool pool(cfg);

    std::atomic<bool> stop{false};
    std::thread toggler([&] {
        std::size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            pool.set_active_workers(1 + (i++ % cfg.n_workers));
            std::this_thread::yield();
        }
    });

    SubframeJob job;
    std::uint64_t first_digest = 0;
    for (int iter = 0; iter < 100; ++iter) {
        job.prepare(sf, signals, receiver);
        pool.submit(&job);
        pool.wait_idle();
        const std::uint64_t digest = results_digest(job);
        if (iter == 0)
            first_digest = digest;
        else
            ASSERT_EQ(digest, first_digest) << "iteration " << iter;
    }

    stop.store(true);
    toggler.join();
    EXPECT_NE(first_digest, 0u);
    EXPECT_GT(tracer.total_recorded(), 0u);
}

TEST(Concurrency, ExportWhileWorkersRecord)
{
    // Snapshot/export the trace rings while parked workers are still
    // recording nap spans — the per-slot locks must make this safe.
    const phy::ReceiverConfig receiver;
    InputGenerator input(InputGeneratorConfig{.pool_size = 2, .seed = 9});
    const phy::SubframeParams sf = mixed_subframe();
    std::vector<const phy::UserSignal *> signals;
    input.signals_for(sf, signals);

    obs::ObsConfig ocfg;
    ocfg.enabled = true;
    ocfg.events_per_thread = 1 << 10;
    obs::Tracer tracer(3, ocfg);

    WorkerPoolConfig cfg;
    cfg.n_workers = 3;
    cfg.reactive_idle = true;
    cfg.idle_poll_period = std::chrono::microseconds(50);
    cfg.tracer = &tracer;
    WorkerPool pool(cfg);

    SubframeJob job;
    std::string last_export;
    for (int iter = 0; iter < 20; ++iter) {
        job.prepare(sf, signals, receiver);
        pool.submit(&job);
        // Export concurrently with processing and idle sleeps.
        std::ostringstream os;
        obs::write_chrome_trace(os, tracer);
        last_export = os.str();
        pool.wait_idle();
    }
    EXPECT_NE(last_export.find("traceEvents"), std::string::npos);
}

TEST(Concurrency, ShrinkToOneStillDrains)
{
    // Regression companion to the estimator floor fix: even at the
    // minimum watermark of one active worker, submitted jobs must
    // complete (one worker drains the whole queue).
    const phy::ReceiverConfig receiver;
    InputGenerator input(InputGeneratorConfig{.pool_size = 2, .seed = 3});
    const phy::SubframeParams sf = mixed_subframe();
    std::vector<const phy::UserSignal *> signals;
    input.signals_for(sf, signals);

    WorkerPoolConfig cfg;
    cfg.n_workers = 4;
    cfg.nap_poll_period = std::chrono::microseconds(50);
    WorkerPool pool(cfg);
    pool.set_active_workers(1);

    SubframeJob job;
    job.prepare(sf, signals, receiver);
    pool.submit(&job);
    pool.wait_idle();
    EXPECT_EQ(job.users_remaining.load(), 0);
    EXPECT_NE(results_digest(job), 0u);
}

} // namespace
} // namespace lte::runtime
