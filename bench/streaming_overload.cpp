/**
 * @file
 * Streaming-engine overload study: drives the TTI-paced streaming
 * engine at ~2x its measured service capacity and compares the three
 * shed policies (drop-newest, drop-oldest, degrade) against the
 * lossless backpressure baseline.
 *
 * For each policy the table reports the admission accounting
 * (submitted / admitted / completed / shed, split into queue-full and
 * expired), the degraded-chain count, deadline misses among completed
 * subframes, and the p50/p99 admission-to-completion latency drawn
 * from the per-subframe observability series.  The point of the
 * exercise: with shedding enabled, tail latency stays bounded by the
 * deadline even though offered load is twice capacity, at the cost of
 * dropped (or degraded) subframes — the lossless baseline instead
 * lets latency grow with the backlog.
 */
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "phy/op_model.hpp"
#include "runtime/engine.hpp"
#include "sim/machine.hpp"
#include "workload/parameter_model.hpp"
#include "workload/steady_model.hpp"

namespace {

using namespace lte;

/** The saturating subframe used throughout: one maximal-rate user. */
phy::UserParams
heavy_user()
{
    phy::UserParams u;
    u.id = 0;
    u.prb = 100;
    u.layers = 4;
    u.mod = Modulation::k64Qam;
    return u;
}

/** Serial per-subframe service time, measured after warm-up. */
double
measure_service_ms(std::uint64_t seed)
{
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kSerial;
    cfg.input.pool_size = 2;
    cfg.input.seed = seed;
    auto engine = runtime::make_engine(cfg);
    phy::SubframeParams sf;
    sf.subframe_index = 0;
    sf.users.push_back(heavy_user());
    engine->process_subframe(sf);
    const auto t0 = std::chrono::steady_clock::now();
    const int reps = 8;
    for (int i = 0; i < reps; ++i)
        engine->process_subframe(sf);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           reps;
}

/**
 * Effective per-subframe drain time of the actual streaming pipeline
 * (lossless, free-running): unlike serial_service / n_workers this
 * reflects the host's real parallelism — on a single-core container
 * the pool cannot scale and the drain time stays near the serial
 * service time.
 */
double
measure_drain_ms(std::uint64_t seed, std::size_t n_workers,
                 std::size_t max_in_flight)
{
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = n_workers;
    cfg.input.pool_size = 2;
    cfg.input.seed = seed;
    cfg.max_in_flight = max_in_flight;
    cfg.admission_queue = 8;
    cfg.delta_ms = 0.0;   // free-running
    cfg.deadline_ms = 0.0; // lossless: backpressure, never shed
    auto engine = runtime::make_engine(cfg);
    phy::SubframeParams sf;
    sf.subframe_index = 0;
    sf.users.push_back(heavy_user());
    for (int i = 0; i < 4; ++i)
        engine->process_subframe(sf); // warm-up: arenas, FFT plans
    workload::SteadyModel model(heavy_user());
    const std::size_t n = 24;
    const auto record = engine->run(model, n);
    return record.wall_seconds * 1e3 / static_cast<double>(n);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    return values[idx];
}

/** Fixed multi-user subframe repeated every TTI. */
class FixedSubframeModel : public workload::ParameterModel
{
  public:
    explicit FixedSubframeModel(phy::SubframeParams sf)
        : sf_(std::move(sf))
    {
    }

    phy::SubframeParams next_subframe() override
    {
        sf_.subframe_index = next_index_++;
        return sf_;
    }

    void reset() override { next_index_ = 0; }

  private:
    phy::SubframeParams sf_;
    std::uint64_t next_index_ = 0;
};

/** Two maximal users: 200 PRB x 4 layers x 64QAM each.  Every canonical
 *  symbol block of such a user exceeds the 6144-bit codeblock limit, so
 *  each tail splits into 48 codeblock tasks — with fewer users than
 *  workers, per-user tail serialisation (not total work) is what
 *  bounds the pipeline's drain rate. */
phy::SubframeParams
heavy_tail_subframe()
{
    phy::SubframeParams sf;
    for (std::uint32_t u = 0; u < 2; ++u) {
        phy::UserParams user;
        user.id = u;
        user.prb = 200;
        user.layers = 4;
        user.mod = Modulation::k64Qam;
        sf.users.push_back(user);
    }
    return sf;
}

/**
 * Heavy-user scenario: admission-to-completion latency of the lossless
 * free-running pipeline on a subframe with fewer users than workers but
 * a maximal per-user tail fan-out.  Work conservation across stage
 * boundaries is the whole story here: a pipeline that parks workers at
 * stage joins (or funnels each user's tail through one worker) leaves
 * half the pool idle, which shows up directly in p50/p99.
 */
void
run_heavy_scenario(std::uint64_t seed, bool full)
{
    const phy::SubframeParams sf = heavy_tail_subframe();
    // LTE_BENCH_WORKERS widens the pool past the default four — e.g.
    // to measure oversubscription robustness on small hosts, where
    // stage-join sensitivity shows up as completion-latency jitter.
    std::size_t n_workers = 4;
    if (const char *env = std::getenv("LTE_BENCH_WORKERS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        n_workers = static_cast<std::size_t>(
            std::clamp(parsed, 1L, 16L));
    }
    const std::size_t warmup = 4;
    const std::size_t n_subframes = full ? 200 : 60;

    // Serial reference for context (and the parallel speedup column).
    runtime::EngineConfig serial_cfg;
    serial_cfg.kind = runtime::EngineKind::kSerial;
    serial_cfg.input.pool_size = 2;
    serial_cfg.input.seed = seed;
    auto serial = runtime::make_engine(serial_cfg);
    serial->process_subframe(sf);
    const auto t0 = std::chrono::steady_clock::now();
    const int reps = 6;
    for (int i = 0; i < reps; ++i)
        serial->process_subframe(sf);
    const auto t1 = std::chrono::steady_clock::now();
    const double serial_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;

    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = n_workers;
    cfg.input.pool_size = 2;
    cfg.input.seed = seed;
    cfg.max_in_flight = n_workers;
    cfg.admission_queue = 8;
    cfg.delta_ms = 0.0;    // free-running: latency reflects the
    cfg.deadline_ms = 0.0; // pipeline's real drain rate, nothing else
    cfg.obs.enabled = true;
    cfg.obs.series_capacity = warmup + n_subframes;
    auto engine = runtime::make_engine(cfg);
    for (std::size_t i = 0; i < warmup; ++i)
        engine->process_subframe(sf); // arenas, FFT plans, job pool

    FixedSubframeModel model(sf);
    const auto record = engine->run(model, n_subframes);

    const auto &series = *engine->subframe_series();
    std::vector<double> latencies;
    latencies.reserve(series.size());
    for (std::size_t i = warmup; i < series.size(); ++i)
        latencies.push_back(series.at(i).latency_ms());
    const double p50 = percentile(latencies, 0.50);
    const double p99 = percentile(latencies, 0.99);
    const double per_sf_ms =
        record.wall_seconds * 1e3 / static_cast<double>(n_subframes);

    std::cout << "\n== heavy-user tail fan-out ("
              << sf.users.size() << " users x 200 PRB x 4 layers x "
              << "64QAM, " << n_workers << " workers, lossless) ==\n"
              << "serial service:        " << report::fmt(serial_ms, 3)
              << " ms/subframe\n"
              << "pipeline drain:        " << report::fmt(per_sf_ms, 3)
              << " ms/subframe (speedup "
              << report::fmt(serial_ms / per_sf_ms, 2) << "x)\n"
              << "admission-to-completion latency:  p50 "
              << report::fmt(p50, 2) << " ms, p99 "
              << report::fmt(p99, 2) << " ms over " << n_subframes
              << " subframes\n"
              // Machine-readable line for results/BENCH_pr6.json.
              << "heavy: n=" << n_subframes << " workers=" << n_workers
              << " serial_ms=" << report::fmt(serial_ms, 4)
              << " drain_ms=" << report::fmt(per_sf_ms, 4)
              << " p50_ms=" << report::fmt(p50, 4)
              << " p99_ms=" << report::fmt(p99, 4)
              << " wall_s=" << report::fmt(record.wall_seconds, 3)
              << "\n";
}

/**
 * Deterministic before/after of the continuation-graph tail on the
 * discrete-event machine model: identical subframes, identical worker
 * count and per-task op costs, only the tail structure differs —
 * split_tail=false replays the pre-refactor monolithic per-user tail,
 * split_tail=true the per-codeblock fan-out plus reduce the runtime
 * executes today.  Virtual time sidesteps host core counts entirely,
 * so this isolates the scheduling effect the wall-clock section can
 * only show on a genuinely parallel machine.
 */
void
run_heavy_sim_comparison(bool full)
{
    const phy::SubframeParams sf = heavy_tail_subframe();
    const std::uint64_t n_subframes = full ? 1000 : 200;
    // The paper's TILEPro64 operating point: 62 worker cores.
    const std::uint32_t n_workers = 62;

    sim::SimConfig cfg;
    cfg.n_workers = n_workers;
    cfg.delta_s = 0.001; // standard TTI
    // Pin utilisation at ~60% of machine capacity so the comparison
    // measures schedule shape, not queueing collapse.
    std::uint64_t ops = 0;
    for (const auto &user : sf.users)
        ops += phy::user_task_costs(user, /*n_antennas=*/4).total();
    cfg.cycles_per_op = 0.6 * static_cast<double>(cfg.n_workers) *
                        cfg.delta_s * cfg.clock_hz /
                        static_cast<double>(ops);

    double p50[2] = {0.0, 0.0}, p99[2] = {0.0, 0.0};
    for (int split = 0; split < 2; ++split) {
        cfg.split_tail = split == 1;
        sim::Machine machine(cfg, /*n_antennas=*/4);
        FixedSubframeModel model(sf);
        const sim::SimResult result =
            machine.run(model, n_subframes);
        std::vector<double> lat_ms;
        lat_ms.reserve(result.user_latency.size());
        for (const double periods : result.user_latency)
            lat_ms.push_back(periods * cfg.delta_s * 1e3);
        p50[split] = percentile(lat_ms, 0.50);
        p99[split] = percentile(lat_ms, 0.99);
    }

    std::cout << "simulated machine (" << n_workers
              << " workers, 1 ms TTI, 60% utilisation, "
              << n_subframes << " subframes):\n"
              << "  monolithic tail (pre-refactor):  p50 "
              << report::fmt(p50[0], 3) << " ms, p99 "
              << report::fmt(p99[0], 3) << " ms\n"
              << "  per-codeblock tail + reduce:     p50 "
              << report::fmt(p50[1], 3) << " ms, p99 "
              << report::fmt(p99[1], 3) << " ms  (p99 "
              << report::fmt(100.0 * (1.0 - p99[1] / p99[0]), 1)
              << "% lower)\n"
              // Machine-readable line for results/BENCH_pr6.json.
              << "heavy-sim: workers=" << n_workers
              << " n=" << n_subframes
              << " before_p50_ms=" << report::fmt(p50[0], 4)
              << " before_p99_ms=" << report::fmt(p99[0], 4)
              << " after_p50_ms=" << report::fmt(p50[1], 4)
              << " after_p99_ms=" << report::fmt(p99[1], 4)
              << "\n";
}

struct Scenario
{
    const char *label;
    double deadline_ms; // 0 = lossless backpressure
    runtime::ShedPolicy policy;
};

/**
 * Inline-vs-offloaded sample plane A/B (PR 8's tentpole measurement).
 *
 * Fresh-generation mode gives the input generator a real per-TTI
 * synthesis cost (every subframe's IQ samples are regenerated, as a
 * fronthaul would deliver genuinely new air data) — in the inline
 * configuration that cost lands on the dispatch thread, inside the
 * admission loop, where it competes with admitting, reaping and
 * shedding; offloaded, it moves to one producer thread per cell and
 * the dispatch loop only moves frame pointers.  Under calibrated 2x
 * overload the dispatch thread is the bottleneck resource, so the
 * offloaded configuration sustains a higher completion rate / lower
 * p99 — that delta is the benefit the sample plane buys.
 */
void
run_io_offload_comparison(std::uint64_t seed, bool full)
{
    // Calibrate against the *fresh-mode* inline drain: the overload
    // must be 2x the pipeline that pays synthesis inline, so both
    // sides of the A/B face identical offered load.
    runtime::EngineConfig probe;
    probe.kind = runtime::EngineKind::kStreaming;
    probe.pool.n_workers = 4;
    probe.input.pool_size = 2;
    probe.input.seed = seed;
    probe.input.fresh = true;
    probe.max_in_flight = 4;
    probe.admission_queue = 8;
    probe.delta_ms = 0.0;
    probe.deadline_ms = 0.0;
    double drain_ms;
    {
        auto engine = runtime::make_engine(probe);
        phy::SubframeParams sf;
        sf.subframe_index = 0;
        sf.users.push_back(heavy_user());
        for (int i = 0; i < 4; ++i)
            engine->process_subframe(sf);
        workload::SteadyModel model(heavy_user());
        const std::size_t n = 24;
        const auto record = engine->run(model, n);
        drain_ms = record.wall_seconds * 1e3 / static_cast<double>(n);
    }
    const double delta_ms = drain_ms / 2.0; // 2x overload
    const double deadline_ms = 3.0 * drain_ms;
    const std::size_t n_subframes = full ? 400 : 120;

    std::cout << "\n== sample plane: inline vs offloaded input under "
                 "2x overload ==\n"
              << "fresh-mode drain:      " << report::fmt(drain_ms, 3)
              << " ms/subframe; arrivals every "
              << report::fmt(delta_ms, 3) << " ms, deadline "
              << report::fmt(deadline_ms, 3) << " ms\n";

    report::TextTable table({"cells", "input", "completed", "shed",
                             "io-lost", "rate /s", "p50 ms", "p99 ms",
                             "wall s"});
    for (std::size_t n_cells : {1u, 2u, 4u}) {
        for (int offloaded = 0; offloaded < 2; ++offloaded) {
            runtime::MultiCellConfig cfg;
            cfg.n_cells = n_cells;
            cfg.engine = probe;
            cfg.engine.delta_ms = delta_ms;
            cfg.engine.deadline_ms = deadline_ms;
            cfg.engine.shed_policy = runtime::ShedPolicy::kDropNewest;
            cfg.engine.obs.enabled = true;
            cfg.engine.obs.deadline_ms = deadline_ms;
            cfg.engine.obs.series_capacity = n_subframes * n_cells;
            if (offloaded != 0) {
                cfg.engine.io.enabled = true;
                cfg.engine.io.source = io::SourceKind::kGenerator;
                cfg.engine.io.n_frames = 8;
            }
            runtime::MultiCellEngine engine(cfg);

            std::vector<workload::SteadyModel> models(
                n_cells, workload::SteadyModel(heavy_user()));
            std::vector<workload::ParameterModel *> ptrs;
            for (auto &m : models)
                ptrs.push_back(&m);
            const runtime::MultiCellRunRecord record =
                engine.run(ptrs, n_subframes);

            std::uint64_t completed = 0, shed = 0, io_lost = 0;
            for (const runtime::ShedStats &s : record.shed) {
                completed += s.completed;
                shed += s.shed;
                io_lost += s.io_lost;
            }
            const auto &series = *engine.subframe_series();
            std::vector<double> latencies;
            latencies.reserve(series.size());
            for (std::size_t i = 0; i < series.size(); ++i)
                latencies.push_back(series.at(i).latency_ms());
            const double rate = static_cast<double>(completed) /
                                record.wall_seconds;
            const double p50 = percentile(latencies, 0.50);
            const double p99 = percentile(latencies, 0.99);

            const char *label = offloaded ? "offloaded" : "inline";
            table.add_row({std::to_string(n_cells), label,
                           std::to_string(completed),
                           std::to_string(shed),
                           std::to_string(io_lost),
                           report::fmt(rate, 1), report::fmt(p50, 2),
                           report::fmt(p99, 2),
                           report::fmt(record.wall_seconds, 2)});
            // Machine-readable line for results/BENCH_pr9.json.
            std::cout << "io-ab: cells=" << n_cells << " input="
                      << label << " n=" << n_subframes
                      << " completed=" << completed << " shed=" << shed
                      << " io_lost=" << io_lost
                      << " rate_hz=" << report::fmt(rate, 2)
                      << " p50_ms=" << report::fmt(p50, 4)
                      << " p99_ms=" << report::fmt(p99, 4)
                      << " wall_s=" << report::fmt(record.wall_seconds, 3)
                      << "\n";
        }
    }
    table.print(std::cout);
    std::cout << "offloading the synthesis frees the dispatch loop to "
                 "admit/reap, so the\noffloaded rows complete more "
                 "subframes per second (or hold a lower p99)\nat "
                 "identical offered load.  Multi-cell runs share ONE "
                 "paced producer\nthread (MultiSampleFeed) that "
                 "round-robins frame synthesis across the\ncells, so "
                 "the offloaded fronthaul costs a single extra core "
                 "regardless\nof cell count instead of oversubscribing "
                 "the host with one free-running\nthread per cell "
                 "(host has " << std::thread::hardware_concurrency()
              << " cores).\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Streaming engine: shed policies under 2x "
                        "overload",
                        args);

    const double service_ms = measure_service_ms(args.seed);
    const std::size_t n_workers = 4;
    const std::size_t max_in_flight = n_workers;
    const double drain_ms =
        measure_drain_ms(args.seed, n_workers, max_in_flight);
    // Arrivals at twice the pipeline's measured drain rate — a true 2x
    // overload regardless of how many cores the host really grants.
    const double delta_ms = drain_ms / 2.0;
    const double deadline_ms = 3.0 * drain_ms;
    const std::size_t n_subframes = args.full ? 1000 : 240;

    std::cout << "serial service time:   " << report::fmt(service_ms, 3)
              << " ms/subframe\n"
              << "pipeline drain time:   " << report::fmt(drain_ms, 3)
              << " ms/subframe (" << n_workers << " workers, "
              << max_in_flight << " in flight)\n"
              << "arrival period:        " << report::fmt(delta_ms, 3)
              << " ms  (2x overload)\n"
              << "admission deadline:    " << report::fmt(deadline_ms, 3)
              << " ms\n\n";

    const Scenario scenarios[] = {
        {"lossless", 0.0, runtime::ShedPolicy::kDropNewest},
        {"drop-newest", deadline_ms, runtime::ShedPolicy::kDropNewest},
        {"drop-oldest", deadline_ms, runtime::ShedPolicy::kDropOldest},
        {"degrade", deadline_ms, runtime::ShedPolicy::kDegrade},
    };

    report::TextTable table({"policy", "submitted", "completed", "shed",
                             "q-full", "expired", "degraded", "misses",
                             "p50 ms", "p99 ms", "wall s"});
    for (const Scenario &sc : scenarios) {
        runtime::EngineConfig cfg;
        cfg.kind = runtime::EngineKind::kStreaming;
        cfg.pool.n_workers = n_workers;
        cfg.input.pool_size = 2;
        cfg.input.seed = args.seed;
        cfg.max_in_flight = max_in_flight;
        cfg.admission_queue = 8;
        cfg.delta_ms = delta_ms;
        cfg.deadline_ms = sc.deadline_ms;
        cfg.shed_policy = sc.policy;
        cfg.obs.enabled = true;
        cfg.obs.deadline_ms = deadline_ms;
        cfg.obs.series_capacity = n_subframes;
        auto engine = runtime::make_engine(cfg);

        workload::SteadyModel model(heavy_user());
        const auto record = engine->run(model, n_subframes);

        const auto &stats =
            dynamic_cast<const runtime::StreamingEngine &>(*engine)
                .shed_stats();
        const auto &series = *engine->subframe_series();
        std::vector<double> latencies;
        latencies.reserve(series.size());
        for (std::size_t i = 0; i < series.size(); ++i)
            latencies.push_back(series.at(i).latency_ms());
        const double misses =
            engine->metrics()->counter("engine.deadline_misses").value();

        table.add_row({sc.label, std::to_string(stats.submitted),
                       std::to_string(stats.completed),
                       std::to_string(stats.shed),
                       std::to_string(stats.shed_queue_full),
                       std::to_string(stats.shed_expired),
                       std::to_string(stats.degraded),
                       report::fmt(misses, 0),
                       report::fmt(percentile(latencies, 0.50), 2),
                       report::fmt(percentile(latencies, 0.99), 2),
                       report::fmt(record.wall_seconds, 2)});
    }
    table.print(std::cout);
    std::cout << "\nwith a deadline and a shed policy, the queue wait "
                 "is capped by the\nadmission deadline, so p99 latency "
                 "settles near deadline +\nmax_in_flight x drain ("
              << report::fmt(deadline_ms +
                                 static_cast<double>(max_in_flight) *
                                     drain_ms,
                             1)
              << " ms here) no matter how long the run;\nthe lossless "
                 "baseline's latency instead grows with the backlog.\n"
                 "'degrade' converts would-be drops into cheap MRC + "
                 "turbo-bypass\nsubframes and completes the most "
                 "traffic.\n";

    run_io_offload_comparison(args.seed, args.full);
    run_heavy_scenario(args.seed, args.full);
    run_heavy_sim_comparison(args.full);
    return 0;
}
