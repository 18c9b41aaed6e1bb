/**
 * @file
 * Sec. III parallelism check on the native work-stealing runtime:
 * throughput (subframes/s) and work-stealing statistics as the worker
 * count grows, on a fixed predetermined subframe sequence.  (Absolute
 * scaling depends on the host's core count; the paper's Fig. 4/5
 * point is the task structure, which this harness also prints.)
 */
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "phy/op_model.hpp"
#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Native runtime: worker scaling", args);

    // Task structure of the maximal user (paper Sec. III).
    phy::UserParams max_user;
    max_user.prb = 200;
    max_user.layers = 4;
    max_user.mod = Modulation::k64Qam;
    const auto costs = phy::user_task_costs(max_user, 4);
    std::cout << "task structure for a 4-antenna, 4-layer user:\n  "
              << costs.n_chanest_tasks
              << " channel-estimation tasks (antennas x layers)\n  "
              << costs.n_demod_tasks
              << " demodulation tasks (symbols x layers)\n\n";

    const std::size_t n_subframes = args.full ? 64 : 24;
    workload::PaperModelConfig model_cfg;
    model_cfg.ramp_subframes = n_subframes / 2;
    model_cfg.prob_update_interval = 2;
    model_cfg.seed = args.seed;

    std::cout << "host concurrency: "
              << std::thread::hardware_concurrency() << "\n\n";

    report::TextTable table({"engine", "workers", "subframes/s",
                             "activity", "steals", "digest"});
    struct Row
    {
        runtime::EngineKind kind;
        std::size_t workers;
    };
    const Row rows[] = {{runtime::EngineKind::kSerial, 1},
                        {runtime::EngineKind::kStreaming, 1},
                        {runtime::EngineKind::kStreaming, 2},
                        {runtime::EngineKind::kStreaming, 4},
                        {runtime::EngineKind::kStreaming, 8}};
    for (const Row &row : rows) {
        runtime::EngineConfig cfg;
        cfg.kind = row.kind;
        cfg.pool.n_workers = row.workers;
        cfg.input.pool_size = 4;
        cfg.input.seed = args.seed;
        auto engine = runtime::make_engine(cfg);
        workload::PaperModel model(model_cfg);
        const auto record = engine->run(model, n_subframes);
        char digest[24];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(record.digest()));
        table.add_row(
            {engine->name(), std::to_string(row.workers),
             report::fmt(static_cast<double>(record.subframes.size()) /
                             record.wall_seconds,
                         1),
             report::fmt(record.activity, 3),
             std::to_string(record.steals), digest});
    }
    table.print(std::cout);
    std::cout << "\nidentical digests across worker counts demonstrate "
                 "the Sec. IV-D\nserial/parallel equivalence on real "
                 "kernel execution.\n";
    return 0;
}
