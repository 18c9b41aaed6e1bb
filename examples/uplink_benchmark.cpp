/**
 * @file
 * The LTE Uplink Receiver PHY benchmark itself, as a runnable
 * application: the paper-model workload processed by a configured
 * engine, validated against the serial reference engine
 * (paper Sec. IV-D).
 *
 * usage: uplink_benchmark [workers] [subframes]
 */
#include <cstdlib>
#include <iostream>

#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"

int
main(int argc, char **argv)
{
    using namespace lte;

    const std::size_t workers =
        argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
    const std::size_t subframes =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 50;

    std::cout << "LTE Uplink Receiver PHY benchmark: " << workers
              << " workers, " << subframes << " subframes\n\n";

    // Compressed paper input model (same triangular ramp shape).
    workload::PaperModelConfig model_cfg;
    model_cfg.ramp_subframes = std::max<std::uint64_t>(subframes / 2, 1);
    model_cfg.prob_update_interval =
        std::max<std::uint64_t>(subframes / 100, 1);

    // Both engines share one configuration; only `kind` differs.
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = workers;
    cfg.input.pool_size = 10; // the paper's default input-data pool

    // Parallel run on the work-stealing pool.
    auto parallel_engine = runtime::make_engine(cfg);
    workload::PaperModel model(model_cfg);
    const runtime::RunRecord parallel =
        parallel_engine->run(model, subframes);

    std::cout << parallel_engine->name() << " run:  "
              << parallel.subframes.size() << " subframes, "
              << parallel.user_count() << " users, "
              << parallel.steals << " steals, "
              << parallel.wall_seconds << " s ("
              << static_cast<double>(parallel.subframes.size()) /
                     parallel.wall_seconds
              << " subframes/s), activity " << parallel.activity
              << "\n";

    // Serial reference over the same predetermined sequence.
    cfg.kind = runtime::EngineKind::kSerial;
    auto serial_engine = runtime::make_engine(cfg);
    workload::PaperModel reference_model(model_cfg);
    const runtime::RunRecord ref =
        serial_engine->run(reference_model, subframes);
    std::cout << serial_engine->name() << " run:    "
              << ref.subframes.size() << " subframes, "
              << ref.wall_seconds << " s\n";

    std::string why;
    const bool ok = runtime::RunRecord::equivalent(ref, parallel, &why);
    std::cout << "validation:    "
              << (ok ? "parallel results are bit-identical to the "
                       "serial reference"
                     : "MISMATCH: " + why)
              << "\n";
    return ok ? 0 : 1;
}
