/**
 * @file
 * Multi-cell scaling study: one shared worker pool serving 1, 2 and 4
 * cells, each cell an independent TTI stream with the paper's 2-3
 * subframes in flight.
 *
 * Part 1 (engine): free-running lossless runs of the multi-cell
 * engine.  A single cell cannot fill a wide pool — its in-flight
 * window is the paper's per-sector pipeline depth — so aggregate
 * throughput grows with the cell count until the pool saturates
 * (on an 8-hardware-thread host, 4 cells reach >= 3x the 1-cell
 * rate; on a 1-core container the curve is flat by construction).
 * The table reports aggregate and per-cell throughput plus per-cell
 * p50/p99 admission-to-completion latency from the cell-tagged
 * observability series.
 *
 * Part 2 (study): run_policy_multicell slices the simulated
 * TILEPro64 across the cells (workers, power domains, base power),
 * runs each cell's decorrelated paper input model under NAP, and
 * reports per-cell and total power plus the Eq. 6 domain partition
 * from the cells' peak demands.
 */
#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "runtime/engine.hpp"
#include "workload/steady_model.hpp"

namespace {

using namespace lte;
using bench::heavy_user;
using bench::percentile;

struct CellScalingRow
{
    std::size_t n_cells = 0;
    double aggregate_rate = 0.0; ///< completed subframes / wall second
    double per_cell_rate = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

CellScalingRow
run_cells(std::size_t n_cells, std::size_t n_workers,
          std::size_t n_subframes, std::uint64_t seed)
{
    runtime::MultiCellConfig cfg;
    cfg.n_cells = n_cells;
    cfg.engine.kind = runtime::EngineKind::kStreaming;
    cfg.engine.pool.n_workers = n_workers;
    cfg.engine.input.pool_size = 2;
    cfg.engine.input.seed = seed;
    cfg.engine.delta_ms = 0.0;    // free-running
    cfg.engine.deadline_ms = 0.0; // lossless
    cfg.engine.admission_queue = 4;
    // The paper keeps 2-3 subframes in flight per sector; the shared
    // window is that pipeline depth times the cell count.
    cfg.engine.max_in_flight = 2 * n_cells;
    cfg.engine.obs.enabled = true;
    cfg.engine.obs.series_capacity = n_cells * n_subframes;
    runtime::MultiCellEngine engine(cfg);

    // Warm-up: arenas, job pools, FFT plans, one subframe per cell.
    for (std::size_t c = 0; c < n_cells; ++c) {
        phy::SubframeParams sf;
        sf.subframe_index = 0;
        sf.cell_id = engine.cell_id(c);
        sf.users.push_back(heavy_user());
        engine.process_subframe(c, sf);
    }

    std::vector<workload::SteadyModel> models(
        n_cells, workload::SteadyModel(heavy_user()));
    std::vector<workload::ParameterModel *> model_ptrs;
    for (auto &m : models)
        model_ptrs.push_back(&m);
    const auto record = engine.run(model_ptrs, n_subframes);

    CellScalingRow row;
    row.n_cells = n_cells;
    row.aggregate_rate =
        static_cast<double>(record.completed_subframes()) /
        record.wall_seconds;
    row.per_cell_rate =
        row.aggregate_rate / static_cast<double>(n_cells);
    const auto &series = *engine.subframe_series();
    std::vector<double> latencies;
    latencies.reserve(series.size());
    for (std::size_t i = 0; i < series.size(); ++i)
        latencies.push_back(series.at(i).latency_ms());
    row.p50_ms = percentile(latencies, 0.50);
    row.p99_ms = percentile(latencies, 0.99);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lte;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Multi-cell scaling: shared pool, 1/2/4 cells",
                        args);

    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t n_workers =
        std::clamp<std::size_t>(hw == 0 ? 1 : hw, 2, 8);
    const std::size_t n_subframes = args.full ? 400 : 120;
    std::cout << "worker pool:  " << n_workers << " workers ("
              << (hw == 0 ? 1u : hw) << " hardware threads)\n"
              << "per cell:     " << n_subframes
              << " subframes, 2 in flight, lossless\n\n";

    report::TextTable engine_table({"cells", "aggregate sf/s",
                                    "per-cell sf/s", "scaling",
                                    "p50 ms", "p99 ms"});
    double base_rate = 0.0;
    for (std::size_t n_cells : {1u, 2u, 4u}) {
        const auto row =
            run_cells(n_cells, n_workers, n_subframes, args.seed);
        if (n_cells == 1)
            base_rate = row.aggregate_rate;
        engine_table.add_row(
            {std::to_string(row.n_cells),
             report::fmt(row.aggregate_rate, 1),
             report::fmt(row.per_cell_rate, 1),
             report::fmt(row.aggregate_rate / base_rate, 2) + "x",
             report::fmt(row.p50_ms, 2), report::fmt(row.p99_ms, 2)});
    }
    engine_table.print(std::cout);
    std::cout << "\na single cell runs the paper's 2-subframe pipeline "
                 "depth, so it cannot\nfill a wide pool; extra cells "
                 "add independent in-flight subframes until\nthe pool "
                 "saturates (>= 3x at 4 cells on an 8-thread host; a "
                 "1-core\ncontainer stays flat by construction).\n\n";

    // Part 2: the sliced-simulator power study.
    core::StudyConfig study_cfg = args.study_config();
    core::UplinkStudy study(study_cfg);
    report::TextTable power_table({"cells", "total W", "dynamic W",
                                   "worst miss", "domain partition"});
    for (std::size_t n_cells : {1u, 2u, 4u}) {
        const auto outcome = study.run_policy_multicell(
            mgmt::PowerPolicy::nap(), n_cells);
        std::string partition;
        for (std::size_t c = 0; c < outcome.domain_partition.size();
             ++c) {
            if (c > 0)
                partition += "+";
            partition += std::to_string(outcome.domain_partition[c]);
        }
        power_table.add_row(
            {std::to_string(n_cells),
             report::fmt(outcome.total_power_w, 2),
             report::fmt(outcome.total_dynamic_w, 2),
             report::fmt(outcome.worst_deadline_miss_rate, 4),
             partition + " cores"});
    }
    power_table.print(std::cout);
    std::cout << "\neach cell runs the full paper model on its own "
                 "decorrelated stream over\nan equal slice of the "
                 "chip; the partition column is the Eq. 6\n"
                 "largest-remainder apportionment of the 8-core power "
                 "domains from the\ncells' peak core demands.\n";
    return 0;
}
