/**
 * @file
 * Observability dump tool: runs the live engine on its worker pool with
 * tracing enabled for 100 subframes and writes
 *
 *   obs_trace.json      per-worker span timeline (chrome://tracing)
 *   obs_subframes.csv   per-subframe latency/deadline series
 *   obs_metrics.csv     engine counters and gauges
 *
 * then runs one simulated study policy and writes its per-subframe
 * activity/power series as CSV and counter-track JSON
 * (obs_study.csv, obs_study_trace.json).  Output lands in --csv DIR
 * (default: current directory).
 */
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "core/study_export.hpp"
#include "obs/export.hpp"
#include "runtime/engine.hpp"
#include "workload/paper_model.hpp"

namespace {

std::ofstream
open_out(const std::string &dir, const char *name)
{
    const std::string path = dir + "/" + name;
    std::ofstream ofs(path);
    if (!ofs)
        std::cerr << "cannot open " << path << "\n";
    else
        std::cout << "wrote " << path << "\n";
    return ofs;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lte;
    auto args = bench::BenchArgs::parse(argc, argv);
    bench::print_banner("Observability dump (trace + metrics export)",
                        args);
    const std::string dir = args.csv_dir.empty() ? "." : args.csv_dir;

    // Calibrate once; the study estimator also drives the live engine.
    core::UplinkStudy study(args.study_config());
    study.prepare();

    // --- live engine: 100 subframes with tracing enabled ------------
    runtime::EngineConfig cfg;
    cfg.pool.n_workers = 4;
    cfg.proactive = true; // NAP: the estimate parks surplus workers
    cfg.input.pool_size = 4;
    cfg.input.seed = args.seed;
    cfg.obs.enabled = true;
    auto engine = runtime::make_engine(cfg);
    engine->set_estimator(mgmt::WorkloadEstimator(study.table()));

    workload::PaperModelConfig model_cfg;
    model_cfg.ramp_subframes = 100;
    model_cfg.prob_update_interval = 10;
    model_cfg.seed = args.seed;
    workload::PaperModel model(model_cfg);

    const std::size_t n_live = 100;
    const runtime::RunRecord record = engine->run(model, n_live);
    std::cout << "live engine: " << record.subframes.size()
              << " subframes, " << record.user_count() << " users\n";

    if (auto ofs = open_out(dir, "obs_trace.json"))
        obs::write_chrome_trace(ofs, *engine->tracer());
    if (auto ofs = open_out(dir, "obs_subframes.csv"))
        obs::write_subframe_csv(ofs, *engine->subframe_series(),
                                cfg.obs.deadline_ms);
    if (auto ofs = open_out(dir, "obs_metrics.csv"))
        obs::write_metrics_csv(ofs, *engine->metrics());

    // --- simulated study: per-subframe activity/power series --------
    const auto outcome =
        study.run_policy(mgmt::PowerPolicy::power_gating());
    const auto n_workers = outcome.sim.n_workers;
    if (auto ofs = open_out(dir, "obs_study.csv"))
        core::write_study_csv(ofs, outcome, n_workers);
    if (auto ofs = open_out(dir, "obs_study_trace.json"))
        core::write_study_chrome_trace(ofs, outcome, n_workers);
    if (auto ofs = open_out(dir, "obs_study_metrics.csv"))
        obs::write_metrics_csv(ofs, study.metrics());

    std::cout << "\nopen obs_trace.json in chrome://tracing or "
                 "https://ui.perfetto.dev to inspect the timeline\n";
    return 0;
}
