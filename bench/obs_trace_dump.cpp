/**
 * @file
 * Observability dump tool: runs the live engine on its worker pool with
 * tracing enabled for 100 subframes, one every 1 ms, and writes
 *
 *   obs_trace.json      per-worker span timeline (chrome://tracing)
 *   obs_subframes.csv   per-subframe latency/deadline series
 *   obs_metrics.csv     engine counters and gauges
 *
 * then runs one simulated study policy and writes its per-subframe
 * activity/power series as CSV and counter-track JSON
 * (obs_study.csv, obs_study_trace.json) and its aggregates
 * (obs_study_metrics.csv).  Output lands in --csv DIR (default:
 * current directory).
 *
 * The two metrics files are "name,type,value" rows sorted by name.
 * They are not a second tally: each value is read, as the file is
 * written, from what the run already records (the RunRecord, the
 * lane's ShedStats, the subframe series and the tracer, or the
 * StrategyOutcome).
 */
#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

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

/** One "name,type,value" row of a metrics CSV. */
struct MetricRow
{
    std::string name;
    const char *type; ///< "counter" or "gauge"
    double value;
};

/** A counter's value as the CSV prints it (every value is a double). */
double
count(std::uint64_t n)
{
    return static_cast<double>(n);
}

void
write_metric_rows(std::ostream &os, std::vector<MetricRow> rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const MetricRow &a, const MetricRow &b) {
                  return a.name < b.name;
              });
    os << "name,type,value\n";
    for (const MetricRow &row : rows)
        os << row.name << ',' << row.type << ',' << row.value << '\n';
}

/** Subframes of the live series that completed past @p deadline_ms. */
std::uint64_t
deadline_misses(const lte::obs::SubframeSeries &series, double deadline_ms)
{
    std::uint64_t misses = 0;
    for (std::size_t i = 0; i < series.size(); ++i)
        misses += series.at(i).latency_ms() > deadline_ms ? 1 : 0;
    return misses;
}

/** The live run's rows: aggregate engine.* and the lane's
 *  engine.cell<id>.* (one lane, so both read the same tallies). */
std::vector<MetricRow>
engine_rows(lte::runtime::Engine &engine,
            const lte::runtime::RunRecord &record, double deadline_ms)
{
    const lte::runtime::ShedStats &s = engine.shed_stats();
    const std::uint64_t misses =
        deadline_misses(*engine.subframe_series(), deadline_ms);
    const std::string cell =
        "engine.cell" + std::to_string(engine.cell_id());
    return {
        {"engine.activity", "gauge", record.activity},
        {"engine.admitted", "counter", count(s.admitted)},
        {"engine.completed", "counter", count(s.completed)},
        {"engine.deadline_misses", "counter", count(misses)},
        {"engine.degraded", "counter", count(s.degraded)},
        {"engine.shed", "counter", count(s.shed)},
        {"engine.shed_expired", "counter", count(s.shed_expired)},
        {"engine.shed_queue_full", "counter", count(s.shed_queue_full)},
        {"engine.steals", "counter", count(record.steals)},
        {"engine.subframes", "counter", count(record.subframes.size())},
        {"engine.submitted", "counter", count(s.submitted)},
        {"engine.trace_dropped", "gauge",
         count(engine.tracer()->total_dropped())},
        {"engine.users", "counter", count(record.user_count())},
        {"engine.wall_seconds", "gauge", record.wall_seconds},
        {cell + ".completed", "counter", count(s.completed)},
        {cell + ".deadline_misses", "counter", count(misses)},
        {cell + ".degraded", "counter", count(s.degraded)},
        {cell + ".shed", "counter", count(s.shed)},
        {cell + ".submitted", "counter", count(s.submitted)},
    };
}

/** One study run's study.<policy>.* rows. */
std::vector<MetricRow>
study_rows(const lte::core::StrategyOutcome &outcome)
{
    const std::string p = std::string("study.") + outcome.policy.name;
    const lte::sim::SimResult &sim = outcome.sim;
    const lte::mgmt::EstimatorStats &est = outcome.estimator_stats;
    return {
        {p + ".runs", "counter", 1.0},
        {p + ".subframes", "counter", count(sim.subframes)},
        {p + ".tasks", "counter", count(sim.tasks_executed)},
        {p + ".estimator.saturated", "counter",
         count(est.saturated_estimates)},
        {p + ".estimator.clamped_low", "counter", count(est.clamped_low)},
        {p + ".estimator.clamped_high", "counter",
         count(est.clamped_high)},
        {p + ".gating.switches", "counter",
         count(outcome.gating_stats.switch_events)},
        {p + ".avg_power_w", "gauge", outcome.avg_power_w},
        {p + ".avg_dynamic_w", "gauge", outcome.avg_dynamic_w},
        {p + ".activity", "gauge", sim.activity()},
        {p + ".mean_latency", "gauge", sim.mean_latency()},
        {p + ".max_latency", "gauge", sim.max_latency()},
        {p + ".deadline_miss_rate", "gauge", outcome.deadline_miss_rate},
        {p + ".max_backlog", "gauge", count(sim.max_ready_backlog)},
    };
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
    // The paper keeps two to three subframes in flight against the
    // 1 ms arrival period, so three periods is the live deadline.
    const double deadline_ms = core::kDeadlinePeriods;

    // Calibrate once; the study estimator also drives the live engine.
    core::UplinkStudy study(args.study_config());
    study.prepare();

    // --- live engine: 100 subframes with tracing enabled ------------
    // Arrivals come every 1 ms, the period the deadline above counts
    // in.  Free-running, subframes would queue behind each other and
    // nearly all would miss it.
    runtime::EngineConfig cfg;
    cfg.delta_ms = 1.0;
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
    const std::size_t n_live = 100;
    {
        // The paper builds its input up front (Sec. IV-B.1): fill the
        // generator's pools with every allocation size the run draws,
        // so the dispatch thread keeps the 1 ms grid instead of
        // synthesising each new size inside the run.
        workload::PaperModel warm_model(model_cfg);
        std::vector<const phy::UserSignal *> signals;
        for (std::size_t i = 0; i < n_live; ++i)
            engine->input().signals_for(warm_model.next_subframe(),
                                        signals);
    }
    workload::PaperModel model(model_cfg);
    const runtime::RunRecord record = engine->run(model, n_live);
    std::cout << "live engine: " << record.subframes.size()
              << " subframes, " << record.user_count() << " users, "
              << deadline_misses(*engine->subframe_series(), deadline_ms)
              << " past the " << report::fmt(deadline_ms, 0)
              << " ms deadline\n";

    if (auto ofs = open_out(dir, "obs_trace.json"))
        obs::write_chrome_trace(ofs, *engine->tracer());
    if (auto ofs = open_out(dir, "obs_subframes.csv"))
        obs::write_subframe_csv(ofs, *engine->subframe_series(),
                                deadline_ms);
    if (auto ofs = open_out(dir, "obs_metrics.csv"))
        write_metric_rows(ofs, engine_rows(*engine, record, deadline_ms));

    // --- simulated study: per-subframe activity/power series --------
    const auto outcome =
        study.run_policy(mgmt::PowerPolicy::power_gating());
    const auto n_workers = outcome.sim.n_workers;
    if (auto ofs = open_out(dir, "obs_study.csv"))
        core::write_study_csv(ofs, outcome, n_workers);
    if (auto ofs = open_out(dir, "obs_study_trace.json"))
        core::write_study_chrome_trace(ofs, outcome, n_workers);
    if (auto ofs = open_out(dir, "obs_study_metrics.csv"))
        write_metric_rows(ofs, study_rows(outcome));

    std::cout << "\nopen obs_trace.json in chrome://tracing or "
                 "https://ui.perfetto.dev to inspect the timeline\n";
    return 0;
}
