/**
 * @file
 * fig6_ramp: the paper's own evaluation traffic.  PaperModel's Fig. 6
 * user/PRB draw with the Fig. 10 layer/modulation triangle compressed
 * to one full period per repetition, pass-through decode, one cell,
 * inline input, streaming engine in lossless mode (deadline 0, delta 0)
 * on 3 workers.  Closed loop: the engine pulls the model only when its
 * admission ring has room, so throughput is the headline.
 */
#include <algorithm>
#include <memory>
#include <string>

#include "host.hpp"
#include "runtime/engine.hpp"
#include "stage_pass.hpp"
#include "trace_fold.hpp"
#include "workload/paper_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lte;

constexpr std::size_t kWorkers = 3;
/** Subframes per repetition: one whole ramp period. */
constexpr std::size_t kSubframes = 1000;
/** Every kSampleStride-th subframe goes through the serial pass. */
constexpr std::size_t kSampleStride = 10;
constexpr std::size_t kMinReps = 3;

workload::PaperModelConfig
model_config(std::uint64_t seed)
{
    workload::PaperModelConfig cfg;
    cfg.seed = seed;
    cfg.ramp_subframes = kSubframes / 2;
    // Keep the paper's 200-of-34000 staircase resolution.
    cfg.prob_update_interval = std::max<std::uint64_t>(
        1, cfg.ramp_subframes * 200 / 34000);
    return cfg;
}

runtime::EngineConfig
engine_config(std::uint64_t seed, runtime::SubframeFeedbackSink *sink,
              bool traced)
{
    runtime::EngineConfig cfg;
    cfg.kind = runtime::EngineKind::kStreaming;
    cfg.pool.n_workers = kWorkers;
    cfg.input.seed = seed;
    cfg.deadline_ms = 0.0;
    cfg.delta_ms = 0.0;
    cfg.feedback = sink;
    if (traced) {
        cfg.obs.enabled = true;
        cfg.obs.events_per_thread = std::size_t{1} << 20;
    }
    return cfg;
}

/** Pull the whole run stream through @p input, filling its pools. */
void
warm_pools(runtime::InputGenerator &input, std::uint64_t seed)
{
    workload::PaperModel model(model_config(seed));
    std::vector<const phy::UserSignal *> signals;
    for (std::size_t i = 0; i < kSubframes; ++i)
        input.signals_for(model.next_subframe(), signals);
}

struct Rep
{
    double setup_s = 0.0;
    double warm_s = 0.0;
    double throughput = 0.0;
    std::uint64_t digest = 0;
    runtime::RunRecord record;
    runtime::ShedStats shed;
    /** Draw-to-completion latency per subframe index, ms. */
    std::vector<double> latency_ms;
    std::unique_ptr<TraceFold> fold;
};

Rep
run_rep(std::uint64_t seed, bool traced)
{
    Rep rep;
    CompletionSink sink(1, kSubframes);
    const auto t0 = Clock::now();
    auto engine = runtime::make_engine(engine_config(seed, &sink, traced));
    const auto t_warm = Clock::now();
    warm_pools(engine->input(), seed);
    rep.warm_s = seconds_since(t_warm);
    rep.setup_s = seconds_since(t0);

    workload::PaperModel model(model_config(seed));
    TimedModel timed(model, kSubframes);
    rep.record = engine->run(timed, kSubframes);
    rep.throughput =
        static_cast<double>(rep.record.subframes.size()) /
        rep.record.wall_seconds;
    rep.digest = rep.record.digest();
    if (auto *streaming =
            dynamic_cast<runtime::StreamingEngine *>(engine.get()))
        rep.shed = streaming->shed_stats();

    rep.latency_ms.assign(kSubframes, 0.0);
    for (std::size_t i = 0; i < kSubframes; ++i) {
        const std::int64_t done = sink.completed_ns(0, i);
        if (done != 0) {
            rep.latency_ms[i] =
                static_cast<double>(done - timed.drawn_ns(i)) / 1e6;
        }
    }
    if (traced) {
        rep.fold = std::make_unique<TraceFold>(
            fold_trace(*engine->tracer(), kWorkers,
                       rep.record.wall_seconds));
    }
    return rep;
}

/** Every kSampleStride-th subframe of the stream with the exact input
 *  the engine received (same warm-up, same request order). */
std::vector<StageSample>
sample_stream(runtime::InputGenerator &input, std::uint64_t seed)
{
    warm_pools(input, seed);
    workload::PaperModel model(model_config(seed));
    std::vector<StageSample> samples;
    for (std::size_t i = 0; i < kSubframes; ++i) {
        StageSample sample;
        sample.params = model.next_subframe();
        sample.signals = input.signals_for(sample.params);
        if (i % kSampleStride == 0)
            samples.push_back(std::move(sample));
    }
    return samples;
}

} // namespace

void
run_fig6_ramp(const Args &args, Report &report)
{
    report.fact("workload",
                "fig6_ramp: closed loop, streaming engine, 3 workers, " +
                    std::to_string(kSubframes) +
                    " subframes (one ramp period) per repetition");

    std::vector<Rep> reps;
    const auto loop_start = Clock::now();
    double rss_mb = 0.0;
    while (reps.size() < kMinReps || seconds_since(loop_start) < args.seconds) {
        reps.push_back(run_rep(args.seed, false));
        if (reps.size() == 1)
            rss_mb = peak_rss_mb(); // one set-up plus one run
    }

    // Gates: lossless accounting, and every repetition bit-identical.
    std::vector<double> setup, warm, throughput, latency;
    for (const Rep &rep : reps) {
        setup.push_back(rep.setup_s);
        warm.push_back(rep.warm_s);
        throughput.push_back(rep.throughput);
        latency.insert(latency.end(), rep.latency_ms.begin(),
                       rep.latency_ms.end());
        report.attempted += rep.shed.submitted;
        report.failed += rep.shed.shed;
        if (rep.shed.completed != kSubframes ||
            rep.shed.shed + rep.shed.completed != rep.shed.submitted)
            report.fail("fig6_ramp: a lossless run did not complete every "
                        "submitted subframe");
        if (rep.digest != reps.front().digest)
            report.fail("fig6_ramp: repetitions produced different "
                        "RunRecord digests");
    }
    report.gate_value("digest", hex64(reps.front().digest));
    report.fact("fig6_ramp.repetitions", std::to_string(reps.size()));

    // Serial reference over a sample: the same per-user checksums.
    runtime::InputGenerator reference_input(
        engine_config(args.seed, nullptr, false).input);
    const std::vector<StageSample> samples =
        sample_stream(reference_input, args.seed);
    const StagePassResult pass =
        run_stage_pass(phy::ReceiverConfig{}, samples);
    const runtime::RunRecord &record = reps.front().record;
    for (std::size_t s = 0;
         s < samples.size() && record.subframes.size() == kSubframes; ++s) {
        const auto &users = record.subframes[s * kSampleStride].users;
        bool same = users.size() == pass.checksums[s].size();
        for (std::size_t u = 0; same && u < users.size(); ++u)
            same = users[u].checksum == pass.checksums[s][u];
        if (!same) {
            report.fail("fig6_ramp: serial reference checksum differs at "
                        "subframe " + std::to_string(s * kSampleStride));
            break;
        }
    }

    const double tput = median(throughput);
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("throughput_sf_s", tput, "1/s");
    report.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
    report.metric("latency_p99_ms", quantile(latency, 0.99), "ms");
    report.metric("served_frac",
                  static_cast<double>(report.attempted - report.failed) /
                      static_cast<double>(report.attempted),
                  "ratio");

    if (!args.trace)
        return;

    // Per-layer: a separate traced repetition, the serial pass, host.
    const Rep traced = run_rep(args.seed, true);
    if (traced.digest != reps.front().digest)
        report.fail("fig6_ramp: traced run digest differs");
    const TraceFold &fold = *traced.fold;
    report_trace_fold(fold, traced.record.subframes.size(), report);
    std::vector<double> admit_wait;
    for (std::size_t i = 0; i < kSubframes; ++i) {
        const auto it = fold.subframe_ms_by_key.find(subframe_key(1, i));
        if (it != fold.subframe_ms_by_key.end())
            admit_wait.push_back(traced.latency_ms[i] - it->second);
    }
    report.metric("runtime.admit_wait_ms_p50", quantile(admit_wait, 0.5),
                  "ms");
    report.metric("runtime.admit_wait_ms_p99", quantile(admit_wait, 0.99),
                  "ms");
    report.metric("runtime.activity", traced.record.activity, "ratio");
    report.metric("runtime.parallel_speedup",
                  pass.ms_per_subframe() * tput / 1e3, "ratio");
    report.metric("obs.trace_overhead_frac", tput / traced.throughput - 1.0,
                  "ratio");
    report.metric("input.warm_s", median(warm), "s");
    // Lossless mode never sheds or degrades; these read 0 by design.
    std::uint64_t degraded = 0;
    for (const Rep &rep : reps)
        degraded += rep.shed.degraded;
    const auto attempted = static_cast<double>(report.attempted);
    report.metric("admission.shed", static_cast<double>(report.failed),
                  "count");
    report.metric("admission.degraded", static_cast<double>(degraded),
                  "count");
    report.metric("shed_frac", static_cast<double>(report.failed) / attempted,
                  "ratio");
    report.metric("degraded_frac", static_cast<double>(degraded) / attempted,
                  "ratio");
    report.fact("idle_layers", "io mac sim mgmt power sim_cell_sf_per_s");

    const double peak = measure_host_peak(report);
    report_stage_pass(pass, peak, report);
}

} // namespace perfbench
