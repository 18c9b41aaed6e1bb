/**
 * @file
 * decode_2cell: two cells on one MultiCellEngine with real turbo
 * decode of realistic (encoded, channel-impaired) input at a lowered
 * SNR, input offloaded to the sample plane (generator source, one
 * shared producer), peak-load PaperModel traffic with distinct per-cell
 * seeds, a fixed open-loop TTI, deadline 3 x TTI and the degrade shed
 * policy, on 2 workers.  Every subframe is timed from its due time
 * (run start + index x TTI) to its completion callback.
 */
#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "host.hpp"
#include "runtime/multicell.hpp"
#include "stage_pass.hpp"
#include "trace_fold.hpp"
#include "workload/paper_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace lte;

constexpr std::size_t kCells = 2;
constexpr std::size_t kWorkers = 2;
/** Receive SNR: near the MAC's 10% BLER operating point, so decode
 *  iterates instead of stopping at the first CRC check. */
constexpr double kSnrDb = 18.0;
/**
 * The open-loop TTI, fixed once and never recalibrated per run, so a
 * faster receiver shows as lower latency, not as a different offered
 * rate.  On the reference host (4-CPU x86-64 VM, SSE2 build) the two
 * workers' closed-loop full-decode capacity is about 105 subframes/s,
 * one tick per 19 ms, so 40 ms offers about half of it.  At 80% (24 ms)
 * the VM's run-to-run CPU noise pushed the queue into saturation on
 * some runs and p99 latency varied by 2x between runs.
 */
constexpr double kTtiMs = 40.0;
/** Ticks per repetition (each tick offers one subframe per cell). */
constexpr std::size_t kTicks = 250;
constexpr std::size_t kSampleStride = 10;
constexpr std::size_t kMinReps = 2;

workload::PaperModelConfig
model_config(std::uint64_t seed, std::size_t cell)
{
    workload::PaperModelConfig cfg;
    cfg.prob_min = 1.0;
    cfg.prob_max = 1.0;
    cfg.seed = cell_stream_seed(seed, static_cast<std::uint32_t>(cell + 1));
    return cfg;
}

runtime::MultiCellConfig
engine_config(std::uint64_t seed, runtime::SubframeFeedbackSink *sink,
              bool traced)
{
    runtime::MultiCellConfig cfg;
    cfg.n_cells = kCells;
    runtime::EngineConfig &e = cfg.engine;
    e.pool.n_workers = kWorkers;
    e.receiver.use_real_turbo = true;
    e.input.realistic = true;
    e.input.real_turbo = true;
    e.input.snr_db = kSnrDb;
    e.input.seed = seed;
    e.io.enabled = true;
    e.io.source = io::SourceKind::kGenerator;
    e.delta_ms = kTtiMs;
    e.deadline_ms = 3.0 * kTtiMs;
    e.shed_policy = runtime::ShedPolicy::kDegrade;
    e.feedback = sink;
    if (traced) {
        e.obs.enabled = true;
        e.obs.events_per_thread = std::size_t{1} << 19;
    }
    return cfg;
}

/** Each cell's run stream, drawn once (the same seeds give the same
 *  stream every repetition). */
std::vector<std::vector<phy::SubframeParams>>
draw_streams(std::uint64_t seed)
{
    std::vector<std::vector<phy::SubframeParams>> streams(kCells);
    for (std::size_t c = 0; c < kCells; ++c) {
        workload::PaperModel model(model_config(seed, c));
        for (std::size_t i = 0; i < kTicks; ++i)
            streams[c].push_back(model.next_subframe());
    }
    return streams;
}

/** Realistic synthesis of every @p stride-th subframe of the streams,
 *  one thread per cell (each cell owns its generator). */
void
warm_inputs(const std::vector<runtime::InputGenerator *> &inputs,
            const std::vector<std::vector<phy::SubframeParams>> &streams,
            std::size_t stride = 1)
{
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kCells; ++c) {
        threads.emplace_back([&inputs, &streams, stride, c] {
            std::vector<const phy::UserSignal *> signals;
            for (std::size_t i = 0; i < streams[c].size(); i += stride)
                inputs[c]->signals_for(streams[c][i], signals);
        });
    }
    for (std::thread &t : threads)
        t.join();
}

struct Rep
{
    double setup_s = 0.0;
    double warm_s = 0.0;
    double throughput = 0.0;
    std::uint64_t submitted = 0, completed = 0, shed = 0, degraded = 0;
    std::uint64_t io_late = 0, io_lost = 0;
    std::uint64_t checksum_mismatches = 0;
    std::uint64_t accounting_errors = 0;
    double activity = 0.0;
    /** Due-to-completion latency per (cell, tick), ms (-1 = none). */
    std::vector<double> latency_ms;
    /** Producer draw time minus due time, ms. */
    std::vector<double> lag_ms;
    std::unique_ptr<TraceFold> fold;
    runtime::MultiCellRunRecord record;
    /** Degrade level each (cell, tick) ran at. */
    std::vector<phy::DegradeLevel> levels;
};

Rep
run_rep(std::uint64_t seed,
        const std::vector<std::vector<phy::SubframeParams>> &streams,
        bool traced)
{
    // The engine lives only inside this function: an idle engine's
    // workers spin, so none may outlive its repetition.
    Rep rep;
    CompletionSink sink(kCells, kTicks);
    const auto t0 = Clock::now();
    runtime::MultiCellEngine engine(engine_config(seed, &sink, traced));
    const auto t_warm = Clock::now();
    warm_inputs({&engine.input(0), &engine.input(1)}, streams);
    rep.warm_s = seconds_since(t_warm);
    rep.setup_s = seconds_since(t0);

    std::vector<std::unique_ptr<workload::PaperModel>> models;
    std::vector<std::unique_ptr<TimedModel>> timed;
    std::vector<workload::ParameterModel *> lanes;
    for (std::size_t c = 0; c < kCells; ++c) {
        models.push_back(std::make_unique<workload::PaperModel>(
            model_config(seed, c)));
        timed.push_back(std::make_unique<TimedModel>(*models.back(), kTicks));
        lanes.push_back(timed.back().get());
    }
    const std::int64_t start_ns = now_ns();
    rep.record = engine.run(lanes, kTicks);
    rep.throughput = static_cast<double>(rep.record.completed_subframes()) /
                     rep.record.wall_seconds;
    rep.activity = rep.record.activity;

    const double tti_ns = kTtiMs * 1e6;
    rep.latency_ms.assign(kCells * kTicks, -1.0);
    rep.levels.assign(kCells * kTicks, phy::DegradeLevel::kNone);
    for (std::size_t c = 0; c < kCells; ++c) {
        const runtime::ShedStats &s = rep.record.shed[c];
        rep.submitted += s.submitted;
        rep.completed += s.completed;
        rep.shed += s.shed;
        rep.degraded += s.degraded;
        rep.io_late += s.io_late;
        rep.io_lost += s.io_lost;
        if (s.shed + s.completed != s.submitted || s.submitted != kTicks)
            ++rep.accounting_errors;
        for (std::size_t i = 0; i < kTicks; ++i) {
            const double due =
                static_cast<double>(start_ns) + tti_ns * static_cast<double>(i);
            if (const std::int64_t drawn = timed[c]->drawn_ns(i))
                rep.lag_ms.push_back((static_cast<double>(drawn) - due) / 1e6);
            if (const std::int64_t done = sink.completed_ns(c, i)) {
                rep.latency_ms[c * kTicks + i] =
                    (static_cast<double>(done) - due) / 1e6;
                rep.levels[c * kTicks + i] = sink.level(c, i);
            }
        }
        // Every user whose real decode passed CRC must carry exactly
        // the payload the transmitter encoded.
        for (const runtime::SubframeOutcome &sf :
             rep.record.cells[c].subframes) {
            const phy::SubframeParams &params = streams[c][sf.subframe_index];
            for (const runtime::UserOutcome &user : sf.users) {
                if (!user.crc_ok || user.crc_modelled)
                    continue;
                const auto &expected =
                    engine.input(c).expected_bits(params.users[user.user_id]);
                if (user.checksum != phy::bit_checksum(expected))
                    ++rep.checksum_mismatches;
            }
        }
    }
    if (traced) {
        rep.fold = std::make_unique<TraceFold>(fold_trace(
            *engine.tracer(), kWorkers, rep.record.wall_seconds));
    }
    return rep;
}

} // namespace

void
run_decode_2cell(const Args &args, Report &report)
{
    report.fact("workload",
                "decode_2cell: open loop, TTI " + std::to_string(kTtiMs) +
                    " ms, deadline 3 TTI, degrade policy, 2 cells on 2 "
                    "workers, real turbo at " + std::to_string(kSnrDb) +
                    " dB, " + std::to_string(kTicks) +
                    " ticks per repetition");
    const auto streams = draw_streams(args.seed);

    std::vector<Rep> reps;
    const auto loop_start = Clock::now();
    double rss_mb = 0.0;
    while (reps.size() < kMinReps || seconds_since(loop_start) < args.seconds) {
        reps.push_back(run_rep(args.seed, streams, false));
        if (reps.size() == 1)
            rss_mb = peak_rss_mb(); // one set-up plus one run
    }

    std::vector<double> setup, warm, throughput, latency, lag;
    std::uint64_t shed = 0, degraded = 0, io_late = 0, io_lost = 0;
    for (const Rep &rep : reps) {
        setup.push_back(rep.setup_s);
        warm.push_back(rep.warm_s);
        throughput.push_back(rep.throughput);
        for (double l : rep.latency_ms) {
            if (l >= 0.0)
                latency.push_back(l);
        }
        lag.insert(lag.end(), rep.lag_ms.begin(), rep.lag_ms.end());
        report.attempted += rep.submitted;
        report.failed += rep.shed;
        shed += rep.shed;
        degraded += rep.degraded;
        io_late += rep.io_late;
        io_lost += rep.io_lost;
        if (rep.accounting_errors != 0)
            report.fail("decode_2cell: shed + completed != submitted");
        if (rep.checksum_mismatches != 0)
            report.fail("decode_2cell: " +
                        std::to_string(rep.checksum_mismatches) +
                        " CRC-passing users decoded the wrong payload");
    }
    report.fact("decode_2cell.repetitions", std::to_string(reps.size()));

    // Serial reference over a sample of the last repetition's ticks:
    // identical checksums wherever the engine ran the full chain.  The
    // reference synthesizes its own input (realistic signals depend only
    // on seed, cell and user shape, not on request order).
    const Rep &last = reps.back();
    const runtime::MultiCellConfig reference_cfg =
        engine_config(args.seed, nullptr, false);
    std::vector<std::unique_ptr<runtime::InputGenerator>> owned;
    std::vector<runtime::InputGenerator *> reference_inputs;
    for (std::size_t c = 0; c < kCells; ++c) {
        runtime::InputGeneratorConfig input_cfg = reference_cfg.engine.input;
        input_cfg.cell_id = reference_cfg.cell_id_of(c);
        owned.push_back(std::make_unique<runtime::InputGenerator>(input_cfg));
        reference_inputs.push_back(owned.back().get());
    }
    warm_inputs(reference_inputs, streams, kSampleStride);
    std::vector<StageSample> samples;
    std::vector<std::pair<std::size_t, std::size_t>> where;
    for (std::size_t i = 0; i < kTicks; i += kSampleStride) {
        for (std::size_t c = 0; c < kCells; ++c) {
            StageSample sample;
            sample.params = streams[c][i];
            sample.params.cell_id = static_cast<std::uint32_t>(c + 1);
            sample.signals = reference_inputs[c]->signals_for(sample.params);
            samples.push_back(std::move(sample));
            where.emplace_back(c, i);
        }
    }
    const StagePassResult pass =
        run_stage_pass(reference_cfg.engine.receiver, samples);
    std::uint64_t digest = 0;
    for (std::size_t s = 0; s < samples.size(); ++s) {
        for (std::uint64_t sum : pass.checksums[s])
            digest = fold_digest(digest, sum);
        const auto [c, i] = where[s];
        if (last.latency_ms[c * kTicks + i] < 0.0 ||
            last.levels[c * kTicks + i] != phy::DegradeLevel::kNone)
            continue;
        const auto &sfs = last.record.cells[c].subframes;
        const auto it =
            std::find_if(sfs.begin(), sfs.end(), [i](const auto &sf) {
                return sf.subframe_index == i;
            });
        bool same = it != sfs.end() &&
                    it->users.size() == pass.checksums[s].size();
        for (std::size_t u = 0; same && u < it->users.size(); ++u)
            same = it->users[u].checksum == pass.checksums[s][u];
        if (!same) {
            report.fail("decode_2cell: serial reference checksum differs at "
                        "cell " + std::to_string(c + 1) + " tick " +
                        std::to_string(i));
            break;
        }
    }
    report.gate_value("serial_digest", hex64(digest));

    const auto attempted = static_cast<double>(report.attempted);
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", rss_mb, "MB");
    report.metric("throughput_sf_s", median(throughput), "1/s");
    report.metric("latency_p50_ms", quantile(latency, 0.5), "ms");
    report.metric("latency_p99_ms", quantile(latency, 0.99), "ms");
    report.metric("served_frac",
                  (attempted - static_cast<double>(shed + degraded)) /
                      attempted,
                  "ratio");
    report.fact("latency.samples", std::to_string(latency.size()));
    std::vector<double> activity;
    for (const Rep &rep : reps)
        activity.push_back(rep.activity);
    report.fact("decode_2cell.pool_activity", std::to_string(median(activity)));

    if (!args.trace)
        return;

    report.metric("shed_frac", static_cast<double>(shed) / attempted, "ratio");
    report.metric("degraded_frac", static_cast<double>(degraded) / attempted,
                  "ratio");
    report.metric("admission.shed", static_cast<double>(shed), "count");
    report.metric("admission.degraded", static_cast<double>(degraded),
                  "count");
    report.metric("io.producer_lag_ms_p99", quantile(lag, 0.99), "ms");
    report.metric("io.late_frac", static_cast<double>(io_late) / attempted,
                  "ratio");
    report.metric("io.lost", static_cast<double>(io_lost), "count");
    report.metric("input.warm_s", median(warm), "s");

    const Rep traced = run_rep(args.seed, streams, true);
    const TraceFold &fold = *traced.fold;
    report_trace_fold(fold, static_cast<std::size_t>(traced.completed), report);
    report.metric("io.frame_residence_ms_p50", quantile(fold.io_frame_ms, 0.5),
                  "ms");
    report.metric("io.frame_residence_ms_p99",
                  quantile(fold.io_frame_ms, 0.99), "ms");
    std::vector<double> admit_wait, traced_latency;
    for (std::size_t c = 0; c < kCells; ++c) {
        for (std::size_t i = 0; i < kTicks; ++i) {
            const double l = traced.latency_ms[c * kTicks + i];
            if (l < 0.0)
                continue;
            traced_latency.push_back(l);
            const auto it = fold.subframe_ms_by_key.find(
                subframe_key(static_cast<std::uint32_t>(c + 1), i));
            if (it != fold.subframe_ms_by_key.end())
                admit_wait.push_back(l - it->second);
        }
    }
    report.metric("runtime.admit_wait_ms_p50", quantile(admit_wait, 0.5),
                  "ms");
    report.metric("runtime.admit_wait_ms_p99", quantile(admit_wait, 0.99),
                  "ms");
    report.metric("runtime.activity", traced.activity, "ratio");
    report.metric("runtime.parallel_speedup",
                  pass.ms_per_subframe() * median(throughput) / 1e3, "ratio");
    report.metric("obs.trace_overhead_frac",
                  quantile(traced_latency, 0.5) / quantile(latency, 0.5) - 1.0,
                  "ratio");
    report.fact("idle_layers", "mac sim mgmt power sim_cell_sf_per_s");

    const double peak = measure_host_peak(report);
    report_stage_pass(pass, peak, report);
}

} // namespace perfbench
