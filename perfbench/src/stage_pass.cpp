#include "stage_pass.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "phy/kernel_scratch.hpp"
#include "phy/op_model.hpp"
#include "phy/turbo.hpp"

namespace perfbench {

const char *const kStageNames[kStageCount] = {
    "chanest", "weights", "demod", "tail", "decode", "reduce"};

double
StagePassResult::total_seconds() const
{
    double total = 0.0;
    for (double s : seconds)
        total += s;
    return total;
}

double
StagePassResult::ms_per_subframe() const
{
    return subframes > 0
        ? total_seconds() * 1e3 / static_cast<double>(subframes)
        : 0.0;
}

StagePassResult
run_stage_pass(const lte::phy::ReceiverConfig &receiver,
               const std::vector<StageSample> &samples)
{
    using lte::phy::UserProcessor;
    StagePassResult out;
    // The engines' workers create their scratch before the first task;
    // do the same so no stage pays a one-off allocation.
    lte::phy::warm_kernel_scratch();
    lte::phy::warm_turbo_scratch();

    // One reused processor per cell, as an engine reuses its pooled ones.
    std::map<std::uint32_t, std::unique_ptr<UserProcessor>> procs;
    const auto decode = lte::phy::decode_model(receiver);

    for (const StageSample &sample : samples) {
        std::unique_ptr<UserProcessor> &proc = procs[sample.params.cell_id];
        if (!proc) {
            lte::phy::ReceiverConfig config = receiver;
            config.cell_id = sample.params.cell_id;
            proc = std::make_unique<UserProcessor>(config);
        }
        std::vector<std::uint64_t> &sums = out.checksums.emplace_back();
        for (std::size_t u = 0; u < sample.params.users.size(); ++u) {
            const lte::phy::UserParams &user = sample.params.users[u];
            proc->bind(user, sample.signals[u]);

            std::array<Clock::time_point, kStageCount + 1> t;
            t[0] = Clock::now();
            for (std::size_t i = 0; i < proc->n_chanest_tasks(); ++i)
                proc->run_chanest_task(i);
            t[1] = Clock::now();
            proc->compute_weights();
            t[2] = Clock::now();
            for (std::size_t i = 0; i < proc->n_demod_tasks(); ++i)
                proc->run_demod_task(i);
            t[3] = Clock::now();
            for (std::size_t i = 0; i < proc->n_tail_tasks(); ++i)
                proc->run_tail_task(i);
            t[4] = Clock::now();
            for (std::size_t i = 0; i < proc->n_decode_tasks(); ++i)
                proc->run_decode_task(i);
            t[5] = Clock::now();
            const lte::phy::UserResult &result = proc->finish_reduce();
            t[6] = Clock::now();

            for (std::size_t s = 0; s < kStageCount; ++s) {
                out.seconds[s] +=
                    std::chrono::duration<double>(t[s + 1] - t[s]).count();
            }
            const auto costs = lte::phy::user_task_costs(
                user, receiver.n_antennas, false, decode);
            out.flops[kChanEst] += static_cast<double>(
                costs.chanest_task * costs.n_chanest_tasks);
            out.flops[kWeights] += static_cast<double>(costs.weights);
            out.flops[kDemod] += static_cast<double>(
                costs.demod_task * costs.n_demod_tasks);
            out.flops[kTail] += static_cast<double>(
                costs.tail_task * costs.n_tail_tasks);
            out.flops[kDecode] += static_cast<double>(
                costs.decode_task * costs.n_decode_tasks);
            out.flops[kReduce] += static_cast<double>(costs.tail_reduce);

            out.decode_iterations += result.decode_iterations;
            out.decode_blocks += proc->n_decode_tasks();
            out.crc_ok += result.crc_ok;
            ++out.users;
            sums.push_back(result.checksum);
        }
        ++out.subframes;
    }
    return out;
}

void
report_stage_pass(const StagePassResult &result, double peak_gflops,
                  Report &report)
{
    const double total_s = result.total_seconds();
    double total_flops = 0.0;
    for (double f : result.flops)
        total_flops += f;
    const double n_sf = static_cast<double>(std::max<std::size_t>(
        1, result.subframes));
    for (std::size_t s = 0; s < kStageCount; ++s) {
        const std::string phy = std::string("phy.") + kStageNames[s];
        const double secs = result.seconds[s];
        const double gflops =
            secs > 0.0 ? result.flops[s] / secs / 1e9 : 0.0;
        report.metric(phy + ".ms_per_sf", secs * 1e3 / n_sf, "ms");
        report.metric(phy + ".share", total_s > 0.0 ? secs / total_s : 0.0,
                      "ratio");
        report.metric(phy + ".gflops", gflops, "GFLOP/s");
        report.metric(phy + ".frac_peak",
                      peak_gflops > 0.0 ? gflops / peak_gflops : 0.0,
                      "ratio");
        report.metric(std::string("opmodel.") + kStageNames[s] +
                          ".pred_share",
                      total_flops > 0.0 ? result.flops[s] / total_flops
                                        : 0.0,
                      "ratio");
    }
    report.metric("phy.decode.iters_per_cb",
                  result.decode_blocks > 0
                      ? static_cast<double>(result.decode_iterations) /
                            static_cast<double>(result.decode_blocks)
                      : 0.0,
                  "iter");
    report.metric("phy.crc_pass_frac",
                  result.users > 0
                      ? static_cast<double>(result.crc_ok) /
                            static_cast<double>(result.users)
                      : 0.0,
                  "ratio");
    report.metric("phy.serial_ms_per_sf", result.ms_per_subframe(), "ms");
    report.fact("phy.sample", std::to_string(result.subframes) +
                                  " subframes, " +
                                  std::to_string(result.users) + " users");
}

} // namespace perfbench
