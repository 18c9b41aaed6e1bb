#include "sim/calibrate.hpp"

#include <cmath>

#include "common/check.hpp"
#include "phy/op_model.hpp"
#include "sim/machine.hpp"
#include "workload/paper_model.hpp"
#include "workload/steady_model.hpp"

namespace lte::sim {

double
calibrate_cycles_per_op(const SimConfig &config, std::size_t n_antennas,
                        std::uint64_t seed, std::size_t samples)
{
    LTE_CHECK(samples >= 1, "need at least one sample");

    workload::PaperModelConfig model_cfg;
    model_cfg.prob_min = 1.0;
    model_cfg.prob_max = 1.0; // pin at maximum workload
    model_cfg.seed = seed;
    workload::PaperModel model(model_cfg);

    double total_ops = 0.0;
    for (std::size_t i = 0; i < samples; ++i) {
        const auto sf = model.next_subframe();
        for (const auto &user : sf.users) {
            total_ops += static_cast<double>(
                phy::user_task_costs(user, n_antennas).total());
        }
    }
    const double mean_ops = total_ops / static_cast<double>(samples);
    const double capacity_cycles =
        static_cast<double>(config.n_workers) * config.delta_s *
        kClockHz;
    return capacity_cycles / mean_ops;
}

double
steady_state_activity(const SimConfig &config,
                      const phy::UserParams &user,
                      std::size_t n_antennas, double duration_s)
{
    LTE_CHECK(duration_s > 0.0, "duration must be positive");
    SimConfig run_cfg = config;
    run_cfg.policy = mgmt::PowerPolicy::nonap();

    workload::SteadyModel model(user);
    Machine machine(run_cfg, n_antennas);
    const auto n = static_cast<std::uint64_t>(
        std::ceil(duration_s / run_cfg.delta_s));
    const SimResult result = machine.run(model, n);

    // Discard the pipeline fill/drain transients: measure the middle
    // of the steady run (the paper's 10-second windows make warm-up
    // negligible on the real machine).
    const std::size_t total = result.intervals.size();
    const std::size_t skip = total / 4;
    double busy = 0.0, dur = 0.0;
    for (std::size_t i = skip; i + skip < total; ++i) {
        busy += result.intervals[i].busy_cs;
        dur += result.intervals[i].dur;
    }
    if (dur <= 0.0)
        return result.activity();
    return busy / (static_cast<double>(run_cfg.n_workers) * dur);
}

mgmt::CalibrationTable
calibrate_table(const SimConfig &config, const CalibrationSweep &sweep,
                std::size_t n_antennas)
{
    LTE_CHECK(sweep.prb_min >= 2 && sweep.prb_max <= 200 &&
              sweep.prb_min <= sweep.prb_max && sweep.prb_step >= 1,
              "invalid sweep range");

    mgmt::CalibrationTable table;
    for (std::uint32_t layers = 1; layers <= kMaxLayers; ++layers) {
        for (Modulation mod : kAllModulations) {
            std::vector<mgmt::CalibrationSample> samples;
            for (std::uint32_t prb = sweep.prb_min;
                 prb <= sweep.prb_max; prb += sweep.prb_step) {
                phy::UserParams user;
                user.prb = prb;
                user.layers = layers;
                user.mod = mod;
                const double activity = steady_state_activity(
                    config, user, n_antennas, sweep.duration_s);
                samples.push_back(
                    {prb, activity,
                     workload::PaperModel::prb_density_weight(prb)});
            }
            table.fit(layers, mod, samples);
        }
    }
    return table;
}

} // namespace lte::sim
