#include "power/power_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace lte::power {

void
PowerModelConfig::validate() const
{
    LTE_CHECK(base_power_w >= 0.0, "base power must be non-negative");
    LTE_CHECK(busy_core_w > 0.0, "busy power must be positive");
    LTE_CHECK(spin_core_w >= 0.0 && nap_core_w >= 0.0,
              "core powers must be non-negative");
    LTE_CHECK(idle_poll_duty >= 0.0 && idle_poll_duty <= 1.0,
              "poll duty must be a fraction");
    LTE_CHECK(deact_poll_duty >= 0.0 && deact_poll_duty <= 1.0,
              "poll duty must be a fraction");
    LTE_CHECK(thermal_tau_s > 0.0, "thermal tau must be positive");
    LTE_CHECK(leakage_coeff >= 0.0, "leakage coefficient >= 0");
    LTE_CHECK(dvfs_voltage_floor > 0.0 && dvfs_voltage_floor <= 1.0,
              "voltage floor must be in (0, 1]");
    LTE_CHECK(domain_size >= 1 && total_cores >= domain_size,
              "invalid gating geometry");
}

PowerModel::PowerModel(const PowerModelConfig &config)
    : config_(config)
{
    config_.validate();
}

double
PowerModel::interval_power_domains(
    const sim::SimInterval &interval) const
{
    // Per-domain pricing (domain state machine, DESIGN.md Sec. 3k):
    // each domain's active occupancy is priced at its own f-V rung,
    // power-gated cores shed their static power (the inline analogue
    // of Eq. 9), and the simulator's transition energy charges are
    // spread over the interval.
    const double inv = 1.0 / interval.dur;
    double watts = config_.base_power_w +
                   interval.transition_energy_j * inv;
    for (const auto &dom : interval.domains) {
        const double scale = dom.freq_scale;
        const double voltage =
            config_.dvfs_voltage_floor +
            (1.0 - config_.dvfs_voltage_floor) * scale;
        const double dvfs_factor = scale * voltage * voltage;
        const double nap_idle_w =
            config_.nap_core_w +
            config_.idle_poll_duty * config_.busy_core_w * dvfs_factor;
        const double nap_deact_w =
            config_.nap_core_w +
            config_.deact_poll_duty * config_.busy_core_w *
                dvfs_factor;
        watts += dom.busy_cs * inv * config_.busy_core_w * dvfs_factor +
                 dom.nap_idle_cs * inv * nap_idle_w +
                 dom.nap_deact_cs * inv * nap_deact_w -
                 dom.gated_cs * inv * config_.core_static_w;
    }
    return watts;
}

double
PowerModel::interval_power(const sim::SimInterval &interval) const
{
    if (interval.dur <= 0.0)
        return config_.base_power_w;
    if (!interval.domains.empty())
        return interval_power_domains(interval);
    const double inv = 1.0 / interval.dur;
    const double busy_cores = interval.busy_cs * inv;
    const double spin_cores = interval.spin_cs * inv;
    const double nap_idle_cores = interval.nap_idle_cs * inv;
    const double nap_deact_cores = interval.nap_deact_cs * inv;

    // DVFS: active-core dynamic power scales as f * V(f)^2.
    const double scale = interval.freq_scale;
    const double voltage =
        config_.dvfs_voltage_floor +
        (1.0 - config_.dvfs_voltage_floor) * scale;
    const double dvfs_factor = scale * voltage * voltage;

    const double nap_idle_w =
        config_.nap_core_w +
        config_.idle_poll_duty * config_.busy_core_w * dvfs_factor;
    const double nap_deact_w =
        config_.nap_core_w +
        config_.deact_poll_duty * config_.busy_core_w * dvfs_factor;

    return config_.base_power_w +
           busy_cores * config_.busy_core_w * dvfs_factor +
           spin_cores * config_.spin_core_w * dvfs_factor +
           nap_idle_cores * nap_idle_w +
           nap_deact_cores * nap_deact_w;
}

std::vector<PowerSample>
PowerModel::with_thermal(std::vector<PowerSample> series) const
{
    if (series.empty())
        return series;
    // First-order low-pass of total power drives extra leakage; the
    // chip starts at the reference (cool) operating point.
    double lowpass = config_.reference_power_w;
    for (auto &sample : series) {
        const double extra =
            config_.leakage_coeff *
            (lowpass - config_.reference_power_w);
        sample.watts += extra;
        const double alpha =
            std::min(1.0, sample.dur / config_.thermal_tau_s);
        lowpass += alpha * (sample.watts - lowpass);
    }
    return series;
}

std::vector<PowerSample>
PowerModel::power_series(const sim::SimResult &result) const
{
    std::vector<PowerSample> series;
    series.reserve(result.intervals.size());
    for (const auto &interval : result.intervals) {
        series.push_back(PowerSample{interval.t0, interval.dur,
                                     interval_power(interval)});
    }
    return with_thermal(std::move(series));
}

std::vector<PowerSample>
PowerModel::power_series_gated(
    const sim::SimResult &result,
    const std::vector<std::uint32_t> &powered) const
{
    LTE_CHECK(powered.size() >= result.intervals.size(),
              "need one powered-core decision per interval");
    std::vector<PowerSample> series;
    series.reserve(result.intervals.size());
    std::uint32_t previous = config_.total_cores;
    for (std::size_t i = 0; i < result.intervals.size(); ++i) {
        const auto &interval = result.intervals[i];
        const std::uint32_t on = powered[i];
        // Eq. 8: switching overhead for the duration of the subframe.
        const double overhead =
            std::abs(static_cast<double>(on) -
                     static_cast<double>(previous)) *
            config_.gate_switch_w;
        // Eq. 9: static savings of the gated cores.
        const double saving =
            static_cast<double>(config_.total_cores - on) *
                config_.core_static_w -
            overhead;
        previous = on;
        series.push_back(PowerSample{interval.t0, interval.dur,
                                     interval_power(interval) - saving});
    }
    return with_thermal(std::move(series));
}

double
PowerModel::average_power(const std::vector<PowerSample> &series)
{
    double energy = 0.0, duration = 0.0;
    for (const auto &sample : series) {
        energy += sample.watts * sample.dur;
        duration += sample.dur;
    }
    return duration > 0.0 ? energy / duration : 0.0;
}

std::vector<double>
PowerModel::rms_windows(const std::vector<PowerSample> &series,
                        double window_s)
{
    LTE_CHECK(window_s > 0.0, "window must be positive");
    std::vector<double> windows;
    double sumsq = 0.0;  // integral of watts^2 over the open window
    double filled = 0.0; // seconds accumulated in the open window
    const auto emit_window = [&] {
        windows.push_back(std::sqrt(sumsq / filled));
        sumsq = 0.0;
        filled = 0.0;
    };
    for (const auto &sample : series) {
        LTE_CHECK(sample.dur >= 0.0, "duration must be non-negative");
        for (double left = sample.dur; left > 0.0;) {
            const double take = std::min(window_s - filled, left);
            sumsq += sample.watts * sample.watts * take;
            filled += take;
            left -= take;
            // Tolerate float accumulation when samples tile the window.
            if (filled >= window_s * (1.0 - 1e-9))
                emit_window();
        }
    }
    // Ignore float residue left behind by exactly tiling samples.
    if (filled > window_s * 1e-6)
        emit_window();
    return windows;
}

} // namespace lte::power
