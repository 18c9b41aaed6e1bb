/**
 * @file
 * TILEPro64 power model.
 *
 * [SUBSTITUTION — DESIGN.md Sec. 1] The paper measures chip current
 * with a NI USB-6210 DAQ across the buck-converter sense resistors;
 * we model power analytically from the simulator's core-state
 * occupancy trace:
 *
 *   P = base                                   (14 W, Sec. V-B)
 *     + busy  cores x busy power
 *     + spin  cores x spin power               (spinning ~ computing)
 *     + napping cores x (residual + poll duty) (clock-gated)
 *     + thermal leakage feedback               (first-order lag; the
 *       paper observes NONAP's higher average power heating the chip
 *       and raising power further, Fig. 14)
 *
 * Power gating (Sec. VI-C) is applied exactly as the paper does — an
 * analytical overlay (Eqs. 8-9) on the measured/simulated trace:
 * 55 mW static per gated core, 15 mW switching overhead per
 * transition for one subframe, domains of eight cores.
 *
 * Default constants are calibrated so the headline numbers land near
 * the paper's Table I/II (NONAP 25 W / 11 W dynamic at the 50%
 * average-load input model).
 */
#ifndef LTE_POWER_POWER_MODEL_HPP
#define LTE_POWER_POWER_MODEL_HPP

#include <cstdint>
#include <vector>

#include "sim/trace.hpp"

namespace lte::power {

struct PowerModelConfig
{
    /** Chip power with all cores napping (measured 14 W, Sec. V-B). */
    double base_power_w = 14.0;
    /** Dynamic power of a core executing kernels. */
    double busy_core_w = 0.168;
    /** Dynamic power of a core spinning on empty queues (a tight
     *  poll loop keeps the issue slots as busy as real work). */
    double spin_core_w = 0.168;
    /** Residual dynamic power of a napping core (tile switch/L2
     *  remain clocked). */
    double nap_core_w = 0.004;
    /** Work-poll duty of a reactive napping core (fraction of busy
     *  power; sets the IDLE-vs-NAP gap of Table I). */
    double idle_poll_duty = 0.22;
    /** Status-poll duty of an estimate-deactivated core (much longer
     *  period, Sec. VI-B). */
    double deact_poll_duty = 0.004;

    // --- thermal feedback ---
    /** First-order thermal time constant. */
    double thermal_tau_s = 40.0;
    /** Extra leakage per Watt of low-passed power above reference. */
    double leakage_coeff = 0.18;
    /** Power at which the leakage correction is zero. */
    double reference_power_w = 20.0;

    // --- DVFS extension ---
    /** Supply voltage at zero frequency as a fraction of nominal;
     *  V(s) = floor + (1 - floor) * s, so active-core power scales as
     *  s * V(s)^2. */
    double dvfs_voltage_floor = 0.55;

    // --- power gating (Sec. VI-C) ---
    double core_static_w = 0.055; ///< 55 mW per powered core
    double gate_switch_w = 0.015; ///< 15 mW per on/off for a subframe
    std::uint32_t domain_size = 8;
    std::uint32_t total_cores = 64;

    void validate() const;
};

/** One element of a power time series. */
struct PowerSample
{
    double t0 = 0.0;
    double dur = 0.0;
    double watts = 0.0;
};

class PowerModel
{
  public:
    explicit PowerModel(const PowerModelConfig &config = {});

    /** Electrical power of one interval, before thermal feedback.
     *  Intervals carrying per-domain tracks (domain state machine)
     *  are priced per rung per domain, with inline gating savings
     *  and the simulator's transition energy charges. */
    double interval_power(const sim::SimInterval &interval) const;

    /** Full power series with thermal feedback. */
    std::vector<PowerSample>
    power_series(const sim::SimResult &result) const;

    /**
     * Power series with Eqs. 8-9 applied: per interval i, subtract
     * (total - powered_i) x core_static - |powered_i - powered_{i-1}|
     * x gate_switch.  @p powered must hold one entry per interval
     * (the mgmt::gating_plan output, padded over drain intervals).
     */
    std::vector<PowerSample>
    power_series_gated(const sim::SimResult &result,
                       const std::vector<std::uint32_t> &powered) const;

    const PowerModelConfig &config() const { return config_; }

    /** Time-weighted average of a power series. */
    static double average_power(const std::vector<PowerSample> &series);

    /**
     * RMS over fixed windows of @p window_s seconds, modelling the
     * paper's NI USB-6210 post-processing: the DAQ samples current
     * every 8 us and the authors report the RMS over every 100 ms.
     * Each sample is held for its duration and split across window
     * boundaries; a trailing partial window is reported too.
     */
    static std::vector<double>
    rms_windows(const std::vector<PowerSample> &series,
                double window_s = 0.1);

  private:
    double
    interval_power_domains(const sim::SimInterval &interval) const;

    std::vector<PowerSample>
    with_thermal(std::vector<PowerSample> series) const;

    PowerModelConfig config_;
};

} // namespace lte::power

#endif // LTE_POWER_POWER_MODEL_HPP
