/**
 * @file
 * Configuration of the discrete-event TILEPro64 model.
 *
 * [SUBSTITUTION — DESIGN.md Sec. 1] The paper runs on real hardware;
 * we simulate the 64-core chip at the task level: each subframe turns
 * into the paper's task DAG (Sec. IV-C) whose per-task cycle costs
 * come from the analytical kernel op model, and a greedy scheduler
 * with nap/poll semantics plays the role of the work-stealing
 * Pthreads runtime.  Defaults reproduce the paper's operating point:
 * 62 workers, one subframe every 5 ms (the sustained rate the paper
 * reports for the TILEPro64), 700 MHz clock.
 */
#ifndef LTE_SIM_SIM_CONFIG_HPP
#define LTE_SIM_SIM_CONFIG_HPP

#include <cstdint>

#include "common/check.hpp"
#include "mgmt/estimator.hpp"
#include "mgmt/power_policy.hpp"

namespace lte::sim {

/** Core clock in Hz (TILEPro64). */
inline constexpr double kClockHz = 700e6;

struct SimConfig
{
    /** Worker cores (the chip has 64; one runs drivers, one the
     *  maintenance thread — Sec. V-B). */
    std::uint32_t n_workers = 62;

    /** Subframe dispatch period in seconds (the TILEPro64 sustains
     *  one subframe per 5 ms at maximum workload). */
    double delta_s = 0.005;

    /** Simulated cycles charged per model flop; set by calibration
     *  so the maximum workload saturates the chip (DESIGN.md). */
    double cycles_per_op = 1.0;

    /** Power-management policy the machine runs: which mechanisms
     *  are enabled (reactive napping, Eq. 5 watermark, DVFS, the
     *  per-domain state machine) and their parameters.  The five
     *  paper strategies are the PowerPolicy presets.  core::UplinkStudy
     *  ignores this field: its run call supplies the policy. */
    mgmt::PowerPolicy policy = mgmt::PowerPolicy::nonap();

    /** Wake-poll period of a reactive (IDLE) napping worker looking
     *  for work; bounds the pickup latency. */
    double idle_wake_period_s = 200e-6;

    /** Over-provisioning margin of Eq. 5. */
    std::uint32_t core_margin = mgmt::kCoreMargin;

    void
    validate() const
    {
        LTE_CHECK(n_workers >= 1 && n_workers <= 64,
                  "workers must be 1..64");
        LTE_CHECK(delta_s > 0.0, "delta must be positive");
        LTE_CHECK(cycles_per_op > 0.0, "cycles/op must be positive");
        LTE_CHECK(idle_wake_period_s > 0.0,
                  "wake period must be positive");
        policy.validate();
    }
};

} // namespace lte::sim

#endif // LTE_SIM_SIM_CONFIG_HPP
