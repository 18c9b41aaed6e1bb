/**
 * @file
 * Exporters for simulated study runs: a per-subframe activity /
 * deadline CSV and a chrome://tracing counter-track JSON, both built
 * from a StrategyOutcome.  The live-engine exporters (span timelines
 * from the worker pool's tracer) live in obs/export.hpp; these cover
 * the discrete-event side of the study where there are no threads,
 * only per-interval aggregates.
 */
#ifndef LTE_CORE_STUDY_EXPORT_HPP
#define LTE_CORE_STUDY_EXPORT_HPP

#include <iosfwd>

#include "core/uplink_study.hpp"

namespace lte::core {

/**
 * Per-subframe series of one policy run as CSV:
 *
 *   subframe,t0_ms,dur_ms,activity,est_activity,active_cores,
 *   powered_cores,watts
 *
 * `active_cores` is the Eq. 5 watermark (blank when the policy runs
 * without an estimator), `powered_cores` the Eq. 7 plan (blank unless
 * power gating), `watts` the thermal-corrected power sample.
 */
void write_study_csv(std::ostream &os, const StrategyOutcome &outcome,
                     std::uint32_t n_workers);

/**
 * The same series as chrome://tracing counter tracks ("ph":"C"):
 * busy-cores, watermark, estimated activity and Watts over time, one
 * process per preset name so several runs can be merged into one
 * trace: pids 1..5 are NONAP..PowerGating, 6 is DOMAIN-DVFS, and any
 * other policy name shares pid 7.
 */
void write_study_chrome_trace(std::ostream &os,
                              const StrategyOutcome &outcome,
                              std::uint32_t n_workers);

} // namespace lte::core

#endif // LTE_CORE_STUDY_EXPORT_HPP
