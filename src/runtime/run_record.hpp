/**
 * @file
 * Run results and the serial-vs-parallel equivalence check of the
 * paper's Sec. IV-D: every processed subframe records per-user
 * checksums so runs on different engines (or machines) can be
 * compared bit-for-bit.
 */
#ifndef LTE_RUNTIME_RUN_RECORD_HPP
#define LTE_RUNTIME_RUN_RECORD_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace lte::runtime {

/** Outcome of one user's processing. */
struct UserOutcome
{
    std::uint32_t user_id = 0;
    std::uint64_t checksum = 0;
    bool crc_ok = false;
    /** True when crc_ok is *not* a real decode verdict: pass-through
     *  receivers CRC-check hardened bits that were never encoded, and
     *  the degrade bypass skips the decode entirely.  A CQI/HARQ
     *  consumer must model the error probability instead of trusting
     *  crc_ok.  Like decode_iterations, provenance metadata — not part
     *  of digest() or equivalent() (a degrade flip changes it without
     *  changing the payload framing). */
    bool crc_modelled = false;
    float evm_rms = 0.0f;
    /** Max-log-MAP iterations summed over the user's code blocks
     *  (real-turbo mode; 0 otherwise).  Not part of digest() or
     *  equivalent(): early termination depends on channel noise, not
     *  on scheduling, but the field is observability, not payload. */
    std::uint32_t decode_iterations = 0;
};

/** Outcome of one subframe. */
struct SubframeOutcome
{
    std::uint64_t subframe_index = 0;
    /** Serving cell (1 for single-cell runs).  Not part of digest()
     *  or equivalent(): a 1-cell record must compare bit-identical to
     *  a pre-multi-cell one, and per-cell records are compared against
     *  single-cell baselines run under a different cell id. */
    std::uint32_t cell_id = 1;
    std::vector<UserOutcome> users;
};

/** Full run record: outcomes plus aggregate execution statistics. */
struct RunRecord
{
    /** Serving cell (one record per engine lane). */
    std::uint32_t cell_id = 1;
    std::vector<SubframeOutcome> subframes;

    double wall_seconds = 0.0;
    double activity = 0.0;       ///< Eq. 2 over the whole run
    std::uint64_t total_ops = 0; ///< analytical flops executed
    std::uint64_t steals = 0;    ///< tasks stolen (parallel runs)

    /** Order-sensitive digest over all user checksums. */
    std::uint64_t digest() const;

    /** Total users processed. */
    std::size_t user_count() const;

    /** Fraction of processed users whose CRC passed. */
    double crc_pass_rate() const;

    /**
     * Sec. IV-D equivalence: same subframes, same users, identical
     * checksums.  On mismatch, @p why (if non-null) describes the
     * first difference.
     */
    static bool equivalent(const RunRecord &a, const RunRecord &b,
                           std::string *why = nullptr);
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_RUN_RECORD_HPP
