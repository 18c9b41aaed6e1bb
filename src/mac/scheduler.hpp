/**
 * @file
 * The closed-loop MAC scheduler above the PHY benchmark.
 *
 * Replaces the random per-subframe parameter draw with grants
 * *produced* from a live UE population:
 *
 *   traffic   — per-UE bounded packet queues fed by an aggregate
 *               Poisson process of geometric bursts (O(arrivals) per
 *               TTI, so mostly-idle populations of 10k+ UEs cost
 *               nothing), each packet carrying a delivery deadline;
 *   CQI/MCS   — a filtered SNR estimate per UE built from receiver
 *               feedback (EVM + real CRC verdicts when the turbo
 *               decoder ran; a modelled report when the feedback is
 *               flagged crc_modelled), plus an OLLA offset stepped by
 *               ACK/NACK toward the target BLER, with a dwell-based
 *               hysteresis before MCS changes;
 *   HARQ      — 8 stop-and-wait processes per UE; NACKed blocks are
 *               re-granted with their original shape (chase
 *               combining) ahead of new data, and blocks that exhaust
 *               the retransmission budget retire as residual errors;
 *   policies  — round-robin, proportional-fair and deadline-EDF
 *               selection of new transmissions behind one switch.
 *
 * The scheduler is wired to an engine in two places: a GrantModel
 * adapter (mac/grant_model.hpp) feeds next_tti_into() to the engine's
 * ParameterModel seam, and the engine's EngineConfig::feedback sink
 * delivers completed-subframe outcomes and shed decisions back here.
 * In offloaded-io runs those two calls race on different threads
 * (producer vs dispatch), so every public entry point takes the one
 * internal mutex.
 *
 * Conservation invariant (tests/test_mac.cpp): after finalize(),
 *     offered == delivered + residual     (blocks and payload bits)
 * — every granted transport block is resolved exactly once, including
 * blocks whose subframe was shed, lost at the io producer (resolved
 * by the outstanding-grant ring's timeout sweep) or still in flight
 * at the end of the run.
 *
 * Steady-state allocation: next_tti_into() and the feedback path
 * touch only preallocated state (tests/test_alloc_free.cpp measures
 * a live closed loop).
 */
#ifndef LTE_MAC_SCHEDULER_HPP
#define LTE_MAC_SCHEDULER_HPP

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mac/mcs.hpp"
#include "mac/ue.hpp"
#include "phy/params.hpp"
#include "runtime/feedback.hpp"

namespace lte::mac {

/** Which policy picks new transmissions each TTI. */
enum class SchedulerPolicy : std::uint8_t
{
    kRoundRobin,       ///< rotate over the active list
    kProportionalFair, ///< max instantaneous/average rate ratio
    kDeadlineEdf,      ///< earliest head-of-queue deadline first
};

const char *scheduler_policy_name(SchedulerPolicy policy);

/** Parse "rr" / "pf" / "edf" (also accepts the long names). */
SchedulerPolicy parse_scheduler_policy(const char *name);

/** Configuration of one cell's MAC. */
struct MacConfig
{
    std::uint32_t cell_id = 1;
    /** Master seed; UE streams derive from it deterministically. */
    std::uint64_t seed = 1;
    std::uint32_t n_ues = 1000;
    SchedulerPolicy policy = SchedulerPolicy::kRoundRobin;

    // --- traffic ---
    /** Mean burst arrivals per TTI (cell aggregate, Poisson). */
    double arrival_rate = 4.0;
    /** Mean packets per burst (geometric, >= 1). */
    double burst_mean = 3.0;
    /** Bits per packet. */
    std::uint32_t packet_bits = 4096;
    /** Packet delivery deadline in TTIs after arrival. */
    std::uint64_t deadline_ttis = 40;

    // --- grants ---
    std::uint32_t prb_budget =
        static_cast<std::uint32_t>(kMaxPrbPerSubframe);
    /** Cap on one grant's PRBs (keeps the carrier shareable). */
    std::uint32_t max_prb_per_grant = 100;

    // --- link adaptation ---
    /** false: pin every grant to fixed_mcs (the baseline the bench
     *  compares adaptation against). */
    bool adapt = true;
    std::uint8_t fixed_mcs = 4;

    // --- modelled channel ---
    float snr_mean_db = 12.0f;
    /** Per-UE spread of long-term means (dB std). */
    float snr_spread_db = 4.0f;
    /** Global mean drift per TTI (negative = degrading channel). */
    float snr_drift_db_per_tti = 0.0f;

    void validate() const;
};

/** Aggregate counters of one MAC instance (monotone over a run). */
struct MacStats
{
    std::uint64_t ttis = 0;
    std::uint64_t grants = 0;
    std::uint64_t retx_grants = 0;

    /** Transport blocks / payload bits first put on the air. */
    std::uint64_t offered_tbs = 0;
    std::uint64_t offered_bits = 0;
    /** Blocks / bits ACKed. */
    std::uint64_t delivered_tbs = 0;
    std::uint64_t delivered_bits = 0;
    /** Blocks / bits abandoned (retx budget, finalize retirement). */
    std::uint64_t residual_tbs = 0;
    std::uint64_t residual_bits = 0;

    std::uint64_t acks = 0;
    std::uint64_t nacks = 0;
    /** Feedback split by provenance (UserOutcome.crc_modelled). */
    std::uint64_t real_feedback = 0;
    std::uint64_t modelled_feedback = 0;
    /** Completed subframes with no matching outstanding grants
     *  (another model driving the engine, the MAC only listening). */
    std::uint64_t unmatched_feedback = 0;

    std::uint64_t shed_ttis = 0;
    /** Outstanding grants resolved by the timeout sweep. */
    std::uint64_t timeout_grants = 0;

    std::uint64_t packets_arrived = 0;
    std::uint64_t arrived_bits = 0;
    /** Packets dropped past their deadline while still queued. */
    std::uint64_t deadline_drops = 0;
    /** Packets dropped because the UE's queue ring was full. */
    std::uint64_t overflow_drops = 0;
    std::uint64_t dropped_bits = 0;

    /** The HARQ conservation invariant (exact after finalize()). */
    bool
    conserved() const
    {
        return offered_tbs == delivered_tbs + residual_tbs &&
               offered_bits == delivered_bits + residual_bits;
    }
};

/**
 * One cell's MAC scheduler.  Thread-safe: the grant producer and the
 * feedback sink may run on different threads.
 */
class MacScheduler final : public runtime::SubframeFeedbackSink
{
  public:
    explicit MacScheduler(const MacConfig &config);

    /**
     * Produce the next TTI's grants into @p out (reusing its users
     * capacity — allocation-free in steady state).
     */
    void next_tti_into(phy::SubframeParams &out);

    // SubframeFeedbackSink (called from the engine dispatch thread).
    void on_subframe_complete(const runtime::SubframeOutcome &outcome,
                              phy::DegradeLevel level) override;
    void on_subframe_shed(std::uint32_t cell_id,
                          std::uint64_t subframe_index) override;

    /**
     * End of run: resolve every outstanding grant and retire every
     * in-flight HARQ block as residual, making the conservation
     * invariant exact.  Idempotent.
     */
    void finalize();

    /** Restart from the initial state (same seed => same run). */
    void reset();

    /** Snapshot of the counters (thread-safe). */
    MacStats stats() const;

    /** UEs currently on the active list (thread-safe). */
    std::size_t active_ues() const;

    /**
     * Scale the traffic intensity without reconfiguring: arrivals draw
     * at arrival_rate * scale from the next TTI on.  Drives diurnal
     * load shapes over a fixed UE population (core::ChipFleet).
     */
    void set_arrival_scale(double scale);
    double arrival_scale() const;

    const MacConfig &config() const { return config_; }

  private:
    /** A grant awaiting receiver feedback. */
    struct GrantRef
    {
        std::uint32_t ue = 0;
        std::uint8_t harq = 0;
    };
    /** Grants of one submitted TTI, keyed by subframe index. */
    struct OutstandingTti
    {
        std::uint64_t subframe_index = 0;
        bool active = false;
        std::uint8_t n = 0;
        std::array<GrantRef, kMaxUsersPerSubframe> refs{};
    };

    // All private methods assume mutex_ is held.
    void init_population();
    void draw_arrivals();
    /** Drop queued packets whose deadline passed; update queue_bits. */
    void sweep_deadlines(UeState &ue);
    /** Evolve the modelled channel lazily and return SNR now (dB). */
    float snr_true_db(UeState &ue);
    /** Decay the PF average lazily to the current TTI. */
    void decay_avg_rate(UeState &ue);
    /** Re-evaluate MCS preference under hysteresis. */
    void update_mcs(UeState &ue);
    /** Resolve one transport block (ACK/NACK -> retx or residual). */
    void resolve_tb(std::uint32_t ue_index, std::size_t h, bool ack);
    /** Retire an active block as residual error. */
    void retire_residual(UeState &ue, HarqProcess &proc);
    /** Resolve a whole outstanding TTI as NACKs (shed/timeout). */
    void resolve_outstanding_nack(OutstandingTti &tti);
    /** Append one grant to @p out and the outstanding record. */
    void push_grant(phy::SubframeParams &out, OutstandingTti &rec,
                    std::uint32_t ue_index, std::size_t h,
                    bool is_retx);
    void add_to_active(std::uint32_t ue_index);
    /** Retx-queue helpers (preallocated power-of-two ring). */
    bool retx_empty() const { return retx_head_ == retx_tail_; }
    void retx_push(GrantRef ref);
    GrantRef retx_pop();

    MacConfig config_;
    mutable std::mutex mutex_;

    std::uint64_t tti_ = 0;
    Rng traffic_rng_{1};
    /** Multiplier on config_.arrival_rate (set_arrival_scale). */
    double arrival_scale_ = 1.0;
    std::vector<UeState> ues_;
    /** Indices of UEs with backlog or in-flight blocks. */
    std::vector<std::uint32_t> active_;
    std::size_t rr_cursor_ = 0;

    /** Pending retransmission grants, FIFO (capacity: every process
     *  of every UE, so a push can never overflow). */
    std::vector<GrantRef> retx_ring_;
    std::size_t retx_mask_ = 0;
    std::size_t retx_head_ = 0;
    std::size_t retx_tail_ = 0;

    static constexpr std::size_t kOutstandingSlots = 512;
    std::array<OutstandingTti, kOutstandingSlots> outstanding_{};

    /** Per-TTI selection scratch (preallocated). */
    struct Candidate
    {
        std::uint32_t ue = 0;
        double key = 0.0;
    };
    std::vector<Candidate> selected_;

    MacStats stats_;
    bool finalized_ = false;
};

} // namespace lte::mac

#endif // LTE_MAC_SCHEDULER_HPP
