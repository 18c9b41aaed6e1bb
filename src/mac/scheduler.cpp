#include "mac/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

namespace lte::mac {

namespace {

// --- grants ---
/** Most users granted in one TTI. */
constexpr std::uint32_t kMaxUsersPerTti =
    static_cast<std::uint32_t>(kMaxUsersPerSubframe);
static_assert(kMaxUsersPerTti >= 1 && kMaxUsersPerTti <= kMaxUsersPerSubframe,
              "users per TTI must be 1..kMaxUsersPerSubframe");
/** Retransmissions a NACKed block gets before it retires as residual. */
constexpr std::uint32_t kMaxHarqRetx = 3;
/** Outstanding grants older than this resolve as NACK (covers
 *  sample-plane ticks lost before the engine ever saw them). */
constexpr std::uint64_t kGrantTimeoutTtis = 256;

// --- link adaptation ---
/** Block error rate the OLLA loop converges on. */
constexpr double kTargetBler = 0.1;
static_assert(kTargetBler > 0.0 && kTargetBler < 1.0,
              "target BLER must be in (0, 1)");
/** OLLA up-step per ACK (dB); the down-step is derived from the
 *  target BLER so the loop converges on it. */
constexpr float kOllaStepDb = 0.05f;
/** TTIs the preferred MCS must persist before a switch. */
constexpr std::uint32_t kMcsDwellTtis = 8;
/** EWMA weight of a fresh SNR observation. */
constexpr float kSnrAlpha = 0.1f;
static_assert(kSnrAlpha > 0.0f && kSnrAlpha <= 1.0f,
              "SNR EWMA weight must be in (0, 1]");

// --- modelled channel ---
/** AR(1) coefficient per TTI and stationary deviation (dB). */
constexpr float kSnrArRho = 0.995f;
static_assert(kSnrArRho >= 0.0f && kSnrArRho < 1.0f,
              "AR(1) coefficient must be in [0, 1)");
constexpr float kSnrArSigmaDb = 2.0f;
/** Logistic BLER waterfall slope (dB) for the modelled draw. */
constexpr float kBlerSlopeDb = 1.0f;
/** Noise (dB std) on modelled CQI reports. */
constexpr float kCqiNoiseDb = 0.5f;
/** PF averaging window (TTIs). */
constexpr double kPfWindowTtis = 100.0;
static_assert(kPfWindowTtis >= 1.0, "PF window must be at least one TTI");

/**
 * Allocation sizes are granted from a small discrete ladder rather
 * than any of 2..200 PRBs — the spirit of LTE's resource-block-group
 * granularity, and it also bounds the cardinality of the runtime's
 * per-PRB-size input pools so closed-loop runs stay allocation-free
 * once every rung has been seen (tests/test_alloc_free.cpp).
 */
constexpr std::uint32_t kPrbLadder[] = {2, 4, 8, 16, 32, 64, 100, 200};

/** Smallest rung covering @p desired, never exceeding @p cap. */
std::uint32_t
quantize_prb(std::uint32_t desired, std::uint32_t cap)
{
    std::uint32_t chosen = kPrbLadder[0];
    for (std::uint32_t rung : kPrbLadder) {
        if (rung > cap)
            break;
        chosen = rung;
        if (rung >= desired)
            break;
    }
    return chosen;
}

} // namespace

const char *
scheduler_policy_name(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::kRoundRobin:
        return "rr";
      case SchedulerPolicy::kProportionalFair:
        return "pf";
      case SchedulerPolicy::kDeadlineEdf:
        return "edf";
    }
    return "?";
}

SchedulerPolicy
parse_scheduler_policy(const char *name)
{
    const std::string_view s = name != nullptr ? name : "";
    if (s == "rr" || s == "round-robin" || s == "roundrobin")
        return SchedulerPolicy::kRoundRobin;
    if (s == "pf" || s == "proportional-fair")
        return SchedulerPolicy::kProportionalFair;
    if (s == "edf" || s == "deadline" || s == "deadline-edf")
        return SchedulerPolicy::kDeadlineEdf;
    throw std::invalid_argument("unknown scheduler policy: " +
                                std::string(s));
}

void
MacConfig::validate() const
{
    if (cell_id < 1 || cell_id > 511)
        throw std::invalid_argument("MacConfig: cell_id out of range");
    if (n_ues == 0)
        throw std::invalid_argument("MacConfig: n_ues == 0");
    if (arrival_rate < 0.0)
        throw std::invalid_argument("MacConfig: negative arrival_rate");
    if (burst_mean < 1.0)
        throw std::invalid_argument("MacConfig: burst_mean < 1");
    if (packet_bits == 0)
        throw std::invalid_argument("MacConfig: packet_bits == 0");
    if (deadline_ttis == 0)
        throw std::invalid_argument("MacConfig: deadline_ttis == 0");
    if (prb_budget < 2 || prb_budget > kMaxPrbPerSubframe)
        throw std::invalid_argument("MacConfig: prb_budget out of range");
    if (max_prb_per_grant < 2 || max_prb_per_grant > prb_budget)
        throw std::invalid_argument(
            "MacConfig: max_prb_per_grant out of range");
    if (fixed_mcs >= kNumMcs)
        throw std::invalid_argument("MacConfig: fixed_mcs out of range");
}

MacScheduler::MacScheduler(const MacConfig &config) : config_(config)
{
    config_.validate();
    ues_.resize(config_.n_ues);
    active_.reserve(config_.n_ues);
    selected_.reserve(config_.n_ues);
    // Capacity for every HARQ process of every UE: a push can never
    // find the ring full.
    std::size_t cap = 1;
    while (cap < static_cast<std::size_t>(config_.n_ues) * kHarqProcesses + 1)
        cap <<= 1;
    retx_ring_.resize(cap);
    retx_mask_ = cap - 1;
    init_population();
}

void
MacScheduler::init_population()
{
    // One master stream per (seed, cell); UE streams derive from it in
    // index order so "same seed => same run" holds exactly.
    Rng master(cell_stream_seed(config_.seed, config_.cell_id));
    traffic_rng_ = master.split();
    for (std::uint32_t i = 0; i < config_.n_ues; ++i) {
        UeState &ue = ues_[i];
        ue = UeState{};
        ue.id = i + 1;
        ue.rng = master.split();
        ue.layers = static_cast<std::uint8_t>(ue.rng.next_in(1, 4));
        ue.snr_mean_db =
            config_.snr_mean_db +
            config_.snr_spread_db *
                static_cast<float>(ue.rng.next_gaussian());
        ue.snr_dev_db = kSnrArSigmaDb *
                        static_cast<float>(ue.rng.next_gaussian());
        ue.snr_est_db = ue.snr_mean_db;
        ue.mcs = config_.adapt ? highest_mcs_for(ue.snr_est_db)
                               : config_.fixed_mcs;
    }
}

void
MacScheduler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    tti_ = 0;
    rr_cursor_ = 0;
    active_.clear();
    selected_.clear();
    retx_head_ = retx_tail_ = 0;
    outstanding_ = {};
    stats_ = MacStats{};
    finalized_ = false;
    init_population();
}

void
MacScheduler::retx_push(GrantRef ref)
{
    retx_ring_[retx_tail_ & retx_mask_] = ref;
    ++retx_tail_;
}

MacScheduler::GrantRef
MacScheduler::retx_pop()
{
    GrantRef ref = retx_ring_[retx_head_ & retx_mask_];
    ++retx_head_;
    return ref;
}

void
MacScheduler::add_to_active(std::uint32_t ue_index)
{
    UeState &ue = ues_[ue_index];
    if (!ue.on_active_list) {
        ue.on_active_list = true;
        active_.push_back(ue_index);
    }
}

void
MacScheduler::draw_arrivals()
{
    // Aggregate Poisson burst process (Knuth): O(arrivals) per TTI, so
    // a mostly-idle million-UE population costs nothing here.
    const double limit =
        std::exp(-config_.arrival_rate * arrival_scale_);
    std::uint32_t bursts = 0;
    double p = 1.0;
    for (;;) {
        p *= traffic_rng_.next_double();
        if (p <= limit || bursts >= 4096)
            break;
        ++bursts;
    }
    for (std::uint32_t b = 0; b < bursts; ++b) {
        const std::uint32_t ue_index = static_cast<std::uint32_t>(
            traffic_rng_.next_below(config_.n_ues));
        UeState &ue = ues_[ue_index];
        // Geometric burst length with the configured mean (>= 1).
        std::uint32_t packets = 1;
        if (config_.burst_mean > 1.0) {
            const double u = traffic_rng_.next_double();
            const double q = 1.0 - 1.0 / config_.burst_mean;
            if (u > 0.0)
                packets = 1 + static_cast<std::uint32_t>(std::min(
                                  std::log(u) / std::log(q), 63.0));
        }
        for (std::uint32_t k = 0; k < packets; ++k) {
            Packet pkt;
            pkt.arrival_tti = tti_;
            pkt.deadline_tti = tti_ + config_.deadline_ttis;
            pkt.bits = config_.packet_bits;
            ++stats_.packets_arrived;
            stats_.arrived_bits += pkt.bits;
            if (!ue.queue.push(pkt)) {
                ++stats_.overflow_drops;
                stats_.dropped_bits += pkt.bits;
                continue;
            }
            ue.queue_bits += pkt.bits;
        }
        if (!ue.idle())
            add_to_active(ue_index);
    }
}

void
MacScheduler::sweep_deadlines(UeState &ue)
{
    while (!ue.queue.empty() && ue.queue.front().deadline_tti <= tti_) {
        ++stats_.deadline_drops;
        stats_.dropped_bits += ue.queue.front().bits;
        ue.queue_bits -= ue.queue.front().bits;
        ue.queue.pop();
    }
}

float
MacScheduler::snr_true_db(UeState &ue)
{
    const std::uint64_t k = tti_ - ue.snr_tti;
    if (k > 0) {
        const float rho_k =
            std::pow(kSnrArRho, static_cast<float>(k));
        ue.snr_dev_db =
            rho_k * ue.snr_dev_db +
            kSnrArSigmaDb *
                std::sqrt(std::max(0.0f, 1.0f - rho_k * rho_k)) *
                static_cast<float>(ue.rng.next_gaussian());
        ue.snr_tti = tti_;
    }
    return ue.snr_mean_db +
           config_.snr_drift_db_per_tti * static_cast<float>(tti_) +
           ue.snr_dev_db;
}

void
MacScheduler::decay_avg_rate(UeState &ue)
{
    const std::uint64_t k = tti_ - ue.rate_tti;
    if (k > 0) {
        const double keep = 1.0 - 1.0 / kPfWindowTtis;
        ue.avg_rate = std::max(
            ue.avg_rate * std::pow(keep, static_cast<double>(k)), 1e-6);
        ue.rate_tti = tti_;
    }
}

void
MacScheduler::update_mcs(UeState &ue)
{
    if (!config_.adapt) {
        ue.mcs = config_.fixed_mcs;
        return;
    }
    const std::uint8_t preferred =
        highest_mcs_for(ue.snr_est_db + ue.olla_db);
    if (preferred == ue.mcs) {
        ue.dwell = 0;
        return;
    }
    // Hysteresis: the preference must persist for the dwell before the
    // ladder moves, so single noisy reports cannot thrash the MCS.
    if (++ue.dwell >= kMcsDwellTtis) {
        ue.mcs = preferred;
        ue.dwell = 0;
    }
}

void
MacScheduler::retire_residual(UeState &ue, HarqProcess &proc)
{
    ++stats_.residual_tbs;
    stats_.residual_bits += proc.tb_bits;
    proc.active = false;
    --ue.harq_active;
}

void
MacScheduler::resolve_tb(std::uint32_t ue_index, std::size_t h, bool ack)
{
    UeState &ue = ues_[ue_index];
    HarqProcess &proc = ue.harq[h];
    if (!proc.active)
        return;
    if (ack) {
        ++stats_.delivered_tbs;
        stats_.delivered_bits += proc.tb_bits;
        proc.active = false;
        --ue.harq_active;
        return;
    }
    if (proc.retx_count < kMaxHarqRetx) {
        ++proc.retx_count;
        retx_push(GrantRef{ue_index, static_cast<std::uint8_t>(h)});
        return;
    }
    retire_residual(ue, proc);
}

void
MacScheduler::resolve_outstanding_nack(OutstandingTti &rec)
{
    for (std::uint8_t i = 0; i < rec.n; ++i)
        resolve_tb(rec.refs[i].ue, rec.refs[i].harq, false);
    rec.active = false;
    rec.n = 0;
}

void
MacScheduler::push_grant(phy::SubframeParams &out, OutstandingTti &rec,
                         std::uint32_t ue_index, std::size_t h,
                         bool is_retx)
{
    UeState &ue = ues_[ue_index];
    HarqProcess &proc = ue.harq[h];
    phy::UserParams user;
    user.id = ue.id;
    user.prb = proc.prb;
    user.layers = proc.layers;
    user.mod = kMcsTable[proc.mcs].mod;
    out.users.push_back(user);
    rec.refs[rec.n] = GrantRef{ue_index, static_cast<std::uint8_t>(h)};
    ++rec.n;
    proc.issued_tti = tti_;
    ue.last_grant_tti = tti_;
    ue.ever_granted = true;
    ++stats_.grants;
    if (is_retx)
        ++stats_.retx_grants;
}

void
MacScheduler::next_tti_into(phy::SubframeParams &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    out.subframe_index = tti_;
    out.cell_id = config_.cell_id;
    out.users.clear();

    // Timeout sweep: grants whose subframe never completed (shed
    // without an index at the sample plane, end-of-window losses)
    // resolve as NACKs once they age past the grant timeout; the slot
    // about to be reused must be clear either way.
    if (tti_ >= kGrantTimeoutTtis) {
        OutstandingTti &old =
            outstanding_[(tti_ - kGrantTimeoutTtis) %
                         kOutstandingSlots];
        if (old.active &&
            tti_ - old.subframe_index >= kGrantTimeoutTtis) {
            stats_.timeout_grants += old.n;
            resolve_outstanding_nack(old);
        }
    }
    OutstandingTti &rec = outstanding_[tti_ % kOutstandingSlots];
    if (rec.active) {
        stats_.timeout_grants += rec.n;
        resolve_outstanding_nack(rec);
    }

    draw_arrivals();

    std::uint32_t remaining_prb = config_.prb_budget;

    // 1. HARQ retransmissions first, in NACK order.  Unserveable
    //    entries (budget, one-TB-per-UE-per-TTI) rotate to the back.
    const std::size_t pending = retx_tail_ - retx_head_;
    for (std::size_t i = 0;
         i < pending && out.users.size() < kMaxUsersPerTti;
         ++i) {
        const GrantRef ref = retx_pop();
        UeState &ue = ues_[ref.ue];
        HarqProcess &proc = ue.harq[ref.harq];
        if (!proc.active)
            continue;
        if ((ue.ever_granted && ue.last_grant_tti == tti_) ||
            proc.prb > remaining_prb) {
            retx_push(ref);
            continue;
        }
        push_grant(out, rec, ref.ue, ref.harq, true);
        remaining_prb -= proc.prb;
    }

    // 2. One pass over the active list: compact drained UEs, drop
    //    expired packets, and collect eligible new-data candidates
    //    with the policy's selection key (smaller = sooner).
    selected_.clear();
    std::size_t write = 0;
    const std::size_t n_before = active_.size();
    for (std::size_t i = 0; i < n_before; ++i) {
        const std::uint32_t ue_index = active_[i];
        UeState &ue = ues_[ue_index];
        sweep_deadlines(ue);
        if (ue.idle()) {
            ue.on_active_list = false;
            if (rr_cursor_ > write)
                --rr_cursor_;
            continue;
        }
        active_[write] = ue_index;
        const bool eligible =
            !ue.queue.empty() &&
            !(ue.ever_granted && ue.last_grant_tti == tti_) &&
            ue.free_harq() < kHarqProcesses;
        if (eligible) {
            double key = 0.0;
            switch (config_.policy) {
              case SchedulerPolicy::kRoundRobin:
                key = static_cast<double>(
                    (write + n_before - rr_cursor_) % n_before);
                break;
              case SchedulerPolicy::kProportionalFair: {
                decay_avg_rate(ue);
                const double inst = static_cast<double>(
                    tb_payload_bits(ue.mcs, 12, ue.layers));
                key = -(inst / ue.avg_rate);
                break;
              }
              case SchedulerPolicy::kDeadlineEdf:
                key = static_cast<double>(ue.queue.front().deadline_tti);
                break;
            }
            selected_.push_back(Candidate{ue_index, key});
        }
        ++write;
    }
    active_.resize(write);
    if (rr_cursor_ >= active_.size())
        rr_cursor_ = 0;

    // 3. Policy selection: the k smallest keys (deterministic
    //    tie-break on UE index), then grants while PRBs remain.
    const std::size_t room =
        kMaxUsersPerTti > out.users.size()
            ? kMaxUsersPerTti - out.users.size()
            : 0;
    const auto by_key = [](const Candidate &a, const Candidate &b) {
        return a.key != b.key ? a.key < b.key : a.ue < b.ue;
    };
    if (selected_.size() > room) {
        std::nth_element(selected_.begin(), selected_.begin() + room,
                         selected_.end(), by_key);
        selected_.resize(room);
    }
    std::sort(selected_.begin(), selected_.end(), by_key);

    double last_rr_key = -1.0;
    for (const Candidate &cand : selected_) {
        if (remaining_prb < 2)
            break;
        UeState &ue = ues_[cand.ue];
        const std::size_t h = ue.free_harq();
        const std::uint8_t mcs =
            config_.adapt ? ue.mcs : config_.fixed_mcs;
        // Size the allocation to the backlog at this MCS.
        const std::uint64_t per_pair =
            tb_payload_bits(mcs, 2, ue.layers);
        const std::uint32_t desired =
            static_cast<std::uint32_t>(std::min<std::uint64_t>(
                (ue.queue_bits * 2 + per_pair - 1) / per_pair,
                kMaxPrbPerSubframe));
        const std::uint32_t prb = quantize_prb(
            desired,
            std::min(config_.max_prb_per_grant, remaining_prb));

        HarqProcess &proc = ue.harq[h];
        proc.active = true;
        proc.retx_count = 0;
        proc.mcs = mcs;
        proc.layers = ue.layers;
        proc.prb = static_cast<std::uint16_t>(prb);
        const std::uint64_t tb = std::min<std::uint64_t>(
            tb_payload_bits(mcs, prb, ue.layers), ue.queue_bits);
        proc.tb_bits = static_cast<std::uint32_t>(tb);
        ++ue.harq_active;

        // Drain the queue FIFO; the head packet may go partially.
        std::uint64_t rem = tb;
        while (rem > 0 && !ue.queue.empty()) {
            Packet &pkt = ue.queue.front();
            if (pkt.bits <= rem) {
                rem -= pkt.bits;
                ue.queue_bits -= pkt.bits;
                ue.queue.pop();
            } else {
                pkt.bits -= static_cast<std::uint32_t>(rem);
                ue.queue_bits -= rem;
                rem = 0;
            }
        }

        push_grant(out, rec, cand.ue, h, false);
        remaining_prb -= prb;
        ++stats_.offered_tbs;
        stats_.offered_bits += proc.tb_bits;
        if (config_.policy == SchedulerPolicy::kProportionalFair) {
            ue.avg_rate += static_cast<double>(proc.tb_bits) /
                           kPfWindowTtis;
        }
        if (config_.policy == SchedulerPolicy::kRoundRobin)
            last_rr_key = std::max(last_rr_key, cand.key);
    }
    if (config_.policy == SchedulerPolicy::kRoundRobin &&
        last_rr_key >= 0.0 && !active_.empty()) {
        rr_cursor_ = (rr_cursor_ +
                      static_cast<std::size_t>(last_rr_key) + 1) %
                     active_.size();
    }

    // Retransmissions are already counted in offered_*; only register
    // the TTI when something was granted.
    rec.subframe_index = tti_;
    rec.active = rec.n > 0;

    ++stats_.ttis;
    ++tti_;
}

void
MacScheduler::on_subframe_complete(const runtime::SubframeOutcome &outcome,
                                   phy::DegradeLevel /*level*/)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finalized_)
        return;
    if (outcome.cell_id != config_.cell_id) {
        ++stats_.unmatched_feedback;
        return;
    }
    OutstandingTti &rec =
        outstanding_[outcome.subframe_index % kOutstandingSlots];
    if (!rec.active || rec.subframe_index != outcome.subframe_index) {
        // Zero-grant TTIs were never registered; anything else is
        // feedback for grants this scheduler did not issue (another
        // model drives the engine, or a stale record past the timeout
        // sweep).
        if (!outcome.users.empty())
            ++stats_.unmatched_feedback;
        return;
    }
    const float down_step =
        kOllaStepDb *
        static_cast<float>((1.0 - kTargetBler) /
                           kTargetBler);
    for (std::uint8_t i = 0; i < rec.n; ++i) {
        const GrantRef ref = rec.refs[i];
        UeState &ue = ues_[ref.ue];
        const HarqProcess &proc = ue.harq[ref.harq];
        const runtime::UserOutcome *user = nullptr;
        for (const runtime::UserOutcome &u : outcome.users) {
            if (u.user_id == ue.id) {
                user = &u;
                break;
            }
        }
        bool ack = false;
        bool have_channel_info = false;
        float snr_obs = 0.0f;
        if (user != nullptr) {
            if (!user->crc_modelled) {
                // Real turbo verdict: trust the CRC, read SNR off the
                // measured constellation EVM.
                ++stats_.real_feedback;
                ack = user->crc_ok;
                if (user->evm_rms > 0.0f) {
                    snr_obs = -20.0f * std::log10(user->evm_rms);
                    have_channel_info = true;
                }
            } else {
                // crc_ok carries no decode information on this path
                // (pass-through hardens bits that were never encoded;
                // the bypass ladder skipped the decoder) — draw the
                // verdict from the modelled channel instead.
                ++stats_.modelled_feedback;
                const float truth = snr_true_db(ue);
                const float margin =
                    truth - kMcsTable[proc.mcs].req_snr_db;
                ack = !ue.rng.next_bool(static_cast<double>(
                    modelled_bler(margin, kBlerSlopeDb)));
                snr_obs = truth +
                          kCqiNoiseDb *
                              static_cast<float>(ue.rng.next_gaussian());
                have_channel_info = true;
            }
        }
        if (have_channel_info) {
            ue.snr_est_db +=
                kSnrAlpha * (snr_obs - ue.snr_est_db);
        }
        if (config_.adapt) {
            ue.olla_db = std::clamp(
                ue.olla_db + (ack ? kOllaStepDb : -down_step),
                -10.0f, 10.0f);
        }
        if (ack)
            ++stats_.acks;
        else
            ++stats_.nacks;
        resolve_tb(ref.ue, ref.harq, ack);
        update_mcs(ue);
    }
    rec.active = false;
    rec.n = 0;
}

void
MacScheduler::on_subframe_shed(std::uint32_t cell_id,
                               std::uint64_t subframe_index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finalized_ || cell_id != config_.cell_id)
        return;
    ++stats_.shed_ttis;
    OutstandingTti &rec = outstanding_[subframe_index % kOutstandingSlots];
    if (!rec.active || rec.subframe_index != subframe_index)
        return;
    // The receiver never saw the subframe: every grant NACKs, with no
    // channel information to update CQI or OLLA from.
    stats_.nacks += rec.n;
    resolve_outstanding_nack(rec);
}

void
MacScheduler::finalize()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finalized_)
        return;
    finalized_ = true;
    // In-flight grants and queued retransmissions will never get a
    // verdict or another airing: retire them as residual so the
    // conservation invariant closes exactly.
    for (OutstandingTti &rec : outstanding_) {
        if (!rec.active)
            continue;
        for (std::uint8_t i = 0; i < rec.n; ++i) {
            UeState &ue = ues_[rec.refs[i].ue];
            HarqProcess &proc = ue.harq[rec.refs[i].harq];
            if (proc.active)
                retire_residual(ue, proc);
        }
        rec.active = false;
        rec.n = 0;
    }
    while (!retx_empty()) {
        const GrantRef ref = retx_pop();
        UeState &ue = ues_[ref.ue];
        HarqProcess &proc = ue.harq[ref.harq];
        if (proc.active)
            retire_residual(ue, proc);
    }
}

MacStats
MacScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
MacScheduler::active_ues() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return active_.size();
}

void
MacScheduler::set_arrival_scale(double scale)
{
    if (scale < 0.0)
        throw std::invalid_argument("negative arrival scale");
    std::lock_guard<std::mutex> lock(mutex_);
    arrival_scale_ = scale;
}

double
MacScheduler::arrival_scale() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return arrival_scale_;
}

} // namespace lte::mac
