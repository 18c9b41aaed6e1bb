/**
 * @file
 * Per-UE MAC state: the traffic queue, the link-adaptation estimate
 * and the modelled channel.
 *
 * The population is sized for "10k–1M UEs, most idle": everything is
 * fixed-capacity (a bounded packet ring, the 8 HARQ processes, plain
 * scalars), so a UE costs a fixed 1112 bytes on x86-64 (784 of them
 * the 32-packet ring; a 10k-UE cell is ~11 MB) and only UEs with
 * backlog or in-flight blocks ever appear on the scheduler's active
 * list.  The channel a UE sees is modelled MAC-side as a slowly
 * drifting AR(1) SNR process — the PHY benchmark's pooled inputs
 * carry no per-UE channel, so the closed loop's ground truth lives
 * here and the receiver's measurements (real CRC verdicts, EVM) or
 * the modelled error draw (bypass path, see UserResult.crc_modelled)
 * feed the estimate that chases it.
 */
#ifndef LTE_MAC_UE_HPP
#define LTE_MAC_UE_HPP

#include <array>
#include <cstdint>

#include "common/rng.hpp"
#include "mac/harq.hpp"

namespace lte::mac {

/** One queued packet (bits still waiting for a grant). */
struct Packet
{
    std::uint64_t arrival_tti = 0;
    std::uint64_t deadline_tti = 0;
    /** Bits not yet drained into a transport block. */
    std::uint32_t bits = 0;
};

/** Bounded FIFO of queued packets; overflow drops the arrival. */
class PacketRing
{
  public:
    static constexpr std::size_t kCapacity = 32;

    bool
    push(const Packet &p)
    {
        if (count_ == kCapacity)
            return false;
        ring_[(head_ + count_) % kCapacity] = p;
        ++count_;
        return true;
    }

    Packet &front() { return ring_[head_]; }
    const Packet &front() const { return ring_[head_]; }

    void
    pop()
    {
        head_ = (head_ + 1) % kCapacity;
        --count_;
    }

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

  private:
    std::array<Packet, kCapacity> ring_{};
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

/** All MAC state of one UE. */
struct UeState
{
    std::uint32_t id = 0;
    /** Spatial layers this UE transmits (capability, fixed). */
    std::uint8_t layers = 1;

    // --- traffic ---
    PacketRing queue;
    /** Sum of queued packet bits (kept in sync with the ring). */
    std::uint64_t queue_bits = 0;

    // --- link adaptation ---
    /** Filtered SNR estimate (dB) from receiver feedback. */
    float snr_est_db = 0.0f;
    /** Outer-loop offset: nudged up per ACK, down per NACK. */
    float olla_db = 0.0f;
    /** Current MCS (hysteresis: changes only after a dwell). */
    std::uint8_t mcs = 0;
    /** TTIs the preferred MCS has disagreed with the current one. */
    std::uint16_t dwell = 0;

    // --- modelled channel (ground truth for the bypass-path draw) ---
    /** This UE's long-term mean SNR (dB). */
    float snr_mean_db = 0.0f;
    /** AR(1) deviation around the (drifting) mean. */
    float snr_dev_db = 0.0f;
    /** TTI the deviation was last evolved to (lazy evolution). */
    std::uint64_t snr_tti = 0;

    // --- proportional fairness ---
    /** Exponentially averaged served rate (bits/TTI). */
    double avg_rate = 1.0;
    /** TTI avg_rate was last decayed to (lazy decay). */
    std::uint64_t rate_tti = 0;

    // --- HARQ ---
    std::array<HarqProcess, kHarqProcesses> harq{};
    /** Active processes (avoids scanning 8 slots when zero). */
    std::uint8_t harq_active = 0;
    /** TTI of this UE's last grant (one TB per UE per TTI). */
    std::uint64_t last_grant_tti = 0;
    bool ever_granted = false;

    /** Membership flag for the scheduler's active list. */
    bool on_active_list = false;

    /** Per-UE stream: channel evolution + modelled ACK draws. */
    Rng rng{1};

    /** A UE leaves the active list only when fully drained. */
    bool
    idle() const
    {
        return queue.empty() && harq_active == 0;
    }

    /** Index of a free HARQ process, or kHarqProcesses when none. */
    std::size_t
    free_harq() const
    {
        for (std::size_t h = 0; h < kHarqProcesses; ++h) {
            if (!harq[h].active)
                return h;
        }
        return kHarqProcesses;
    }
};

} // namespace lte::mac

#endif // LTE_MAC_UE_HPP
