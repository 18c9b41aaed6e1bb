/**
 * @file
 * Runtime task plumbing: per-user work state, the stealable task
 * kinds of the continuation graph (channel estimation, the weight
 * join, demodulation, the per-codeblock tail, the per-codeblock
 * turbo decode and the reduce), and the per-subframe job that owns
 * everything (paper Sec. IV-C).
 *
 * Stage transitions are continuation-driven: each stage counter is
 * decremented by the worker that finishes a task, and the final
 * decrement enqueues the next stage instead of releasing a blocked
 * "user thread" — no worker ever waits inside a user.
 *
 * Memory model: UserWork and SubframeJob are long-lived pooled objects
 * that are re-bound every subframe via reset()/prepare().  The heavy
 * state (the UserProcessor's workspace arena) grows to its high-water
 * mark during warm-up and is reused from then on, so steady-state
 * dispatch performs zero heap allocations.
 */
#ifndef LTE_RUNTIME_TASK_HPP
#define LTE_RUNTIME_TASK_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "phy/op_model.hpp"
#include "phy/params.hpp"
#include "phy/user_processor.hpp"
#include "runtime/run_record.hpp"

namespace lte::io {
struct IqFrame;
}

namespace lte::runtime {

struct SubframeJob;

/**
 * Work state for one user in one subframe.  The worker that dequeues
 * this from the global queue seeds the chanest fan-out; from then on
 * the stage counters drive the continuation graph and any worker may
 * run any stage.
 */
struct UserWork
{
    /** Create an unbound, poolable work state; reset() before use. */
    explicit UserWork(const phy::ReceiverConfig &config)
        : proc(config), n_antennas(config.n_antennas)
    {
    }

    /**
     * (Re)bind to a user's subframe.  Allocation-free once the
     * processor's workspace has grown past its high-water mark.
     */
    void
    reset(const phy::UserParams &params, const phy::UserSignal *signal,
          SubframeJob *parent_job, std::size_t slot,
          phy::DegradeLevel level = phy::DegradeLevel::kNone)
    {
        proc.bind(params, signal);
        proc.set_degrade(level);
        refresh_costs(level);
        parent = parent_job;
        result_slot = slot;
        chanest_remaining.store(
            static_cast<std::int32_t>(proc.n_chanest_tasks()),
            std::memory_order_relaxed);
        demod_remaining.store(
            static_cast<std::int32_t>(proc.n_demod_tasks()),
            std::memory_order_relaxed);
        tail_remaining.store(
            static_cast<std::int32_t>(proc.n_tail_tasks()),
            std::memory_order_relaxed);
        decode_remaining.store(
            static_cast<std::int32_t>(proc.n_decode_tasks()),
            std::memory_order_relaxed);
    }

    /**
     * Recompute the analytical costs for the current binding (called
     * from reset() and on degrade flips, which change the weight-join
     * cost and the decode iteration budget — but never a task count,
     * so the stage counters loaded at reset() stay valid).
     */
    void
    refresh_costs(phy::DegradeLevel level)
    {
        costs = phy::user_task_costs(
            proc.params(), n_antennas,
            level != phy::DegradeLevel::kNone,
            phy::decode_model(proc.config(), level));
    }

    phy::UserProcessor proc;
    std::size_t n_antennas;
    /** Analytical flop counts, for deterministic activity accounting. */
    phy::UserTaskCosts costs{};
    SubframeJob *parent = nullptr;
    std::size_t result_slot = 0;
    std::atomic<std::int32_t> chanest_remaining{0};
    std::atomic<std::int32_t> demod_remaining{0};
    std::atomic<std::int32_t> tail_remaining{0};
    std::atomic<std::int32_t> decode_remaining{0};
};

/**
 * A stealable unit of work: one node of the continuation graph.
 *
 *   kChanEst ×(antennas·layers) → kWeights → kDemod ×(6·layers)
 *     → kTailCb ×(codeblocks) [→ kDecodeCb ×(turbo blocks)]
 *     → kTailReduce
 *
 * The join nodes (kWeights, kTailReduce) are enqueued by whichever
 * worker performs the final decrement of the preceding stage counter.
 * The decode stage exists only in real-turbo mode; it fans the heavy
 * max-log-MAP work across the pool, one task per LTE code block.
 */
struct Task
{
    enum class Kind : std::uint8_t {
        kChanEst,
        kWeights,
        kDemod,
        kTailCb,
        kDecodeCb,
        kTailReduce
    };

    UserWork *work = nullptr;
    Kind kind = Kind::kChanEst;
    std::uint32_t index = 0;
};

/**
 * One dispatched subframe: owns the per-user work states and collects
 * their results.  Must outlive every task referencing it; the worker
 * pool signals completion through users_remaining.
 *
 * The user-work pool is grow-only: prepare() re-binds the first
 * n_users entries and leaves the rest warm.  Results are scalar
 * outcomes (no payload vectors), so collecting them never allocates.
 */
struct SubframeJob
{
    phy::SubframeParams params;
    /** Global admission order stamped by the engine: the position in
     *  the shared in-flight window, used to find the globally oldest
     *  executing job across the lanes. */
    std::uint64_t admit_seq = 0;
    /** Pooled per-user work states; only the first n_users are live. */
    std::vector<std::unique_ptr<UserWork>> users;
    std::size_t n_users = 0;
    std::vector<UserOutcome> results;
    std::atomic<std::int32_t> users_remaining{0};

    /** Observability (set by the engine when obs is on): arrival and
     *  dispatch timestamps relative to the engine's clock epoch and
     *  the estimator's Eq. 4 output for this subframe (-1 if none).
     *  Arrival is the TTI tick (or the producer's publish stamp) and
     *  dispatch is admission into the in-flight window, so the gap is
     *  admission-queue wait. */
    std::uint64_t t_arrival_ns = 0;
    std::uint64_t t_dispatch_ns = 0;
    double est_activity = -1.0;
    /** Shed ladder level the job runs at (see phy::DegradeLevel). */
    phy::DegradeLevel degrade_level = phy::DegradeLevel::kNone;
    /**
     * Sample-plane frame whose signals this job reads (null on the
     * inline-synthesis path).  The engine recycles it to the
     * transport's free ring wherever it releases the job — completion
     * reap, queue-full drop or expiry — always from the dispatch
     * thread, keeping the free ring single-producer.
     */
    io::IqFrame *io_frame = nullptr;

    /** Copied from the ReceiverConfig at prepare(): governs the
     *  real-decode sampling on the bypass shed path (set_degrade). */
    double decode_sample_rate = 0.0;
    bool real_turbo = false;

    /**
     * (Re)bind the job to a subframe: pools UserWork objects (growing
     * the pool only when this job sees more users than ever before)
     * and sizes the result array.  @p signals must outlive processing.
     */
    void
    prepare(const phy::SubframeParams &subframe,
            const std::vector<const phy::UserSignal *> &signals,
            const phy::ReceiverConfig &receiver)
    {
        params = subframe;
        n_users = subframe.users.size();
        degrade_level = phy::DegradeLevel::kNone;
        io_frame = nullptr;
        decode_sample_rate = receiver.decode_sample_rate;
        real_turbo = receiver.use_real_turbo;
        while (users.size() < n_users)
            users.push_back(std::make_unique<UserWork>(receiver));
        results.resize(n_users);
        for (std::size_t u = 0; u < n_users; ++u) {
            users[u]->reset(subframe.users[u], signals[u], this, u);
        }
    }

    /** Publish user @p slot's scalar outcome; the decoded bits stay
     *  in the processor's reused storage (no payload copy). */
    void
    set_result(std::size_t slot, const phy::UserResult &result)
    {
        UserOutcome &out = results[slot];
        out.user_id = result.user_id;
        out.checksum = result.checksum;
        out.crc_ok = result.crc_ok;
        out.crc_modelled = result.crc_modelled;
        out.evm_rms = result.evm_rms;
        out.decode_iterations = result.decode_iterations;
    }

    /**
     * Move every pooled user processor of this (prepared, not yet
     * submitted) job to a level of the shed ladder — the admission
     * controllers' "degrade" action.  Task counts never change, only
     * the weight algorithm and the decode iteration budget, so a flip
     * between prepare() and submit() is always safe.
     */
    void
    set_degrade(phy::DegradeLevel level)
    {
        degrade_level = level;
        for (std::size_t u = 0; u < n_users; ++u) {
            phy::DegradeLevel user_level = level;
            // Bypass sampling: in real-turbo runs a deterministic
            // per-(subframe, user) hash keeps a small fraction of a
            // shed subframe's users at the reduced-iteration decode,
            // so their CRC verdicts stay real and the MAC's online
            // BLER calibration keeps getting ground truth while the
            // rest of the subframe rides the cheap bypass.
            if (level == phy::DegradeLevel::kBypass && real_turbo &&
                decode_sample_rate > 0.0 &&
                sample_hash(params.subframe_index,
                            params.users[u].id) < decode_sample_rate)
                user_level = phy::DegradeLevel::kReducedIterations;
            users[u]->proc.set_degrade(user_level);
            // Keep the accounted costs honest: the degraded chain
            // swaps the MMSE solve for per-layer MRC weights and
            // shrinks the decode budget.
            users[u]->refresh_costs(user_level);
        }
    }

    /** Uniform-in-[0,1) hash of one (subframe, user) pair (splitmix64
     *  finalizer) — the decode-sampling coin flip, reproducible across
     *  engines and runs. */
    static double
    sample_hash(std::uint64_t subframe_index, std::uint32_t user_id)
    {
        std::uint64_t z = subframe_index * 0x9e3779b97f4a7c15ull +
                          user_id + 1;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z = z ^ (z >> 31);
        return static_cast<double>(z >> 11) * 0x1.0p-53;
    }
};

} // namespace lte::runtime

#endif // LTE_RUNTIME_TASK_HPP
