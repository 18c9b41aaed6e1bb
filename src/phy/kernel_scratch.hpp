/**
 * @file
 * Per-thread kernel scratch for the subframe hot path.
 *
 * Channel-estimation and demodulation tasks of one user run
 * concurrently on different worker threads, so scratch cannot live in
 * the (shared) per-user workspace.  Instead each thread owns one
 * fixed-size buffer large enough for the worst LTE allocation — a slot
 * of (kMaxPrbPerSubframe + 1) / 2 PRBs — including Bluestein FFT
 * scratch for awkward sizes.  At ~75 KB per thread this is cheap, and
 * sizing it to the static maximum (rather than growing on demand)
 * makes the steady state deterministically allocation-free: engines
 * call warm_kernel_scratch() from every worker before the first
 * subframe, and nothing on the task path ever touches the heap again.
 */
#ifndef LTE_PHY_KERNEL_SCRATCH_HPP
#define LTE_PHY_KERNEL_SCRATCH_HPP

#include <cstddef>
#include <vector>

#include "common/math_util.hpp"
#include "common/types.hpp"

namespace lte::phy {

/** Most subcarriers one slot of a single user can span (the odd-PRB
 *  rule puts the extra PRB in slot 0). */
inline constexpr std::size_t kMaxScPerSlot =
    ((kMaxPrbPerSubframe + 1) / 2) * kScPerPrb;

/**
 * Samples in one thread's scratch buffer: one slot-sized working
 * vector plus worst-case FFT plan scratch (a Bluestein transform of
 * kMaxScPerSlot points needs 2x its power-of-two convolution size).
 */
constexpr std::size_t
kernel_scratch_samples()
{
    return kMaxScPerSlot + 2 * next_pow2(2 * kMaxScPerSlot - 1);
}

/** This thread's kernel scratch (created on first use). */
inline CfSpan
kernel_scratch()
{
    thread_local std::vector<cf32> buf(kernel_scratch_samples());
    return {buf.data(), buf.size()};
}

/** Force creation of this thread's scratch; engines call this once
 *  per worker at startup so the task path never allocates. */
inline void
warm_kernel_scratch()
{
    (void)kernel_scratch();
}

} // namespace lte::phy

#endif // LTE_PHY_KERNEL_SCRATCH_HPP
