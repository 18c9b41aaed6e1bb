/**
 * @file
 * Bump-arena workspace for steady-state allocation-free processing.
 *
 * The subframe pipeline runs once per millisecond; heap allocations on
 * that path cost latency and serialise workers on the allocator lock.
 * A Workspace owns one contiguous block and hands out typed spans with
 * a bump pointer: reserve() (growing, allowed during warm-up or when a
 * subframe exceeds every previous high-water mark), then reset() +
 * alloc<T>() per subframe, which never touch the heap.
 *
 * Spans returned by alloc() are invalidated by reserve() and reset();
 * the intended discipline (used by phy::UserWorkspace) is to size once
 * per bind, then carve all views before any kernel runs.
 */
#ifndef LTE_COMMON_WORKSPACE_HPP
#define LTE_COMMON_WORKSPACE_HPP

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace lte {

/**
 * Split-complex (structure-of-arrays) view over scratch memory: one
 * contiguous float plane per component.  The SIMD kernels want real
 * and imaginary parts in separate registers; carving scratch in this
 * layout makes their loads and stores plain contiguous float traffic
 * instead of de/interleave shuffles.
 */
struct SplitSpan
{
    std::span<float> re;
    std::span<float> im;

    std::size_t size() const { return re.size(); }
};

/**
 * Reuse a complex scratch span as a SplitSpan of equal length: the
 * first s.size() floats back the real plane, the rest the imaginary
 * plane.  The two views alias the same storage as @p s, so the caller
 * must not use the complex view while the split view is live.
 */
inline SplitSpan
as_split(std::span<std::complex<float>> s)
{
    float *f = reinterpret_cast<float *>(s.data());
    return {{f, s.size()}, {f + s.size(), s.size()}};
}

class Workspace
{
  public:
    Workspace() = default;

    explicit Workspace(std::size_t bytes) { reserve(bytes); }

    /**
     * Ensure the arena can hold @p bytes in total.  Grows (a heap
     * allocation) only beyond the high-water mark; shrinking never
     * happens, so a steady workload reserves at most once.
     * Invalidates previously carved spans.
     */
    void
    reserve(std::size_t bytes)
    {
        if (bytes > buffer_.size())
            buffer_.resize(bytes);
        used_ = 0;
    }

    /** Rewind the bump pointer; previously carved spans are invalid. */
    void
    reset()
    {
        used_ = 0;
    }

    /**
     * Carve @p n elements of T from the arena, aligned to alignof(T).
     * Throws (never grows) if the arena is too small — callers size
     * the arena up front via reserve()/required<T>().
     */
    template <typename T>
    std::span<T>
    alloc(std::size_t n)
    {
        const std::size_t offset = aligned(used_, alignof(T));
        const std::size_t bytes = n * sizeof(T);
        LTE_ASSERT(offset + bytes <= buffer_.size(),
                   "workspace arena exhausted; reserve() more up front");
        used_ = offset + bytes;
        return {reinterpret_cast<T *>(buffer_.data() + offset), n};
    }

    /** Bytes an alloc<T>(n) consumes, including worst-case alignment
     *  padding; use to accumulate a reserve() size. */
    template <typename T>
    static constexpr std::size_t
    required(std::size_t n)
    {
        return n * sizeof(T) + alignof(T) - 1;
    }

    std::size_t capacity() const { return buffer_.size(); }

  private:
    static constexpr std::size_t
    aligned(std::size_t offset, std::size_t align)
    {
        return (offset + align - 1) & ~(align - 1);
    }

    std::vector<std::byte> buffer_;
    std::size_t used_ = 0;
};

} // namespace lte

#endif // LTE_COMMON_WORKSPACE_HPP
