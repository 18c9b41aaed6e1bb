/**
 * @file
 * Sample-plane configuration: how an engine's input arrives.
 *
 * Disabled (the default) keeps the historical in-process behaviour —
 * the admission loop synthesizes its own input inline.  Enabled, one
 * producer thread fills every cell's pooled IQ frames from its
 * SampleSource and the admission loop merely consumes ready frames,
 * which is the paper's actual deployment shape (samples arrive from a
 * fronthaul every TTI whether the receiver is ready or not).
 */
#ifndef LTE_IO_IO_CONFIG_HPP
#define LTE_IO_IO_CONFIG_HPP

#include <cstddef>
#include <cstdint>

namespace lte::io {

/**
 * Where the producer thread gets its IQ frames from.  The lane's own
 * InputGenerator is the only origin; the enum and IoConfig::source
 * stay only because perfbench sets them, and go with the next
 * benchmark change, like the StreamingEngine/MultiCellEngine aliases.
 */
enum class SourceKind : std::uint8_t
{
    /** The engine's own InputGenerator, run on the producer thread. */
    kGenerator = 0,
};

struct IoConfig
{
    /** Off by default: the dispatch thread pulls input inline. */
    bool enabled = false;

    SourceKind source = SourceKind::kGenerator;

    /**
     * IQ frames in the recycling pool (rounded up to a power of two
     * for the rings).  Bounds how far the producer can run ahead of
     * the receiver; when exhausted, frames are lost (deadline mode)
     * or the producer blocks (lossless mode, deadline_ms == 0).
     */
    std::size_t n_frames = 16;

    /** Throws std::invalid_argument on nonsense. */
    void validate() const;
};

} // namespace lte::io

#endif // LTE_IO_IO_CONFIG_HPP
