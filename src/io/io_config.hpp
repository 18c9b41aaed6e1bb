/**
 * @file
 * Sample-plane configuration: how an engine's input arrives.
 *
 * Disabled (the default) keeps the historical in-process behaviour —
 * the admission loop synthesizes its own input inline.  Enabled, a
 * dedicated producer thread per cell fills pooled IQ frames from a
 * SampleSource and the admission loop merely consumes ready frames,
 * which is the paper's actual deployment shape (samples arrive from a
 * fronthaul every TTI whether the receiver is ready or not).
 */
#ifndef LTE_IO_IO_CONFIG_HPP
#define LTE_IO_IO_CONFIG_HPP

#include <cstddef>
#include <cstdint>
#include <string>

namespace lte::io {

/** Where the producer thread gets its IQ frames from. */
enum class SourceKind : std::uint8_t
{
    /** The engine's own InputGenerator, run on the producer thread. */
    kGenerator = 0,
    /** Replay of a recorded capture file. */
    kReplay = 1,
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

    /**
     * Uniform arrival jitter amplitude in milliseconds: each frame's
     * scheduled production tick is offset by U[0, jitter_ms).  Zero
     * (the default) keeps arrivals exactly on the TTI grid, which is
     * required for bit-identical digest parity with the inline path.
     */
    double jitter_ms = 0.0;

    /** Seed of the jitter stream (independent of the signal seed);
     *  lane c draws from cell_stream_seed(jitter_seed, cell id). */
    std::uint64_t jitter_seed = 1;

    /** Capture file to replay (source == kReplay). */
    std::string replay_path;

    /** When non-empty, the producer taps every published frame into
     *  this capture file (the Recorder sink). */
    std::string record_path;

    /** Throws std::invalid_argument on nonsense. */
    void validate() const;
};

} // namespace lte::io

#endif // LTE_IO_IO_CONFIG_HPP
