#include "phy/scrambler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace lte::phy {

namespace {

constexpr int kStateBits = 31;

/** GF(2) state-transition matrix of one LFSR: row i is the mask of
 *  current-state bits whose parity gives next-state bit i. */
struct StepMatrix
{
    std::array<std::uint32_t, kStateBits> rows;
};

/** One advance(): bit i <- bit i+1 (shift), bit 30 <- parity of the
 *  feedback taps. */
StepMatrix
one_step(std::uint32_t taps)
{
    StepMatrix m{};
    for (int i = 0; i + 1 < kStateBits; ++i)
        m.rows[i] = 1u << (i + 1);
    m.rows[kStateBits - 1] = taps;
    return m;
}

std::uint32_t
apply(const StepMatrix &m, std::uint32_t state)
{
    std::uint32_t out = 0;
    for (int i = 0; i < kStateBits; ++i)
        out |= static_cast<std::uint32_t>(
                   std::popcount(m.rows[i] & state) & 1)
               << i;
    return out;
}

/** m∘m: row i of the square is the XOR of m's rows selected by row i. */
StepMatrix
square(const StepMatrix &m)
{
    StepMatrix sq{};
    for (int i = 0; i < kStateBits; ++i) {
        std::uint32_t row = 0;
        std::uint32_t sel = m.rows[i];
        while (sel != 0) {
            row ^= m.rows[std::countr_zero(sel)];
            sel &= sel - 1;
        }
        sq.rows[i] = row;
    }
    return sq;
}

/** Jump matrices for 2^k steps, k = 0..kJumpLevels-1.  2^40 sequence
 *  bits is orders of magnitude past any codeword offset. */
constexpr int kJumpLevels = 40;

struct JumpTable
{
    std::array<StepMatrix, kJumpLevels> pow2;
};

JumpTable
make_jump_table(std::uint32_t taps)
{
    JumpTable t{};
    t.pow2[0] = one_step(taps);
    for (int k = 1; k < kJumpLevels; ++k)
        t.pow2[k] = square(t.pow2[k - 1]);
    return t;
}

// x1(n+31) = x1(n+3) + x1(n);  x2(n+31) = x2(n+3) + x2(n+2)
//            + x2(n+1) + x2(n)                          (mod 2)
const JumpTable &
x1_jumps()
{
    static const JumpTable t = make_jump_table((1u << 3) | 1u);
    return t;
}

const JumpTable &
x2_jumps()
{
    static const JumpTable t = make_jump_table(0xFu);
    return t;
}

} // namespace

void
GoldStream::skip(std::size_t n)
{
    // Below ~2 matrix hops the plain steps win.
    if (n < 64) {
        for (; n >= kBlockBits; n -= kBlockBits)
            next_block();
        while (n-- > 0)
            advance();
        return;
    }
    LTE_CHECK((n >> kJumpLevels) == 0, "skip distance out of range");
    const JumpTable &j1 = x1_jumps();
    const JumpTable &j2 = x2_jumps();
    for (int k = 0; k < kJumpLevels && (n >> k) != 0; ++k) {
        if ((n >> k) & 1u) {
            x1_ = apply(j1.pow2[k], x1_);
            x2_ = apply(j2.pow2[k], x2_);
        }
    }
}

namespace {

/**
 * The one Gold bit path shared by the transmitter and the receiver:
 * walk @p n sequence bits a block at a time, calling
 * f(i, c, len) with c(i .. i + len) in the low @p len bits of c.
 */
template <class F>
void
for_each_gold_block(GoldStream &stream, std::size_t n, F &&f)
{
    for (std::size_t i = 0; i < n; i += GoldStream::kBlockBits) {
        const std::uint32_t c = stream.next_block();
        f(i, c, std::min(GoldStream::kBlockBits, n - i));
    }
}

/** kNibbleSigns[v][j]: the float sign bit when bit j of v is set. */
constexpr auto kNibbleSigns = [] {
    std::array<std::array<std::uint32_t, 4>, 16> t{};
    for (std::uint32_t v = 0; v < 16; ++v) {
        for (std::uint32_t j = 0; j < 4; ++j)
            t[v][j] = ((v >> j) & 1u) << 31;
    }
    return t;
}();

/** XOR the sign bit of p[j] with bit j of @p c, j < len (≤ 28).  Four
 *  lanes per table row: the compiler emits one vector XOR each. */
void
flip_signs(Llr *p, std::uint32_t c, std::size_t len)
{
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4, c >>= 4) {
        std::uint32_t u[4];
        std::memcpy(u, p + j, sizeof u);
        for (std::size_t k = 0; k < 4; ++k)
            u[k] ^= kNibbleSigns[c & 0xFu][k];
        std::memcpy(p + j, u, sizeof u);
    }
    for (; j < len; ++j, c >>= 1) {
        const std::uint32_t u =
            std::bit_cast<std::uint32_t>(p[j]) ^ ((c & 1u) << 31);
        p[j] = std::bit_cast<Llr>(u);
    }
}

} // namespace

std::vector<std::uint8_t>
gold_sequence(std::uint32_t c_init, std::size_t length)
{
    GoldStream stream(c_init);
    std::vector<std::uint8_t> seq(length);
    for_each_gold_block(stream, length,
                        [&](std::size_t i, std::uint32_t c,
                            std::size_t len) {
                            for (std::size_t j = 0; j < len; ++j)
                                seq[i + j] = static_cast<std::uint8_t>(
                                    (c >> j) & 1u);
                        });
    return seq;
}

std::uint32_t
scrambling_init(std::uint32_t user_id, std::uint32_t cell_id)
{
    // RNTI * 2^14 + cell identity, the PUSCH-style composition.
    return ((user_id + 1) << 14) + (cell_id & 0x1FF);
}

std::vector<std::uint8_t>
scramble(const std::vector<std::uint8_t> &bits, std::uint32_t c_init)
{
    std::uint8_t seen = 0;
    for (std::uint8_t b : bits)
        seen |= b;
    LTE_CHECK(seen <= 1, "bits must be 0 or 1");
    std::vector<std::uint8_t> out = gold_sequence(c_init, bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i)
        out[i] ^= bits[i];
    return out;
}

void
descramble_soft_inplace(LlrSpan llrs, std::uint32_t c_init)
{
    descramble_soft_inplace(llrs, c_init, 0);
}

void
descramble_soft_inplace(LlrSpan llrs, std::uint32_t c_init,
                        std::size_t skip_bits)
{
    GoldStream stream(c_init);
    stream.skip(skip_bits);
    for_each_gold_block(stream, llrs.size(),
                        [&](std::size_t i, std::uint32_t c,
                            std::size_t len) {
                            flip_signs(llrs.data() + i, c, len);
                        });
}

} // namespace lte::phy
