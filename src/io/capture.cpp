#include "io/capture.hpp"

#include <cstring>
#include <stdexcept>

#include "common/check.hpp"
#include "common/types.hpp"

namespace lte::io {

namespace {

constexpr char kMagic[8] = {'L', 'T', 'E', 'I', 'Q', 'v', '1', '\0'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void
put(std::ofstream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value), sizeof(T));
}

template <typename T>
bool
get(std::ifstream &in, T &value)
{
    in.read(reinterpret_cast<char *>(&value), sizeof(T));
    return in.good();
}

[[noreturn]] void
fail(const std::string &path, const char *what)
{
    throw std::runtime_error("capture file '" + path + "': " + what);
}

} // namespace

CaptureWriter::CaptureWriter(const std::string &path,
                             std::size_t n_antennas)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path),
      n_antennas_(n_antennas)
{
    LTE_CHECK(n_antennas >= 1 && n_antennas <= kMaxRxAntennas,
              "capture antenna count out of range");
    if (!out_)
        fail(path_, "cannot open for writing");
    out_.write(kMagic, sizeof(kMagic));
    put(out_, kVersion);
    put(out_, static_cast<std::uint32_t>(n_antennas_));
}

void
CaptureWriter::write(const IqFrame &frame)
{
    LTE_CHECK(frame.signals.size() == frame.params.users.size(),
              "frame signal view out of sync with its params");
    put(out_, frame.params.subframe_index);
    put(out_, frame.params.cell_id);
    put(out_, static_cast<std::uint32_t>(frame.params.users.size()));
    for (const auto &user : frame.params.users) {
        put(out_, user.id);
        put(out_, user.prb);
        put(out_, user.layers);
        put(out_, static_cast<std::uint8_t>(user.mod));
    }
    for (const phy::UserSignal *signal : frame.signals) {
        LTE_CHECK(signal != nullptr && signal->antennas.size() >= n_antennas_,
                  "frame signal missing antennas for capture");
        for (std::size_t a = 0; a < n_antennas_; ++a) {
            for (const auto &slot : signal->antennas[a].slots) {
                for (const CVec &symbol : slot) {
                    put(out_,
                        static_cast<std::uint32_t>(symbol.size()));
                    out_.write(
                        reinterpret_cast<const char *>(symbol.data()),
                        static_cast<std::streamsize>(symbol.size() *
                                                     sizeof(cf32)));
                }
            }
        }
    }
    if (!out_)
        fail(path_, "write failed");
    ++frames_written_;
}

CaptureReader::CaptureReader(const std::string &path)
    : in_(path, std::ios::binary), path_(path)
{
    if (!in_)
        fail(path_, "cannot open for reading");
    char magic[sizeof(kMagic)] = {};
    in_.read(magic, sizeof(magic));
    if (!in_ || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        fail(path_, "bad magic (not an LTEIQ capture)");
    std::uint32_t version = 0;
    std::uint32_t n_antennas = 0;
    if (!get(in_, version) || !get(in_, n_antennas))
        fail(path_, "truncated header");
    if (version != kVersion)
        fail(path_, "unsupported capture version");
    if (n_antennas < 1 || n_antennas > kMaxRxAntennas)
        fail(path_, "antenna count out of range");
    n_antennas_ = n_antennas;
    first_frame_ = in_.tellg();
}

bool
CaptureReader::read_into(IqFrame &frame)
{
    std::uint64_t subframe_index = 0;
    if (!get(in_, subframe_index))
        return false; // clean EOF boundary
    std::uint32_t cell_id = 0;
    std::uint32_t n_users = 0;
    if (!get(in_, cell_id) || !get(in_, n_users))
        fail(path_, "truncated frame header");
    if (n_users > kMaxUsersPerSubframe)
        fail(path_, "frame user count out of range");

    frame.params.subframe_index = subframe_index;
    frame.params.cell_id = cell_id;
    frame.params.users.resize(n_users);
    for (auto &user : frame.params.users) {
        std::uint8_t mod = 0;
        if (!get(in_, user.id) || !get(in_, user.prb) ||
            !get(in_, user.layers) || !get(in_, mod))
            fail(path_, "truncated user params");
        if (mod > static_cast<std::uint8_t>(Modulation::k64Qam))
            fail(path_, "modulation out of range");
        user.mod = static_cast<Modulation>(mod);
    }
    frame.params.validate();

    // Self-backed storage: the signal pointers reference this frame,
    // not an external pool.  resize() reuses capacity, so a steady
    // stream of same-shaped frames reads allocation-free.
    frame.storage.resize(n_users);
    frame.signals.resize(n_users);
    for (std::size_t u = 0; u < n_users; ++u) {
        phy::UserSignal &signal = frame.storage[u];
        signal.antennas.resize(n_antennas_);
        for (auto &antenna : signal.antennas) {
            for (auto &slot : antenna.slots) {
                for (CVec &symbol : slot) {
                    std::uint32_t n_sc = 0;
                    if (!get(in_, n_sc))
                        fail(path_, "truncated symbol header");
                    if (n_sc > kMaxPrbPerSubframe * kScPerPrb)
                        fail(path_, "symbol width out of range");
                    symbol.resize(n_sc);
                    in_.read(reinterpret_cast<char *>(symbol.data()),
                             static_cast<std::streamsize>(
                                 n_sc * sizeof(cf32)));
                    if (!in_)
                        fail(path_, "truncated samples");
                }
            }
        }
        signal.validate(frame.params.users[u], n_antennas_);
        frame.signals[u] = &signal;
    }
    return true;
}

bool
CaptureReader::skip_frame()
{
    std::uint64_t subframe_index = 0;
    if (!get(in_, subframe_index))
        return false;
    std::uint32_t cell_id = 0;
    std::uint32_t n_users = 0;
    if (!get(in_, cell_id) || !get(in_, n_users))
        fail(path_, "truncated frame header");
    if (n_users > kMaxUsersPerSubframe)
        fail(path_, "frame user count out of range");
    in_.seekg(static_cast<std::streamoff>(n_users) *
                  (3 * sizeof(std::uint32_t) + sizeof(std::uint8_t)),
              std::ios::cur);
    const std::size_t symbols =
        n_users * n_antennas_ * kSlotsPerSubframe * kSymbolsPerSlot;
    for (std::size_t i = 0; i < symbols; ++i) {
        std::uint32_t n_sc = 0;
        if (!get(in_, n_sc))
            fail(path_, "truncated symbol header");
        // The same bound read_into enforces: a corrupt width would
        // otherwise seek silently past the frame and misalign every
        // later read of a looped replay.
        if (n_sc > kMaxPrbPerSubframe * kScPerPrb)
            fail(path_, "symbol width out of range");
        in_.seekg(static_cast<std::streamoff>(n_sc) * sizeof(cf32),
                  std::ios::cur);
    }
    if (!in_)
        fail(path_, "truncated samples");
    return true;
}

void
CaptureReader::rewind()
{
    in_.clear();
    in_.seekg(first_frame_);
}

ReplaySource::ReplaySource(const std::string &path, bool loop)
    : reader_(path), loop_(loop)
{
}

bool
ReplaySource::produce(IqFrame &frame)
{
    if (reader_.read_into(frame))
        return true;
    if (!loop_)
        return false;
    reader_.rewind();
    if (!reader_.read_into(frame))
        fail("(replay)", "capture holds no frames");
    return true;
}

void
ReplaySource::skip()
{
    if (reader_.skip_frame())
        return;
    if (loop_) {
        reader_.rewind();
        (void)reader_.skip_frame();
    }
}

} // namespace lte::io
