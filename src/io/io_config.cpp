#include "io/io_config.hpp"

#include "common/check.hpp"

namespace lte::io {

void
IoConfig::validate() const
{
    if (!enabled)
        return;
    LTE_CHECK(n_frames >= 2, "io.n_frames must be at least 2");
    LTE_CHECK(n_frames <= 4096, "io.n_frames unreasonably large");
}

} // namespace lte::io
