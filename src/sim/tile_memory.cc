#include "tile_memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace manna::sim
{

TileMemory::TileMemory(std::size_t matBufWords, std::size_t matSpadWords,
                       std::size_t vecBufWords, std::size_t vecSpadWords,
                       bool withData)
    : words_{matBufWords, matSpadWords, vecBufWords, vecSpadWords},
      withData_(withData)
{
    if (withData_)
        for (std::size_t s = 0; s < 4; ++s)
            data_[s].assign(words_[s], 0.0f);
}

std::size_t
TileMemory::index(isa::Space space)
{
    switch (space) {
      case isa::Space::MatBuf:
      case isa::Space::MatSpad:
      case isa::Space::VecBuf:
      case isa::Space::VecSpad:
        return static_cast<std::size_t>(space) - 1;
      case isa::Space::None:
        break;
    }
    panic("invalid memory space");
}

float
TileMemory::read(isa::Space space, std::uint32_t addr) const
{
    return *dataSpan(space, addr, 1);
}

void
TileMemory::write(isa::Space space, std::uint32_t addr, float value)
{
    *dataSpan(space, addr, 1) = value;
}

std::vector<float>
TileMemory::readRange(isa::Space space, std::uint32_t addr,
                      std::uint32_t len) const
{
    const float *p = dataSpan(space, addr, len);
    return std::vector<float>(p, p + len);
}

void
TileMemory::writeRange(isa::Space space, std::uint32_t addr,
                       const std::vector<float> &values)
{
    float *p = dataSpan(space, addr,
                        static_cast<std::uint32_t>(values.size()));
    std::copy(values.begin(), values.end(), p);
}

const float *
TileMemory::span(isa::Space space, std::uint32_t addr,
                 std::uint32_t len) const
{
    const std::size_t s = index(space);
    MANNA_ASSERT(static_cast<std::size_t>(addr) + len <= words_[s],
                 "%s span [%u, %u) out of %zu", toString(space), addr,
                 addr + len, words_[s]);
    // A size-only memory has no base pointer to offset.
    return withData_ ? data_[s].data() + addr : nullptr;
}

float *
TileMemory::span(isa::Space space, std::uint32_t addr, std::uint32_t len)
{
    const float *p =
        const_cast<const TileMemory *>(this)->span(space, addr, len);
    return const_cast<float *>(p);
}

float *
TileMemory::dataSpan(isa::Space space, std::uint32_t addr,
                     std::uint32_t len) const
{
    MANNA_ASSERT(withData_, "%s access to a size-only tile memory",
                 toString(space));
    return const_cast<float *>(span(space, addr, len));
}

std::size_t
TileMemory::words(isa::Space space) const
{
    return words_[index(space)];
}

void
TileMemory::clear()
{
    for (auto &space : data_)
        std::fill(space.begin(), space.end(), 0.0f);
}

} // namespace manna::sim
