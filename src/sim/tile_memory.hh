/**
 * @file
 * Functional storage for one DiffMem tile's memory spaces.
 *
 * The simulator separates *functional* state (the FP32 contents of
 * each buffer, held here) from *timing* state (resource timelines,
 * held in the tile). Sizes are set by the compiled layout; capacity
 * violations against the hardware configuration are reported by the
 * compiler, not here.
 *
 * A size-only memory (the timing-only chip's, sim/chip.hh) keeps the
 * per-space sizes and every bounds check but allocates no storage:
 * span() checks the range and returns nullptr, and the data accessors
 * (read, write, readRange, writeRange) must not be called on it.
 */

#ifndef MANNA_SIM_TILE_MEMORY_HH
#define MANNA_SIM_TILE_MEMORY_HH

#include <vector>

#include "isa/isa.hh"

namespace manna::sim
{

/**
 * Word-addressed FP32 storage for the four tile memory spaces.
 */
class TileMemory
{
  public:
    /** Construct with per-space word counts; zero-filled, or
     * size-only when @p withData is false. */
    TileMemory(std::size_t matBufWords, std::size_t matSpadWords,
               std::size_t vecBufWords, std::size_t vecSpadWords,
               bool withData = true);

    /** Read one word (bounds-checked). */
    float read(isa::Space space, std::uint32_t addr) const;

    /** Write one word (bounds-checked). */
    void write(isa::Space space, std::uint32_t addr, float value);

    /** Bulk copy out of a space. */
    std::vector<float> readRange(isa::Space space, std::uint32_t addr,
                                 std::uint32_t len) const;

    /** Bulk copy into a space. */
    void writeRange(isa::Space space, std::uint32_t addr,
                    const std::vector<float> &values);

    /** Direct span access for the interpreter's inner loops
     * (bounds-checked; nullptr on a size-only memory). */
    const float *span(isa::Space space, std::uint32_t addr,
                      std::uint32_t len) const;
    float *span(isa::Space space, std::uint32_t addr, std::uint32_t len);

    std::size_t words(isa::Space space) const;

    /** Zero every word in place (no-op on a size-only memory). */
    void clear();

  private:
    /** Index of @p space into words_/data_; panics on Space::None. */
    static std::size_t index(isa::Space space);

    /** span() on a memory that must hold data. */
    float *dataSpan(isa::Space space, std::uint32_t addr,
                    std::uint32_t len) const;

    std::size_t words_[4];
    std::vector<float> data_[4]; ///< empty when size-only
    bool withData_;
};

} // namespace manna::sim

#endif // MANNA_SIM_TILE_MEMORY_HH
