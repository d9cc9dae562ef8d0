/**
 * @file
 * The functional semantics of the tile-local instructions.
 *
 * Every data-moving tile instruction resolves to one TileOp (raw
 * span pointers + lengths into the tile's memory) that execTileOp()
 * executes. It is the single functional implementation: the
 * cycle-accurate interpreter and the DataOnly steps of fidelity=fast
 * (sim/fidelity.hh) both call it, so a fast step is bit-identical to
 * a cycle-accurate one by construction.
 */

#ifndef MANNA_SIM_TILE_OPS_HH
#define MANNA_SIM_TILE_OPS_HH

#include <cstdint>

#include "isa/isa.hh"

namespace manna::sim
{

/** Discriminator for one resolved operation. */
enum class TileOpKind : std::uint8_t
{
    Copy2d,      ///< pitched row copies (matrix/vector DMA)
    Vmm,         ///< vector-matrix multiply block
    Elementwise, ///< EwAdd..Fill, including len-1 broadcast sources
    Sfu,         ///< special-function unit map / accumulate
};

/** TileOp::flags bits. */
inline constexpr std::uint8_t kTileOpAccumulate = 1; ///< Vmm +=
inline constexpr std::uint8_t kTileOpWithNorms = 2;  ///< Vmm norms
inline constexpr std::uint8_t kTileOpRowDot = 4;     ///< Vmm mode

/**
 * One resolved functional operation. Field meaning is per kind:
 *
 *  Copy2d:       a=src, d=dst, n=rowWords, rows, pitchA=src pitch,
 *                pitchD=dst pitch.
 *  Vmm:          a=vector, b=matrix block, d=dst, dn=norms dst,
 *                n=numCols, rows=numRows, pitchA=block pitch, flags.
 *  Elementwise:  op, a/b=sources (null when unused), d=dst, n=len,
 *                pitchA=srcA len (1 = broadcast), pitchD=srcB len,
 *                imm.
 *  Sfu:          op, a=src, b=pow exponent span (read at exec time),
 *                d=dst, n=len.
 */
struct TileOp
{
    TileOpKind kind = TileOpKind::Copy2d;
    isa::Opcode op = isa::Opcode::Nop;
    std::uint8_t flags = 0;
    std::uint32_t n = 0;
    std::uint32_t rows = 0;
    std::uint32_t pitchA = 0;
    std::uint32_t pitchD = 0;
    float imm = 0.0f;
    const float *a = nullptr;
    const float *b = nullptr;
    float *d = nullptr;
    float *dn = nullptr;
};

/** Execute one tile-local op (Copy2d/Vmm/Elementwise/Sfu). */
void execTileOp(const TileOp &op);

} // namespace manna::sim

#endif // MANNA_SIM_TILE_OPS_HH
