#include "codegen.hh"

#include "compiler/codegen_util.hh"

#include <functional>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::compiler
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::Program;
using isa::ReduceOp;
using isa::Space;

std::uint32_t
packCommTag(CommTag tag, std::uint32_t index)
{
    return static_cast<std::uint32_t>(tag) | (index << 8);
}

CommTag
commTagOf(std::uint32_t count)
{
    return static_cast<CommTag>(count & 0xffu);
}

std::uint32_t
commIndexOf(std::uint32_t count)
{
    return count >> 8;
}

std::size_t
maxProgramLength(const std::vector<CompiledSegment> &segments)
{
    std::size_t mx = 0;
    for (const auto &seg : segments)
        for (const auto &p : seg.tilePrograms)
            mx = std::max(mx, p.size());
    return mx;
}

std::string
disassembleTile(const std::vector<CompiledSegment> &segments,
                std::size_t tile)
{
    std::string out;
    for (const auto &seg : segments) {
        MANNA_ASSERT(tile < seg.tilePrograms.size(),
                     "tile %zu out of range", tile);
        out += strformat("; ---- segment %s (%s) ----\n",
                         seg.name.c_str(), mann::toString(seg.group));
        out += seg.tilePrograms[tile].disassemble();
    }
    return out;
}

std::size_t
CompiledModel::maxProgramLength() const
{
    return compiler::maxProgramLength(stepSegments);
}

std::string
CompiledModel::disassembleTile(std::size_t tile) const
{
    return compiler::disassembleTile(stepSegments, tile);
}

namespace
{

/** Internal memory layout (superset of ChipLayout). */
struct Regions
{
    // MatBuf (word addresses).
    std::uint32_t mem = 0;
    std::vector<std::uint32_t> headW;       // per head
    std::uint32_t raw = 0;                  // shared raw-param buffer
    std::vector<std::uint32_t> key;         // per head
    std::vector<std::uint32_t> erase;       // per write head
    std::vector<std::uint32_t> addv;        // per write head
    std::vector<std::uint32_t> readPartial; // per read head
    std::uint32_t tmpM = 0;
    std::uint32_t matBufWords = 0;

    // VecBuf.
    std::uint32_t hidden = 0;
    std::vector<std::uint32_t> scalars; // per head (kScalarSlots each)
    std::vector<std::uint32_t> shift;   // per head (taps)
    std::uint32_t shiftRaw = 0;
    std::vector<std::uint32_t> wPrev; // per head (nLocalMax)
    std::vector<std::uint32_t> wCur;  // per head
    std::vector<std::uint32_t> simDots; // per head
    std::uint32_t simNorms = 0;         // shared (head-independent)
    std::uint32_t tmpN = 0;
    std::uint32_t tmpN2 = 0;
    std::uint32_t wgExt = 0;
    std::uint32_t boundary = 0;
    std::uint32_t vecBufWords = 0;

    // VecSpad.
    std::uint32_t stageVec = 0; // vector chunks for vmm srcA
    std::uint32_t stageRow = 0; // soft-write row temporary
    std::uint32_t vecSpadWords = 0;
};

/**
 * The generator: holds all shapes, the layout, and per-kernel
 * mappings, and emits each segment for each tile.
 */
class Generator
{
  public:
    Generator(const mann::MannConfig &mc, const arch::MannaConfig &ac,
              const Mapping &mapping)
        : mc_(mc), ac_(ac), mapping_(mapping),
          tiles_(ac.numTiles),
          memM_(static_cast<std::uint32_t>(mc.memM)),
          hidden_(static_cast<std::uint32_t>(mc.hiddenDim())),
          taps_(static_cast<std::uint32_t>(mc.shiftTaps())),
          radius_(static_cast<std::uint32_t>(mc.shiftRadius)),
          numHeads_(mc.numReadHeads + mc.numWriteHeads)
    {
        memRows_ = partitionRows(
            static_cast<std::uint32_t>(mc.memN), tiles_);
        memStarts_ = startsOf(memRows_);
        nLocalMax_ = memRows_.empty() ? 0 : memRows_[0];
        for (std::size_t h = 0; h < numHeads_; ++h) {
            const std::uint32_t dim =
                static_cast<std::uint32_t>(paramDim(h));
            headRows_.push_back(partitionRows(dim, tiles_));
            headStarts_.push_back(startsOf(headRows_.back()));
        }
        computeLayout();
    }

    CompiledModel generate();

  private:
    bool isWriteHead(std::size_t h) const
    {
        return h >= mc_.numReadHeads;
    }
    /** Head weight columns: hidden plus the augmented bias lane. */
    std::uint32_t headCols() const { return hidden_ + 1; }
    std::size_t paramDim(std::size_t h) const
    {
        return isWriteHead(h) ? mc_.writeHeadParamDim()
                              : mc_.readHeadParamDim();
    }
    std::uint32_t nLocal(std::size_t tile) const
    {
        return memRows_[tile];
    }

    void computeLayout();
    void checkCapacity(CompiledModel &model) const;

    // Segment emitters (one tile each).
    Program emitHeads(std::size_t tile) const;
    Program emitKeySimilarity(std::size_t tile) const;
    Program emitAddressing(std::size_t tile) const;
    Program emitSoftRead(std::size_t tile) const;
    Program emitSoftWrite(std::size_t tile) const;

    // Small instruction helpers.
    static Operand scalarOp(std::uint32_t addr)
    {
        return isa::makeOperand(Space::VecBuf, addr, 1);
    }
    Operand headScalar(std::size_t h, std::uint32_t slot) const
    {
        return scalarOp(regions_.scalars[h] + slot);
    }

    const mann::MannConfig &mc_;
    const arch::MannaConfig &ac_;
    const Mapping &mapping_;
    std::size_t tiles_;
    std::uint32_t memM_;
    std::uint32_t hidden_;
    std::uint32_t taps_;
    std::uint32_t radius_;
    std::size_t numHeads_;

    std::vector<std::uint32_t> memRows_, memStarts_;
    std::vector<std::vector<std::uint32_t>> headRows_, headStarts_;
    std::uint32_t nLocalMax_ = 0;

    Regions regions_;
};

void
Generator::computeLayout()
{
    // ---- MatBuf ----
    std::uint32_t cursor = 0;
    auto alloc = [&cursor](std::uint32_t words) {
        const std::uint32_t at = cursor;
        cursor += words;
        return at;
    };

    regions_.mem = alloc(nLocalMax_ * memM_);
    std::uint32_t maxParamDim = 0;
    for (std::size_t h = 0; h < numHeads_; ++h) {
        const std::uint32_t rowsMax = headRows_[h][0];
        regions_.headW.push_back(alloc(rowsMax * headCols()));
        maxParamDim = std::max(
            maxParamDim, static_cast<std::uint32_t>(paramDim(h)));
    }
    regions_.raw = alloc(maxParamDim);
    for (std::size_t h = 0; h < numHeads_; ++h)
        regions_.key.push_back(alloc(memM_));
    for (std::size_t h = 0; h < mc_.numWriteHeads; ++h) {
        regions_.erase.push_back(alloc(memM_));
        regions_.addv.push_back(alloc(memM_));
    }
    for (std::size_t h = 0; h < mc_.numReadHeads; ++h)
        regions_.readPartial.push_back(alloc(memM_));
    regions_.tmpM = alloc(memM_);
    regions_.matBufWords = cursor;

    // ---- VecBuf ----
    cursor = 0;
    regions_.hidden = alloc(headCols()); // hidden + constant-one lane
    for (std::size_t h = 0; h < numHeads_; ++h)
        regions_.scalars.push_back(alloc(kScalarSlots));
    for (std::size_t h = 0; h < numHeads_; ++h)
        regions_.shift.push_back(alloc(taps_));
    regions_.shiftRaw = alloc(taps_);
    for (std::size_t h = 0; h < numHeads_; ++h) {
        regions_.wPrev.push_back(alloc(nLocalMax_));
        regions_.wCur.push_back(alloc(nLocalMax_));
        regions_.simDots.push_back(alloc(nLocalMax_));
    }
    regions_.simNorms = alloc(nLocalMax_);
    regions_.tmpN = alloc(nLocalMax_);
    regions_.tmpN2 = alloc(nLocalMax_);
    regions_.wgExt = alloc(nLocalMax_ + 2 * radius_);
    regions_.boundary =
        alloc(static_cast<std::uint32_t>(tiles_) * 2 * radius_);
    regions_.vecBufWords = cursor;

    // ---- VecSpad ----
    cursor = 0;
    const std::uint32_t stageWords = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(ac_.matrixBufferWidthWords),
        chooseBlockN(ac_, nLocalMax_ ? nLocalMax_ : 1, false));
    regions_.stageVec = alloc(stageWords);
    regions_.stageRow = alloc(
        static_cast<std::uint32_t>(ac_.matrixBufferWidthWords));
    regions_.vecSpadWords = cursor;
}

Program
Generator::emitHeads(std::size_t tile) const
{
    Program prog;
    const KernelMapping &km = mapping_.forKernel(mann::Kernel::Heads);

    // Receive the controller's hidden state (augmented with a
    // constant-one bias lane) at every tile.
    {
        Instruction bc = makeInst(
            Opcode::Broadcast,
            isa::makeOperand(Space::VecBuf, regions_.hidden,
                             headCols()));
        bc.count = packCommTag(CommTag::HiddenIn);
        prog.append(bc);
    }

    for (std::size_t h = 0; h < numHeads_; ++h) {
        const std::uint32_t dim =
            static_cast<std::uint32_t>(paramDim(h));
        const std::uint32_t rowsT = headRows_[h][tile];
        const std::uint32_t rowStartT = headStarts_[h][tile];

        // Zero the assembly buffer, then compute this tile's slice of
        // the raw projection W_h * hidden in place.
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::MatBuf, regions_.raw, dim)));

        if (rowsT > 0) {
            const bool skew = ac_.hasDmat;
            emitBlockedSweep(
                prog, rowsT, headCols(), km.blockN, km.blockM,
                /*outerRows=*/true,
                [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                    std::uint32_t colsB) {
                    // Stream a block of the weight slice through the
                    // scratchpad (skewed when the DMAT is present).
                    Instruction load = makeInst(
                        skew ? Opcode::DmatLoadM : Opcode::DmaLoadM,
                        isa::makeOperand(
                            Space::MatSpad, 0,
                            rowsB * (colsB + (skew ? 1 : 0))),
                        mk(Space::MatBuf, regions_.headW[h],
                           rowsB * colsB, c,
                           static_cast<std::int64_t>(km.blockN) *
                               headCols(),
                           km.blockM));
                    load.srcB.base = headCols(); // source row pitch
                    load.count = rowsB;
                    p.append(load);

                    // Stage the hidden chunk and accumulate the dots.
                    p.append(makeInst(
                        Opcode::DmaLoadV,
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, colsB),
                        mk(Space::VecBuf, regions_.hidden, colsB, c, 0,
                           km.blockM)));
                    Instruction vmm = makeInst(
                        Opcode::Vmm,
                        mk(Space::MatBuf, regions_.raw + rowStartT,
                           rowsB, c, km.blockN, 0),
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, colsB),
                        isa::makeOperand(
                            Space::MatSpad, 0,
                            rowsB * (colsB + (skew ? 1 : 0))));
                    vmm.flags.rowDot = true;
                    vmm.flags.accumulate = true;
                    vmm.flags.skewed = skew;
                    p.append(vmm);
                });
        }

        // Assemble the full raw vector across tiles and distribute.
        prog.append(makeInst(
            Opcode::Reduce, Operand{},
            isa::makeOperand(Space::MatBuf, regions_.raw, dim)));
        prog.append(makeInst(
            Opcode::Broadcast,
            isa::makeOperand(Space::MatBuf, regions_.raw, dim)));

        // Decode (replicated on every tile; each tile needs the full
        // decoded parameters since it holds full memory rows).
        const std::uint32_t rawBase = regions_.raw;
        auto rawAt = [&](std::uint32_t off, std::uint32_t len) {
            return isa::makeOperand(Space::MatBuf, rawBase + off, len);
        };
        // key (no squashing in the reference NTM).
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::MatBuf, regions_.key[h], memM_),
            rawAt(0, memM_)));
        std::uint32_t off = memM_;
        prog.append(makeInst(Opcode::SfuSoftplus,
                             headScalar(h, kSlotBeta), rawAt(off, 1)));
        ++off;
        prog.append(makeInst(Opcode::SfuSigmoid,
                             headScalar(h, kSlotGate), rawAt(off, 1)));
        prog.append(makeInst(Opcode::EwRsubImm,
                             headScalar(h, kSlotOneMinusGate),
                             headScalar(h, kSlotGate), Operand{},
                             1.0f));
        ++off;
        // shift taps: numerically stable softmax.
        prog.append(makeInst(Opcode::SfuAccMax,
                             headScalar(h, kSlotTmp),
                             rawAt(off, taps_)));
        prog.append(makeInst(
            Opcode::EwSub,
            isa::makeOperand(Space::VecBuf, regions_.shiftRaw, taps_),
            rawAt(off, taps_), headScalar(h, kSlotTmp)));
        prog.append(makeInst(
            Opcode::SfuExp,
            isa::makeOperand(Space::VecBuf, regions_.shiftRaw, taps_),
            isa::makeOperand(Space::VecBuf, regions_.shiftRaw,
                             taps_)));
        prog.append(makeInst(
            Opcode::SfuAccSum, headScalar(h, kSlotSum),
            isa::makeOperand(Space::VecBuf, regions_.shiftRaw,
                             taps_)));
        prog.append(makeInst(Opcode::SfuRecip,
                             headScalar(h, kSlotRecip),
                             headScalar(h, kSlotSum)));
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.shift[h], taps_),
            isa::makeOperand(Space::VecBuf, regions_.shiftRaw, taps_),
            headScalar(h, kSlotRecip)));
        off += taps_;
        prog.append(makeInst(Opcode::SfuSoftplus,
                             headScalar(h, kSlotTmp), rawAt(off, 1)));
        prog.append(makeInst(Opcode::EwAddImm,
                             headScalar(h, kSlotGamma),
                             headScalar(h, kSlotTmp), Operand{}, 1.0f));
        ++off;
        if (isWriteHead(h)) {
            const std::size_t hw = h - mc_.numReadHeads;
            prog.append(makeInst(
                Opcode::SfuSigmoid,
                isa::makeOperand(Space::MatBuf, regions_.erase[hw],
                                 memM_),
                rawAt(off, memM_)));
            off += memM_;
            prog.append(makeInst(
                Opcode::SfuTanh,
                isa::makeOperand(Space::MatBuf, regions_.addv[hw],
                                 memM_),
                rawAt(off, memM_)));
            off += memM_;
        }
        MANNA_ASSERT(off == dim, "head %zu decode consumed %u of %u", h,
                     off, dim);
    }
    return prog;
}

Program
Generator::emitKeySimilarity(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return prog; // no local rows: nothing to do, no comm either

    const KernelMapping &km =
        mapping_.forKernel(mann::Kernel::KeySimilarity);
    const bool skew = ac_.hasDmat;

    // Per-head key norms (replicated work, O(memM) each).
    for (std::size_t h = 0; h < numHeads_; ++h) {
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::MatBuf, regions_.tmpM, memM_),
            isa::makeOperand(Space::MatBuf, regions_.key[h], memM_),
            isa::makeOperand(Space::MatBuf, regions_.key[h], memM_)));
        prog.append(makeInst(
            Opcode::SfuAccSum, headScalar(h, kSlotKeyNorm),
            isa::makeOperand(Space::MatBuf, regions_.tmpM, memM_)));
        prog.append(makeInst(Opcode::SfuSqrt,
                             headScalar(h, kSlotKeyNorm),
                             headScalar(h, kSlotKeyNorm)));
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::VecBuf, regions_.simDots[h], n)));
    }
    prog.append(makeInst(
        Opcode::Fill,
        isa::makeOperand(Space::VecBuf, regions_.simNorms, n)));

    // One streaming sweep over the local memory slice; the block is
    // loaded once and reused by every head (RF-held partials).
    emitBlockedSweep(
        prog, n, memM_, km.blockN, km.blockM, /*outerRows=*/true,
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            Instruction load = makeInst(
                skew ? Opcode::DmatLoadM : Opcode::DmaLoadM,
                isa::makeOperand(Space::MatSpad, 0,
                                 rowsB * (colsB + (skew ? 1 : 0))),
                mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                   static_cast<std::int64_t>(km.blockN) * memM_,
                   km.blockM));
            load.srcB.base = memM_; // source row pitch
            load.count = rowsB;
            p.append(load);

            for (std::size_t h = 0; h < numHeads_; ++h) {
                p.append(makeInst(
                    Opcode::DmaLoadV,
                    isa::makeOperand(Space::VecSpad,
                                     regions_.stageVec, colsB),
                    mk(Space::MatBuf, regions_.key[h], colsB, c, 0,
                       km.blockM)));
                Instruction vmm = makeInst(
                    Opcode::Vmm,
                    mk(Space::VecBuf, regions_.simDots[h], rowsB, c,
                       km.blockN, 0),
                    isa::makeOperand(Space::VecSpad,
                                     regions_.stageVec, colsB),
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * (colsB + (skew ? 1 : 0))));
                vmm.flags.rowDot = true;
                vmm.flags.accumulate = true;
                vmm.flags.skewed = skew;
                vmm.flags.reuseB = h > 0;
                if (h == 0) {
                    // Row norms are head-independent: accumulate them
                    // alongside head 0's dots.
                    vmm.flags.withNorms = true;
                    vmm.count = regions_.simNorms -
                                regions_.simDots[0];
                }
                p.append(vmm);
            }
        });

    // Cosine normalization: rowNorm = sqrt(norms), then per head
    // sim = dot / (keyNorm * rowNorm + eps)  (Eq. 4 with the golden
    // model's epsilon guard).
    prog.append(makeInst(
        Opcode::SfuSqrt,
        isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
        isa::makeOperand(Space::VecBuf, regions_.simNorms, n)));
    for (std::size_t h = 0; h < numHeads_; ++h) {
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
            headScalar(h, kSlotKeyNorm)));
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            Operand{}, mc_.similarityEpsilon));
        prog.append(makeInst(
            Opcode::SfuRecip,
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n)));
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.simDots[h], n),
            isa::makeOperand(Space::VecBuf, regions_.simDots[h], n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n)));
    }
    return prog;
}

Program
Generator::emitAddressing(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    const std::uint32_t numTiles32 =
        static_cast<std::uint32_t>(tiles_);
    const std::uint32_t boundaryLen = numTiles32 * 2 * radius_;

    for (std::size_t h = 0; h < numHeads_; ++h) {
        // ---- content weighting (Eq. 5, stable softmax) ----
        if (n > 0) {
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                isa::makeOperand(Space::VecBuf, regions_.simDots[h],
                                 n),
                headScalar(h, kSlotBeta)));
            prog.append(makeInst(
                Opcode::SfuAccMax, headScalar(h, kSlotMax),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n)));
        } else {
            prog.append(makeInst(Opcode::Fill,
                                 headScalar(h, kSlotMax), Operand{},
                                 Operand{}, -3.0e38f));
        }
        prog.append(makeInst(Opcode::Reduce, Operand{},
                             headScalar(h, kSlotMax)));
        prog.instructions().back().flags.reduceOp = ReduceOp::Max;
        prog.append(
            makeInst(Opcode::Broadcast, headScalar(h, kSlotMax)));
        if (n > 0) {
            prog.append(makeInst(
                Opcode::EwSub,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                headScalar(h, kSlotMax)));
            prog.append(makeInst(
                Opcode::SfuExp,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n)));
            prog.append(makeInst(
                Opcode::SfuAccSum, headScalar(h, kSlotSum),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n)));
        } else {
            prog.append(makeInst(Opcode::Fill,
                                 headScalar(h, kSlotSum)));
        }
        prog.append(makeInst(Opcode::Reduce, Operand{},
                             headScalar(h, kSlotSum)));
        prog.append(
            makeInst(Opcode::Broadcast, headScalar(h, kSlotSum)));
        prog.append(makeInst(Opcode::SfuRecip,
                             headScalar(h, kSlotRecip),
                             headScalar(h, kSlotSum)));
        if (n > 0) {
            // wc stays in tmpN.
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                headScalar(h, kSlotRecip)));

            // ---- interpolation (Eq. 6) into tmpN2 ----
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                headScalar(h, kSlotGate)));
            prog.append(makeInst(
                Opcode::EwMac,
                isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
                isa::makeOperand(Space::VecBuf, regions_.wPrev[h], n),
                headScalar(h, kSlotOneMinusGate)));
        }

        // ---- shift (Eq. 7): halo exchange then local circular
        // convolution ----
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::VecBuf, regions_.boundary,
                             boundaryLen)));
        if (n > 0) {
            const std::uint32_t myBase =
                regions_.boundary +
                static_cast<std::uint32_t>(tile) * 2 * radius_;
            prog.append(makeInst(
                Opcode::EwAddImm,
                isa::makeOperand(Space::VecBuf, myBase, radius_),
                isa::makeOperand(Space::VecBuf, regions_.tmpN2,
                                 radius_)));
            prog.append(makeInst(
                Opcode::EwAddImm,
                isa::makeOperand(Space::VecBuf, myBase + radius_,
                                 radius_),
                isa::makeOperand(Space::VecBuf,
                                 regions_.tmpN2 + n - radius_,
                                 radius_)));
        }
        prog.append(makeInst(
            Opcode::Reduce, Operand{},
            isa::makeOperand(Space::VecBuf, regions_.boundary,
                             boundaryLen)));
        prog.append(makeInst(
            Opcode::Broadcast,
            isa::makeOperand(Space::VecBuf, regions_.boundary,
                             boundaryLen)));
        if (n > 0) {
            // Circular neighbours skip tiles that hold no memory
            // rows (possible when memN is not divisible by the tile
            // count): their boundary slots are always zero.
            auto prevWithRows = [&](std::size_t t) {
                do {
                    t = (t + tiles_ - 1) % tiles_;
                } while (memRows_[t] == 0);
                return t;
            };
            auto nextWithRows = [&](std::size_t t) {
                do {
                    t = (t + 1) % tiles_;
                } while (memRows_[t] == 0);
                return t;
            };
            const std::size_t prev = prevWithRows(tile);
            const std::size_t next = nextWithRows(tile);
            // wgExt = [left halo | wg | right halo].
            prog.append(makeInst(
                Opcode::EwAddImm,
                isa::makeOperand(Space::VecBuf,
                                 regions_.wgExt + radius_, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN2, n)));
            prog.append(makeInst(
                Opcode::EwAddImm,
                isa::makeOperand(Space::VecBuf, regions_.wgExt,
                                 radius_),
                isa::makeOperand(
                    Space::VecBuf,
                    regions_.boundary +
                        static_cast<std::uint32_t>(prev) * 2 *
                            radius_ +
                        radius_,
                    radius_)));
            prog.append(makeInst(
                Opcode::EwAddImm,
                isa::makeOperand(Space::VecBuf,
                                 regions_.wgExt + radius_ + n,
                                 radius_),
                isa::makeOperand(
                    Space::VecBuf,
                    regions_.boundary +
                        static_cast<std::uint32_t>(next) * 2 *
                            radius_,
                    radius_)));
            // ws into tmpN: ws(i) = sum_off wg(i - off) * s(off).
            prog.append(makeInst(
                Opcode::Fill,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n)));
            for (std::int32_t offTap = -static_cast<std::int32_t>(
                     radius_);
                 offTap <= static_cast<std::int32_t>(radius_);
                 ++offTap) {
                const std::uint32_t srcBase = static_cast<std::uint32_t>(
                    static_cast<std::int32_t>(regions_.wgExt +
                                              radius_) -
                    offTap);
                prog.append(makeInst(
                    Opcode::EwMac,
                    isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                    isa::makeOperand(Space::VecBuf, srcBase, n),
                    scalarOp(regions_.shift[h] +
                             static_cast<std::uint32_t>(
                                 offTap +
                                 static_cast<std::int32_t>(radius_)))));
            }

            // ---- sharpening (Eq. 8) ----
            Instruction pw = makeInst(
                Opcode::SfuPow,
                isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                headScalar(h, kSlotGamma));
            prog.append(pw);
            prog.append(makeInst(
                Opcode::SfuAccSum, headScalar(h, kSlotSum),
                isa::makeOperand(Space::VecBuf, regions_.tmpN2, n)));
        } else {
            prog.append(makeInst(Opcode::Fill,
                                 headScalar(h, kSlotSum)));
        }
        prog.append(makeInst(Opcode::Reduce, Operand{},
                             headScalar(h, kSlotSum)));
        prog.append(
            makeInst(Opcode::Broadcast, headScalar(h, kSlotSum)));
        prog.append(makeInst(Opcode::SfuRecip,
                             headScalar(h, kSlotRecip),
                             headScalar(h, kSlotSum)));
        if (n > 0) {
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf, regions_.wCur[h], n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
                headScalar(h, kSlotRecip)));
            // Persist w for the next step's interpolation.
            prog.append(makeInst(
                Opcode::EwAddImm,
                isa::makeOperand(Space::VecBuf, regions_.wPrev[h], n),
                isa::makeOperand(Space::VecBuf, regions_.wCur[h],
                                 n)));
        }
    }
    return prog;
}

Program
Generator::emitSoftRead(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    const KernelMapping &km =
        mapping_.forKernel(mann::Kernel::SoftRead);

    for (std::size_t h = 0; h < mc_.numReadHeads; ++h)
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::MatBuf, regions_.readPartial[h],
                             memM_)));

    if (n > 0) {
        // The block-loop ordering comes from the mapping phase:
        // output stationary keeps a column group's partials resident
        // while row blocks stream (outer loop over columns).
        const bool outerRows =
            km.blockLoop == LoopOrder::InputStationary;
        emitBlockedSweep(
            prog, n, memM_, km.blockN, km.blockM, outerRows,
            [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                std::uint32_t colsB) {
                Instruction load = makeInst(
                    Opcode::DmaLoadM,
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * colsB),
                    mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                       static_cast<std::int64_t>(km.blockN) * memM_,
                       km.blockM));
                load.srcB.base = memM_;
                load.count = rowsB;
                p.append(load);

                for (std::size_t h = 0; h < mc_.numReadHeads; ++h) {
                    p.append(makeInst(
                        Opcode::DmaLoadV,
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, rowsB),
                        mk(Space::VecBuf, regions_.wCur[h], rowsB, c,
                           km.blockN, 0)));
                    Instruction vmm = makeInst(
                        Opcode::Vmm,
                        mk(Space::MatBuf, regions_.readPartial[h],
                           colsB, c, 0, km.blockM),
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, rowsB),
                        isa::makeOperand(Space::MatSpad, 0,
                                         rowsB * colsB));
                    vmm.flags.accumulate = true;
                    vmm.flags.reuseB = h > 0;
                    p.append(vmm);
                }
            });
    }

    // Final read vectors reduce to the Controller tile at the root.
    for (std::size_t h = 0; h < mc_.numReadHeads; ++h) {
        Instruction red = makeInst(
            Opcode::Reduce, Operand{},
            isa::makeOperand(Space::MatBuf, regions_.readPartial[h],
                             memM_));
        red.count = packCommTag(CommTag::ReadVectorOut,
                                static_cast<std::uint32_t>(h));
        prog.append(red);
    }
    return prog;
}

Program
Generator::emitSoftWrite(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return prog;
    const KernelMapping &km =
        mapping_.forKernel(mann::Kernel::SoftWrite);

    for (std::size_t hw = 0; hw < mc_.numWriteHeads; ++hw) {
        const std::size_t h = mc_.numReadHeads + hw;
        emitBlockedSweep(
            prog, n, memM_, km.blockN, km.blockM, /*outerRows=*/true,
            [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                std::uint32_t colsB) {
                Instruction load = makeInst(
                    Opcode::DmaLoadM,
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * colsB),
                    mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                       static_cast<std::int64_t>(km.blockN) * memM_,
                       km.blockM));
                load.srcB.base = memM_;
                load.count = rowsB;
                p.append(load);

                // Per-row update: M(i) = M(i)*(1 - w(i)*e) + w(i)*a.
                p.beginLoop(rowsB);
                SweepCtx rc = c;
                rc.rowLevel = rc.depth++;
                const Operand rowOp =
                    mk(Space::MatSpad, 0, colsB, rc, 0, 0, colsB);
                const Operand stage = isa::makeOperand(
                    Space::VecSpad, regions_.stageRow, colsB);
                const Operand wScalar =
                    mk(Space::VecBuf, regions_.wCur[h], 1, rc,
                       km.blockN, 0, 1);
                p.append(makeInst(
                    Opcode::EwMul, stage,
                    mk(Space::MatBuf, regions_.erase[hw], colsB, rc,
                       0, km.blockM),
                    wScalar));
                p.append(makeInst(Opcode::EwRsubImm, stage, stage,
                                  Operand{}, 1.0f));
                p.append(makeInst(Opcode::EwMul, rowOp, rowOp,
                                  stage));
                p.append(makeInst(
                    Opcode::EwMac, rowOp,
                    mk(Space::MatBuf, regions_.addv[hw], colsB, rc, 0,
                       km.blockM),
                    wScalar));
                p.endLoop();

                Instruction store = makeInst(
                    Opcode::DmaStoreM,
                    mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                       static_cast<std::int64_t>(km.blockN) * memM_,
                       km.blockM),
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * colsB));
                store.srcB.base = memM_;
                store.count = rowsB;
                p.append(store);
            });
    }
    return prog;
}

void
Generator::checkCapacity(CompiledModel &model) const
{
    const std::size_t matBufCap = ac_.matrixBufferBytes / kWordBytes;
    const std::size_t vecBufCap = ac_.vectorBufferBytes / kWordBytes;
    if (regions_.matBufWords > matBufCap) {
        model.warnings.push_back(strformat(
            "Matrix-Buffer layout needs %zu words but capacity is %zu "
            "(%.1fx over); modelling as if capacity were sufficient",
            static_cast<std::size_t>(regions_.matBufWords), matBufCap,
            static_cast<double>(regions_.matBufWords) /
                static_cast<double>(matBufCap)));
    }
    if (regions_.vecBufWords > vecBufCap) {
        model.warnings.push_back(strformat(
            "Vector-Buffer layout needs %zu words but capacity is %zu",
            static_cast<std::size_t>(regions_.vecBufWords), vecBufCap));
    }
    const std::size_t maxLen = model.maxProgramLength();
    if (maxLen > ac_.instMemEntries) {
        model.warnings.push_back(strformat(
            "largest tile program (%zu instructions) exceeds the "
            "instruction memory (%zu entries)",
            maxLen, ac_.instMemEntries));
    }
    if (ac_.strictCapacity && !model.warnings.empty())
        throw AssemblyError(
            strformat("capacity violation: %s",
                      model.warnings[0].c_str()),
            ErrorContext{ac_.fingerprint(), ""});
}

CompiledModel
Generator::generate()
{
    CompiledModel model;
    model.mannCfg = mc_;
    model.archCfg = ac_;
    model.mapping = mapping_;

    // Guard configurations the distribution cannot express. These are
    // structural (shape x microarchitecture) rejections, so they throw
    // AssemblyError and the sweep isolates the offending point.
    for (std::size_t t = 0; t < tiles_; ++t) {
        if (memRows_[t] > 0 && memRows_[t] < radius_)
            throw AssemblyError(
                strformat("tile %zu holds %u memory rows, below the "
                          "shift radius %u; reduce the tile count",
                          t, memRows_[t], radius_),
                ErrorContext{ac_.fingerprint(), ""});
    }
    if (mc_.memN < tiles_)
        throw AssemblyError(
            strformat("more tiles (%zu) than memory rows (%zu) is "
                      "unsupported",
                      tiles_, mc_.memN),
            ErrorContext{ac_.fingerprint(), ""});

    auto makeSegment = [&](mann::KernelGroup group, const char *name,
                           Program (Generator::*emit)(std::size_t)
                               const) {
        CompiledSegment seg;
        seg.group = group;
        seg.name = name;
        for (std::size_t t = 0; t < tiles_; ++t) {
            Program p = (this->*emit)(t);
            const std::string err = p.validate();
            if (!err.empty())
                throw AssemblyError(
                    strformat("segment %s tile %zu: %s", name, t,
                              err.c_str()),
                    ErrorContext{ac_.fingerprint(), ""});
            seg.tilePrograms.push_back(std::move(p));
        }
        model.stepSegments.push_back(std::move(seg));
    };

    makeSegment(mann::KernelGroup::Heads, "heads",
                &Generator::emitHeads);
    makeSegment(mann::KernelGroup::KeySimilarity, "key-similarity",
                &Generator::emitKeySimilarity);
    makeSegment(mann::KernelGroup::Addressing, "addressing",
                &Generator::emitAddressing);
    makeSegment(mann::KernelGroup::SoftRead, "soft-read",
                &Generator::emitSoftRead);
    makeSegment(mann::KernelGroup::SoftWrite, "soft-write",
                &Generator::emitSoftWrite);

    // Chip-facing layout.
    ChipLayout &layout = model.layout;
    layout.memory.base = regions_.mem;
    layout.memory.cols = memM_;
    layout.memory.rowCount = memRows_;
    layout.memory.rowStart = memStarts_;
    for (std::size_t h = 0; h < numHeads_; ++h) {
        RowPartition part;
        part.base = regions_.headW[h];
        part.cols = headCols();
        part.rowCount = headRows_[h];
        part.rowStart = headStarts_[h];
        layout.headWeights.push_back(std::move(part));
        layout.wPrevBase.push_back(regions_.wPrev[h]);
    }
    layout.matBufWords = regions_.matBufWords;
    layout.matSpadWords = ac_.matrixScratchpadBytes / kWordBytes;
    layout.vecBufWords = regions_.vecBufWords;
    layout.vecSpadWords = std::max<std::size_t>(
        regions_.vecSpadWords, ac_.vectorScratchpadBytes / kWordBytes);

    checkCapacity(model);
    return model;
}

} // namespace

CompiledModel
generateCode(const mann::MannConfig &mann,
             const arch::MannaConfig &arch, const Mapping &mapping)
{
    Generator gen(mann, arch, mapping);
    return gen.generate();
}

} // namespace manna::compiler
