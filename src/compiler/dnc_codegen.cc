#include "dnc_codegen.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "compiler/codegen_util.hh"
#include "compiler/mapping.hh"

namespace manna::compiler
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::Program;
using isa::ReduceOp;
using isa::Space;

std::size_t
CompiledDnc::maxProgramLength() const
{
    return compiler::maxProgramLength(stepSegments);
}

std::string
CompiledDnc::disassembleTile(std::size_t tile) const
{
    return compiler::disassembleTile(stepSegments, tile);
}

namespace
{

/** Scalar slots for each read head's VecBuf scalar block. */
enum ReadSlot : std::uint32_t
{
    kRStrength = 0,
    kRFreeGate = 1,
    kRModes = 2, // 3 consecutive slots: backward, content, forward
    kRKeyNorm = 5,
    kRMax = 6,
    kRSum = 7,
    kRRecip = 8,
    kRTmp = 9,
    kReadSlots = 12,
};

/** Scalar slots for the write block. */
enum WriteSlot : std::uint32_t
{
    kWStrength = 0,
    kWAllocGate = 1,
    kWOneMinusAllocGate = 2,
    kWWriteGate = 3,
    kWKeyNorm = 4,
    kWMax = 5,
    kWSum = 6,
    kWRecip = 7,
    kWTmp = 8,
    kWSumW = 9,
    kWOneMinusSumW = 10,
    kWriteSlots = 16,
};

struct DncRegions
{
    // MatBuf.
    std::uint32_t mem = 0;
    std::uint32_t link = 0;
    std::uint32_t ifaceW = 0;
    std::uint32_t raw = 0;
    std::vector<std::uint32_t> readKey;
    std::uint32_t writeKey = 0;
    std::uint32_t eraseV = 0;
    std::uint32_t writeV = 0;
    std::vector<std::uint32_t> readPartial;
    std::uint32_t tmpM = 0;
    std::uint32_t matBufWords = 0;

    // VecBuf.
    std::uint32_t hidden = 0;
    std::vector<std::uint32_t> readScalars;
    std::uint32_t writeScalars = 0;
    std::uint32_t usage = 0;
    std::uint32_t psi = 0;
    std::uint32_t tmpN = 0;
    std::uint32_t tmpN2 = 0;
    std::uint32_t allocLocal = 0;
    std::uint32_t contentW = 0;
    std::uint32_t writeW = 0;
    std::uint32_t fwdLocal = 0;
    std::vector<std::uint32_t> wReadLocal;
    std::vector<std::uint32_t> simDots; // Hr read keys + write key
    std::uint32_t simNorms = 0;
    std::uint32_t wFull = 0;
    std::uint32_t omw = 0;
    std::uint32_t precedence = 0;
    std::uint32_t bwdPartial = 0;
    std::uint32_t usageFull = 0;
    std::vector<std::uint32_t> wPrevReadFull;
    std::uint32_t vecBufWords = 0;

    // VecSpad.
    std::uint32_t stageVec = 0;
    std::uint32_t stageRow = 0;
    std::uint32_t vecSpadWords = 0;
};

class DncGenerator
{
  public:
    DncGenerator(const mann::DncConfig &dc,
                 const arch::MannaConfig &ac)
        : dc_(dc), ac_(ac), tiles_(ac.numTiles),
          n_(static_cast<std::uint32_t>(dc.memN)),
          m_(static_cast<std::uint32_t>(dc.memM)),
          hr_(dc.numReadHeads),
          hcols_(static_cast<std::uint32_t>(dc.hiddenDim()) + 1),
          ifaceDim_(static_cast<std::uint32_t>(dc.interfaceDim())),
          blockM_(static_cast<std::uint32_t>(
              ac.matrixBufferWidthWords))
    {
        memRows_ = partitionRows(n_, tiles_);
        memStarts_ = startsOf(memRows_);
        nLocalMax_ = memRows_[0];
        ifaceRows_ = partitionRows(ifaceDim_, tiles_);
        ifaceStarts_ = startsOf(ifaceRows_);
        computeLayout();
    }

    CompiledDnc generate();

  private:
    std::uint32_t nLocal(std::size_t tile) const
    {
        return memRows_[tile];
    }
    std::uint32_t blockNPadded(std::uint32_t rows) const
    {
        return chooseBlockN(ac_, rows, true);
    }
    std::uint32_t blockNPlain(std::uint32_t rows) const
    {
        return chooseBlockN(ac_, rows, false);
    }
    static Operand scalar(std::uint32_t addr)
    {
        return isa::makeOperand(Space::VecBuf, addr, 1);
    }
    Operand rScalar(std::size_t h, std::uint32_t slot) const
    {
        return scalar(regions_.readScalars[h] + slot);
    }
    Operand wScalar(std::uint32_t slot) const
    {
        return scalar(regions_.writeScalars + slot);
    }

    void computeLayout();

    // Reusable routine emitters.
    void emitScalarReduceBroadcast(Program &prog, Operand slot,
                                   ReduceOp op) const;
    void emitVectorAssembly(Program &prog, std::size_t tile,
                            std::uint32_t localBase,
                            std::uint32_t fullBase,
                            std::uint32_t reduceTag = 0) const;
    void emitContentSoftmax(Program &prog, std::size_t tile,
                            std::uint32_t simBase,
                            std::uint32_t scalarsBase,
                            std::uint32_t strengthSlot,
                            std::uint32_t maxSlot,
                            std::uint32_t sumSlot,
                            std::uint32_t recipSlot,
                            std::uint32_t dstBase) const;
    void emitMemKeySweep(Program &prog, std::size_t tile,
                         const std::vector<std::uint32_t> &keys,
                         const std::vector<std::uint32_t> &dots,
                         const std::vector<std::uint32_t> &normSlots)
        const;

    // Segment emitters.
    Program emitInterface(std::size_t tile) const;
    Program emitUsageAllocation(std::size_t tile) const;
    Program emitWriteContent(std::size_t tile) const;
    Program emitWriteAddressing(std::size_t tile) const;
    Program emitSoftWrite(std::size_t tile) const;
    Program emitLinkage(std::size_t tile) const;
    Program emitReadContent(std::size_t tile) const;
    Program emitReadAddressing(std::size_t tile) const;
    Program emitSoftRead(std::size_t tile) const;

    const mann::DncConfig &dc_;
    const arch::MannaConfig &ac_;
    std::size_t tiles_;
    std::uint32_t n_, m_;
    std::size_t hr_;
    std::uint32_t hcols_;
    std::uint32_t ifaceDim_;
    std::uint32_t blockM_;

    std::vector<std::uint32_t> memRows_, memStarts_;
    std::vector<std::uint32_t> ifaceRows_, ifaceStarts_;
    std::uint32_t nLocalMax_ = 0;

    DncRegions regions_;
};

void
DncGenerator::computeLayout()
{
    std::uint32_t cursor = 0;
    auto alloc = [&cursor](std::uint32_t words) {
        const std::uint32_t at = cursor;
        cursor += words;
        return at;
    };

    // MatBuf.
    regions_.mem = alloc(nLocalMax_ * m_);
    regions_.link = alloc(nLocalMax_ * n_);
    regions_.ifaceW = alloc(ifaceRows_[0] * hcols_);
    regions_.raw = alloc(ifaceDim_);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.readKey.push_back(alloc(m_));
    regions_.writeKey = alloc(m_);
    regions_.eraseV = alloc(m_);
    regions_.writeV = alloc(m_);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.readPartial.push_back(alloc(m_));
    regions_.tmpM = alloc(m_);
    regions_.matBufWords = cursor;

    // VecBuf.
    cursor = 0;
    regions_.hidden = alloc(hcols_);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.readScalars.push_back(alloc(kReadSlots));
    regions_.writeScalars = alloc(kWriteSlots);
    regions_.usage = alloc(nLocalMax_);
    regions_.psi = alloc(nLocalMax_);
    regions_.tmpN = alloc(nLocalMax_);
    regions_.tmpN2 = alloc(nLocalMax_);
    regions_.allocLocal = alloc(nLocalMax_);
    regions_.contentW = alloc(nLocalMax_);
    regions_.writeW = alloc(nLocalMax_);
    regions_.fwdLocal = alloc(nLocalMax_);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.wReadLocal.push_back(alloc(nLocalMax_));
    for (std::size_t k = 0; k <= hr_; ++k)
        regions_.simDots.push_back(alloc(nLocalMax_));
    regions_.simNorms = alloc(nLocalMax_);
    regions_.wFull = alloc(n_);
    regions_.omw = alloc(n_);
    regions_.precedence = alloc(n_);
    regions_.bwdPartial = alloc(n_);
    regions_.usageFull = alloc(n_);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.wPrevReadFull.push_back(alloc(n_));
    regions_.vecBufWords = cursor;

    // VecSpad.
    cursor = 0;
    regions_.stageVec = alloc(std::max<std::uint32_t>(
        blockM_, blockNPlain(std::max(nLocalMax_, 1u))));
    regions_.stageRow = alloc(blockM_);
    regions_.vecSpadWords = cursor;
}

void
DncGenerator::emitScalarReduceBroadcast(Program &prog, Operand slot,
                                        ReduceOp op) const
{
    Instruction red = makeInst(Opcode::Reduce, Operand{}, slot);
    red.flags.reduceOp = op;
    prog.append(red);
    prog.append(makeInst(Opcode::Broadcast, slot));
}

/** Scatter a local slice into a zeroed full-length vector, reduce,
 * and broadcast the combined vector back into `fullBase`. */
void
DncGenerator::emitVectorAssembly(Program &prog, std::size_t tile,
                                 std::uint32_t localBase,
                                 std::uint32_t fullBase,
                                 std::uint32_t reduceTag) const
{
    const std::uint32_t n = nLocal(tile);
    prog.append(makeInst(
        Opcode::Fill, isa::makeOperand(Space::VecBuf, fullBase, n_)));
    if (n > 0) {
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::VecBuf,
                             fullBase + memStarts_[tile], n),
            isa::makeOperand(Space::VecBuf, localBase, n)));
    }
    Instruction red = makeInst(
        Opcode::Reduce, Operand{},
        isa::makeOperand(Space::VecBuf, fullBase, n_));
    red.count = reduceTag;
    prog.append(red);
    prog.append(makeInst(
        Opcode::Broadcast,
        isa::makeOperand(Space::VecBuf, fullBase, n_)));
}

/** Numerically-stable softmax with inverse temperature over the
 * distributed similarity vector (the NTM content-weighting pipeline):
 * dst = softmax(strength * sim). */
void
DncGenerator::emitContentSoftmax(
    Program &prog, std::size_t tile, std::uint32_t simBase,
    std::uint32_t scalarsBase, std::uint32_t strengthSlot,
    std::uint32_t maxSlot, std::uint32_t sumSlot,
    std::uint32_t recipSlot, std::uint32_t dstBase) const
{
    const std::uint32_t n = nLocal(tile);
    const auto tmpN = isa::makeOperand(Space::VecBuf, regions_.tmpN,
                                       std::max(n, 1u));
    if (n > 0) {
        prog.append(makeInst(
            Opcode::EwMul, tmpN,
            isa::makeOperand(Space::VecBuf, simBase, n),
            scalar(scalarsBase + strengthSlot)));
        prog.append(makeInst(Opcode::SfuAccMax,
                             scalar(scalarsBase + maxSlot), tmpN));
    } else {
        prog.append(makeInst(Opcode::Fill,
                             scalar(scalarsBase + maxSlot), Operand{},
                             Operand{}, -3.0e38f));
    }
    emitScalarReduceBroadcast(prog, scalar(scalarsBase + maxSlot),
                              ReduceOp::Max);
    if (n > 0) {
        prog.append(makeInst(Opcode::EwSub, tmpN, tmpN,
                             scalar(scalarsBase + maxSlot)));
        prog.append(makeInst(Opcode::SfuExp, tmpN, tmpN));
        prog.append(makeInst(Opcode::SfuAccSum,
                             scalar(scalarsBase + sumSlot), tmpN));
    } else {
        prog.append(makeInst(Opcode::Fill,
                             scalar(scalarsBase + sumSlot)));
    }
    emitScalarReduceBroadcast(prog, scalar(scalarsBase + sumSlot),
                              ReduceOp::Sum);
    prog.append(makeInst(Opcode::SfuRecip,
                         scalar(scalarsBase + recipSlot),
                         scalar(scalarsBase + sumSlot)));
    if (n > 0) {
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, dstBase, n), tmpN,
            scalar(scalarsBase + recipSlot)));
    }
}

/** Streaming DMAT sweep over the local memory slice computing
 * per-row dots for a set of keys (scratchpad blocks reused across
 * keys) and, alongside the first key, the row norms; then the cosine
 * normalization into the same dot vectors. */
void
DncGenerator::emitMemKeySweep(
    Program &prog, std::size_t tile,
    const std::vector<std::uint32_t> &keys,
    const std::vector<std::uint32_t> &dots,
    const std::vector<std::uint32_t> &normSlots) const
{
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return;
    MANNA_ASSERT(keys.size() == dots.size() &&
                     keys.size() == normSlots.size() && !keys.empty(),
                 "key/dot/slot mismatch");
    const bool skew = ac_.hasDmat;
    const std::uint32_t bN = blockNPadded(n);

    // Key norms (replicated): keyNorm = sqrt(sum(key^2)).
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const std::uint32_t normSlot = normSlots[k];
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::MatBuf, regions_.tmpM, m_),
            isa::makeOperand(Space::MatBuf, keys[k], m_),
            isa::makeOperand(Space::MatBuf, keys[k], m_)));
        prog.append(makeInst(
            Opcode::SfuAccSum, scalar(normSlot),
            isa::makeOperand(Space::MatBuf, regions_.tmpM, m_)));
        prog.append(makeInst(Opcode::SfuSqrt, scalar(normSlot),
                             scalar(normSlot)));
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::VecBuf, dots[k], n)));
    }
    prog.append(makeInst(
        Opcode::Fill,
        isa::makeOperand(Space::VecBuf, regions_.simNorms, n)));

    emitBlockedSweep(
        prog, n, m_, bN, blockM_, /*outerRows=*/true,
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            Instruction load = makeInst(
                skew ? Opcode::DmatLoadM : Opcode::DmaLoadM,
                isa::makeOperand(Space::MatSpad, 0,
                                 rowsB * (colsB + (skew ? 1 : 0))),
                mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                   static_cast<std::int64_t>(bN) * m_, blockM_));
            load.srcB.base = m_;
            load.count = rowsB;
            p.append(load);
            for (std::size_t k = 0; k < keys.size(); ++k) {
                p.append(makeInst(
                    Opcode::DmaLoadV,
                    isa::makeOperand(Space::VecSpad,
                                     regions_.stageVec, colsB),
                    mk(Space::MatBuf, keys[k], colsB, c, 0,
                       blockM_)));
                Instruction vmm = makeInst(
                    Opcode::Vmm,
                    mk(Space::VecBuf, dots[k], rowsB, c, bN, 0),
                    isa::makeOperand(Space::VecSpad,
                                     regions_.stageVec, colsB),
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * (colsB + (skew ? 1 : 0))));
                vmm.flags.rowDot = true;
                vmm.flags.accumulate = true;
                vmm.flags.skewed = skew;
                vmm.flags.reuseB = k > 0;
                if (k == 0) {
                    vmm.flags.withNorms = true;
                    vmm.count = regions_.simNorms - dots[0];
                }
                p.append(vmm);
            }
        });

    // Cosine normalization: sim = dot / (keyNorm * rowNorm + eps).
    prog.append(makeInst(
        Opcode::SfuSqrt,
        isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
        isa::makeOperand(Space::VecBuf, regions_.simNorms, n)));
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const std::uint32_t normSlot = normSlots[k];
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
            scalar(normSlot)));
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            Operand{}, dc_.similarityEpsilon));
        prog.append(makeInst(
            Opcode::SfuRecip,
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n)));
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, dots[k], n),
            isa::makeOperand(Space::VecBuf, dots[k], n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN2, n)));
    }
}

Program
DncGenerator::emitInterface(std::size_t tile) const
{
    Program prog;

    // Hidden state (with the constant-one bias lane) from the root.
    {
        Instruction bc = makeInst(
            Opcode::Broadcast,
            isa::makeOperand(Space::VecBuf, regions_.hidden, hcols_));
        bc.count = packCommTag(CommTag::HiddenIn);
        prog.append(bc);
    }

    // Interface projection: row slice of W_iface, row-dot.
    prog.append(makeInst(
        Opcode::Fill,
        isa::makeOperand(Space::MatBuf, regions_.raw, ifaceDim_)));
    const std::uint32_t rowsT = ifaceRows_[tile];
    if (rowsT > 0) {
        const bool skew = ac_.hasDmat;
        const std::uint32_t bN = blockNPadded(rowsT);
        const std::uint32_t rowStart = ifaceStarts_[tile];
        emitBlockedSweep(
            prog, rowsT, hcols_, bN, blockM_, true,
            [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                std::uint32_t colsB) {
                Instruction load = makeInst(
                    skew ? Opcode::DmatLoadM : Opcode::DmaLoadM,
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * (colsB + (skew ? 1 : 0))),
                    mk(Space::MatBuf, regions_.ifaceW, rowsB * colsB,
                       c, static_cast<std::int64_t>(bN) * hcols_,
                       blockM_));
                load.srcB.base = hcols_;
                load.count = rowsB;
                p.append(load);
                p.append(makeInst(
                    Opcode::DmaLoadV,
                    isa::makeOperand(Space::VecSpad,
                                     regions_.stageVec, colsB),
                    mk(Space::VecBuf, regions_.hidden, colsB, c, 0,
                       blockM_)));
                Instruction vmm = makeInst(
                    Opcode::Vmm,
                    mk(Space::MatBuf, regions_.raw + rowStart, rowsB,
                       c, bN, 0),
                    isa::makeOperand(Space::VecSpad,
                                     regions_.stageVec, colsB),
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * (colsB + (skew ? 1 : 0))));
                vmm.flags.rowDot = true;
                vmm.flags.accumulate = true;
                vmm.flags.skewed = skew;
                p.append(vmm);
            });
    }
    prog.append(makeInst(
        Opcode::Reduce, Operand{},
        isa::makeOperand(Space::MatBuf, regions_.raw, ifaceDim_)));
    prog.append(makeInst(
        Opcode::Broadcast,
        isa::makeOperand(Space::MatBuf, regions_.raw, ifaceDim_)));

    // Decode (replicated), matching mann::Dnc exactly.
    auto rawAt = [&](std::uint32_t off, std::uint32_t len) {
        return isa::makeOperand(Space::MatBuf, regions_.raw + off,
                                len);
    };
    std::uint32_t off = 0;
    for (std::size_t h = 0; h < hr_; ++h) {
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::MatBuf, regions_.readKey[h], m_),
            rawAt(off, m_)));
        off += m_;
        // strength = oneplus(raw).
        prog.append(makeInst(Opcode::SfuSoftplus,
                             rScalar(h, kRStrength), rawAt(off, 1)));
        prog.append(makeInst(Opcode::EwAddImm, rScalar(h, kRStrength),
                             rScalar(h, kRStrength), Operand{}, 1.0f));
        ++off;
        prog.append(makeInst(Opcode::SfuSigmoid,
                             rScalar(h, kRFreeGate), rawAt(off, 1)));
        ++off;
        // modes = softmax over 3 taps (stable).
        const Operand modes = isa::makeOperand(
            Space::VecBuf, regions_.readScalars[h] + kRModes, 3);
        prog.append(makeInst(Opcode::SfuAccMax, rScalar(h, kRTmp),
                             rawAt(off, 3)));
        prog.append(makeInst(Opcode::EwSub, modes, rawAt(off, 3),
                             rScalar(h, kRTmp)));
        prog.append(makeInst(Opcode::SfuExp, modes, modes));
        prog.append(makeInst(Opcode::SfuAccSum, rScalar(h, kRSum),
                             modes));
        prog.append(makeInst(Opcode::SfuRecip, rScalar(h, kRRecip),
                             rScalar(h, kRSum)));
        prog.append(makeInst(Opcode::EwMul, modes, modes,
                             rScalar(h, kRRecip)));
        off += 3;
    }
    prog.append(makeInst(
        Opcode::EwAddImm,
        isa::makeOperand(Space::MatBuf, regions_.writeKey, m_),
        rawAt(off, m_)));
    off += m_;
    prog.append(makeInst(Opcode::SfuSoftplus, wScalar(kWStrength),
                         rawAt(off, 1)));
    prog.append(makeInst(Opcode::EwAddImm, wScalar(kWStrength),
                         wScalar(kWStrength), Operand{}, 1.0f));
    ++off;
    prog.append(makeInst(
        Opcode::SfuSigmoid,
        isa::makeOperand(Space::MatBuf, regions_.eraseV, m_),
        rawAt(off, m_)));
    off += m_;
    prog.append(makeInst(
        Opcode::SfuTanh,
        isa::makeOperand(Space::MatBuf, regions_.writeV, m_),
        rawAt(off, m_)));
    off += m_;
    prog.append(makeInst(Opcode::SfuSigmoid, wScalar(kWAllocGate),
                         rawAt(off, 1)));
    prog.append(makeInst(Opcode::EwRsubImm,
                         wScalar(kWOneMinusAllocGate),
                         wScalar(kWAllocGate), Operand{}, 1.0f));
    ++off;
    prog.append(makeInst(Opcode::SfuSigmoid, wScalar(kWWriteGate),
                         rawAt(off, 1)));
    ++off;
    MANNA_ASSERT(off == ifaceDim_, "DNC decode consumed %u of %u", off,
                 ifaceDim_);
    return prog;
}

Program
DncGenerator::emitUsageAllocation(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);

    if (n > 0) {
        // psi = prod_h (1 - freeGate_h * wPrevRead_h) over the local
        // slice (wReadLocal holds the previous step's weights here).
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::VecBuf, regions_.psi, n),
            Operand{}, Operand{}, 1.0f));
        for (std::size_t h = 0; h < hr_; ++h) {
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                isa::makeOperand(Space::VecBuf,
                                 regions_.wReadLocal[h], n),
                rScalar(h, kRFreeGate)));
            prog.append(makeInst(
                Opcode::EwRsubImm,
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
                Operand{}, 1.0f));
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf, regions_.psi, n),
                isa::makeOperand(Space::VecBuf, regions_.psi, n),
                isa::makeOperand(Space::VecBuf, regions_.tmpN, n)));
        }
        // u = (u + w - u o w) o psi, with w = previous write weights.
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.tmpN, n),
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.writeW, n)));
        prog.append(makeInst(
            Opcode::EwAdd,
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.writeW, n)));
        prog.append(makeInst(
            Opcode::EwSub,
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.tmpN, n)));
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.usage, n),
            isa::makeOperand(Space::VecBuf, regions_.psi, n)));
    }

    // Assemble usage at the root; the Controller tile applies the
    // free-list scan and the broadcast returns the allocation.
    emitVectorAssembly(prog, tile, regions_.usage, regions_.usageFull,
                       packCommTag(CommTag::UsageToAllocation));
    if (n > 0) {
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::VecBuf, regions_.allocLocal, n),
            isa::makeOperand(Space::VecBuf,
                             regions_.usageFull + memStarts_[tile],
                             n)));
    }
    return prog;
}

Program
DncGenerator::emitWriteContent(std::size_t tile) const
{
    Program prog;
    emitMemKeySweep(prog, tile, {regions_.writeKey},
                    {regions_.simDots[hr_]},
                    {regions_.writeScalars + kWKeyNorm});
    return prog;
}

Program
DncGenerator::emitWriteAddressing(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);

    emitContentSoftmax(prog, tile, regions_.simDots[hr_],
                       regions_.writeScalars, kWStrength, kWMax,
                       kWSum, kWRecip, regions_.contentW);
    if (n > 0) {
        // writeW = writeGate * (allocGate*alloc + (1-allocGate)*content)
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.writeW, n),
            isa::makeOperand(Space::VecBuf, regions_.allocLocal, n),
            wScalar(kWAllocGate)));
        prog.append(makeInst(
            Opcode::EwMac,
            isa::makeOperand(Space::VecBuf, regions_.writeW, n),
            isa::makeOperand(Space::VecBuf, regions_.contentW, n),
            wScalar(kWOneMinusAllocGate)));
        prog.append(makeInst(
            Opcode::EwMul,
            isa::makeOperand(Space::VecBuf, regions_.writeW, n),
            isa::makeOperand(Space::VecBuf, regions_.writeW, n),
            wScalar(kWWriteGate)));
        prog.append(makeInst(
            Opcode::SfuAccSum, wScalar(kWSumW),
            isa::makeOperand(Space::VecBuf, regions_.writeW, n)));
    } else {
        prog.append(makeInst(Opcode::Fill, wScalar(kWSumW)));
    }
    emitScalarReduceBroadcast(prog, wScalar(kWSumW), ReduceOp::Sum);
    prog.append(makeInst(Opcode::EwRsubImm, wScalar(kWOneMinusSumW),
                         wScalar(kWSumW), Operand{}, 1.0f));

    // Full write weights on every tile (for the link update).
    emitVectorAssembly(prog, tile, regions_.writeW, regions_.wFull);
    return prog;
}

Program
DncGenerator::emitSoftWrite(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return prog;
    const std::uint32_t bN = blockNPlain(n);

    emitBlockedSweep(
        prog, n, m_, bN, blockM_, true,
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            Instruction load = makeInst(
                Opcode::DmaLoadM,
                isa::makeOperand(Space::MatSpad, 0, rowsB * colsB),
                mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                   static_cast<std::int64_t>(bN) * m_, blockM_));
            load.srcB.base = m_;
            load.count = rowsB;
            p.append(load);

            p.beginLoop(rowsB);
            SweepCtx rc = c;
            rc.rowLevel = rc.depth++;
            const Operand rowOp =
                mk(Space::MatSpad, 0, colsB, rc, 0, 0, colsB);
            const Operand stage = isa::makeOperand(
                Space::VecSpad, regions_.stageRow, colsB);
            const Operand wRow =
                mk(Space::VecBuf, regions_.writeW, 1, rc, bN, 0, 1);
            p.append(makeInst(
                Opcode::EwMul, stage,
                mk(Space::MatBuf, regions_.eraseV, colsB, rc, 0,
                   blockM_),
                wRow));
            p.append(makeInst(Opcode::EwRsubImm, stage, stage,
                              Operand{}, 1.0f));
            p.append(makeInst(Opcode::EwMul, rowOp, rowOp, stage));
            p.append(makeInst(
                Opcode::EwMac, rowOp,
                mk(Space::MatBuf, regions_.writeV, colsB, rc, 0,
                   blockM_),
                wRow));
            p.endLoop();

            Instruction store = makeInst(
                Opcode::DmaStoreM,
                mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                   static_cast<std::int64_t>(bN) * m_, blockM_),
                isa::makeOperand(Space::MatSpad, 0, rowsB * colsB));
            store.srcB.base = m_;
            store.count = rowsB;
            p.append(store);
        });
    return prog;
}

Program
DncGenerator::emitLinkage(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return prog; // no comm in this segment

    // omw = 1 - wFull (replicated full-length).
    prog.append(makeInst(
        Opcode::EwRsubImm,
        isa::makeOperand(Space::VecBuf, regions_.omw, n_),
        isa::makeOperand(Space::VecBuf, regions_.wFull, n_),
        Operand{}, 1.0f));

    // Link rows: L[i][j] = (omw[j] - w[i]) * L[i][j] + w[i] * p[j].
    const std::uint32_t bN = blockNPlain(n);
    const std::uint32_t rowStart = memStarts_[tile];
    emitBlockedSweep(
        prog, n, n_, bN, blockM_, true,
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            Instruction load = makeInst(
                Opcode::DmaLoadM,
                isa::makeOperand(Space::MatSpad, 0, rowsB * colsB),
                mk(Space::MatBuf, regions_.link, rowsB * colsB, c,
                   static_cast<std::int64_t>(bN) * n_, blockM_));
            load.srcB.base = n_;
            load.count = rowsB;
            p.append(load);

            p.beginLoop(rowsB);
            SweepCtx rc = c;
            rc.rowLevel = rc.depth++;
            const Operand rowOp =
                mk(Space::MatSpad, 0, colsB, rc, 0, 0, colsB);
            const Operand stage = isa::makeOperand(
                Space::VecSpad, regions_.stageRow, colsB);
            const Operand wRow =
                mk(Space::VecBuf, regions_.wFull + rowStart, 1, rc,
                   bN, 0, 1);
            p.append(makeInst(
                Opcode::EwSub, stage,
                mk(Space::VecBuf, regions_.omw, colsB, rc, 0,
                   blockM_),
                wRow));
            p.append(makeInst(Opcode::EwMul, rowOp, rowOp, stage));
            p.append(makeInst(
                Opcode::EwMac, rowOp,
                mk(Space::VecBuf, regions_.precedence, colsB, rc, 0,
                   blockM_),
                wRow));
            p.endLoop();

            Instruction store = makeInst(
                Opcode::DmaStoreM,
                mk(Space::MatBuf, regions_.link, rowsB * colsB, c,
                   static_cast<std::int64_t>(bN) * n_, blockM_),
                isa::makeOperand(Space::MatSpad, 0, rowsB * colsB));
            store.srcB.base = n_;
            store.count = rowsB;
            p.append(store);
        });

    // Zero the diagonal of the local rows: L[i][i] with global index
    // rowStart + r walks a stride of n_ + 1.
    prog.beginLoop(n);
    prog.append(makeInst(
        Opcode::Fill,
        isa::makeStridedOperand(Space::MatBuf,
                                regions_.link + rowStart, 1,
                                static_cast<std::int32_t>(n_ + 1))));
    prog.endLoop();

    // Precedence (replicated): p = (1 - sum(w)) p + wFull.
    prog.append(makeInst(
        Opcode::EwMul,
        isa::makeOperand(Space::VecBuf, regions_.precedence, n_),
        isa::makeOperand(Space::VecBuf, regions_.precedence, n_),
        wScalar(kWOneMinusSumW)));
    prog.append(makeInst(
        Opcode::EwAdd,
        isa::makeOperand(Space::VecBuf, regions_.precedence, n_),
        isa::makeOperand(Space::VecBuf, regions_.precedence, n_),
        isa::makeOperand(Space::VecBuf, regions_.wFull, n_)));
    return prog;
}

Program
DncGenerator::emitReadContent(std::size_t tile) const
{
    Program prog;
    std::vector<std::uint32_t> keys, dots, slots;
    for (std::size_t h = 0; h < hr_; ++h) {
        keys.push_back(regions_.readKey[h]);
        dots.push_back(regions_.simDots[h]);
        slots.push_back(regions_.readScalars[h] + kRKeyNorm);
    }
    emitMemKeySweep(prog, tile, keys, dots, slots);
    return prog;
}

Program
DncGenerator::emitReadAddressing(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    const std::uint32_t rowStart = memStarts_[tile];

    for (std::size_t h = 0; h < hr_; ++h) {
        // Content weighting over the *updated* memory.
        emitContentSoftmax(prog, tile, regions_.simDots[h],
                           regions_.readScalars[h], kRStrength, kRMax,
                           kRSum, kRRecip, regions_.contentW);

        const std::uint32_t modesBase =
            regions_.readScalars[h] + kRModes;
        if (n > 0) {
            // forward[i] = dot(L[i], wPrev_h) : row-dot sweep over
            // the local link rows (transposed access, DMAT).
            prog.append(makeInst(
                Opcode::Fill,
                isa::makeOperand(Space::VecBuf, regions_.fwdLocal,
                                 n)));
            const bool skew = ac_.hasDmat;
            const std::uint32_t bN = blockNPadded(n);
            emitBlockedSweep(
                prog, n, n_, bN, blockM_, true,
                [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                    std::uint32_t colsB) {
                    Instruction load = makeInst(
                        skew ? Opcode::DmatLoadM : Opcode::DmaLoadM,
                        isa::makeOperand(
                            Space::MatSpad, 0,
                            rowsB * (colsB + (skew ? 1 : 0))),
                        mk(Space::MatBuf, regions_.link,
                           rowsB * colsB, c,
                           static_cast<std::int64_t>(bN) * n_,
                           blockM_));
                    load.srcB.base = n_;
                    load.count = rowsB;
                    p.append(load);
                    p.append(makeInst(
                        Opcode::DmaLoadV,
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, colsB),
                        mk(Space::VecBuf, regions_.wPrevReadFull[h],
                           colsB, c, 0, blockM_)));
                    Instruction vmm = makeInst(
                        Opcode::Vmm,
                        mk(Space::VecBuf, regions_.fwdLocal, rowsB,
                           c, bN, 0),
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

        // backward = L^T wPrev: column accumulation over local rows
        // into a full-length partial, then reduce + broadcast.
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::VecBuf, regions_.bwdPartial,
                             n_)));
        if (n > 0) {
            const std::uint32_t bN = blockNPlain(n);
            emitBlockedSweep(
                prog, n, n_, bN, blockM_, /*outerRows=*/false,
                [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                    std::uint32_t colsB) {
                    Instruction load = makeInst(
                        Opcode::DmaLoadM,
                        isa::makeOperand(Space::MatSpad, 0,
                                         rowsB * colsB),
                        mk(Space::MatBuf, regions_.link,
                           rowsB * colsB, c,
                           static_cast<std::int64_t>(bN) * n_,
                           blockM_));
                    load.srcB.base = n_;
                    load.count = rowsB;
                    p.append(load);
                    p.append(makeInst(
                        Opcode::DmaLoadV,
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, rowsB),
                        mk(Space::VecBuf,
                           regions_.wPrevReadFull[h] + rowStart,
                           rowsB, c, bN, 0)));
                    Instruction vmm = makeInst(
                        Opcode::Vmm,
                        mk(Space::VecBuf, regions_.bwdPartial, colsB,
                           c, 0, blockM_),
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, rowsB),
                        isa::makeOperand(Space::MatSpad, 0,
                                         rowsB * colsB));
                    vmm.flags.accumulate = true;
                    p.append(vmm);
                });
        }
        prog.append(makeInst(
            Opcode::Reduce, Operand{},
            isa::makeOperand(Space::VecBuf, regions_.bwdPartial,
                             n_)));
        prog.append(makeInst(
            Opcode::Broadcast,
            isa::makeOperand(Space::VecBuf, regions_.bwdPartial,
                             n_)));

        if (n > 0) {
            // w = modes[backward]*bwd + modes[content]*content
            //   + modes[forward]*fwd, over the local slice.
            prog.append(makeInst(
                Opcode::EwMul,
                isa::makeOperand(Space::VecBuf,
                                 regions_.wReadLocal[h], n),
                isa::makeOperand(Space::VecBuf,
                                 regions_.bwdPartial + rowStart, n),
                scalar(modesBase + 0)));
            prog.append(makeInst(
                Opcode::EwMac,
                isa::makeOperand(Space::VecBuf,
                                 regions_.wReadLocal[h], n),
                isa::makeOperand(Space::VecBuf, regions_.contentW,
                                 n),
                scalar(modesBase + 1)));
            prog.append(makeInst(
                Opcode::EwMac,
                isa::makeOperand(Space::VecBuf,
                                 regions_.wReadLocal[h], n),
                isa::makeOperand(Space::VecBuf, regions_.fwdLocal,
                                 n),
                scalar(modesBase + 2)));
        }

        // Persist the full read weights for the next step's link
        // products.
        emitVectorAssembly(prog, tile, regions_.wReadLocal[h],
                           regions_.wPrevReadFull[h]);
    }
    return prog;
}

Program
DncGenerator::emitSoftRead(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);

    for (std::size_t h = 0; h < hr_; ++h)
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::MatBuf, regions_.readPartial[h],
                             m_)));
    if (n > 0) {
        const std::uint32_t bN = blockNPlain(n);
        emitBlockedSweep(
            prog, n, m_, bN, blockM_, true,
            [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
                std::uint32_t colsB) {
                Instruction load = makeInst(
                    Opcode::DmaLoadM,
                    isa::makeOperand(Space::MatSpad, 0,
                                     rowsB * colsB),
                    mk(Space::MatBuf, regions_.mem, rowsB * colsB, c,
                       static_cast<std::int64_t>(bN) * m_, blockM_));
                load.srcB.base = m_;
                load.count = rowsB;
                p.append(load);
                for (std::size_t h = 0; h < hr_; ++h) {
                    p.append(makeInst(
                        Opcode::DmaLoadV,
                        isa::makeOperand(Space::VecSpad,
                                         regions_.stageVec, rowsB),
                        mk(Space::VecBuf, regions_.wReadLocal[h],
                           rowsB, c, bN, 0)));
                    Instruction vmm = makeInst(
                        Opcode::Vmm,
                        mk(Space::MatBuf, regions_.readPartial[h],
                           colsB, c, 0, blockM_),
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
    for (std::size_t h = 0; h < hr_; ++h) {
        Instruction red = makeInst(
            Opcode::Reduce, Operand{},
            isa::makeOperand(Space::MatBuf, regions_.readPartial[h],
                             m_));
        red.count = packCommTag(CommTag::ReadVectorOut,
                                static_cast<std::uint32_t>(h));
        prog.append(red);
    }
    return prog;
}

CompiledDnc
DncGenerator::generate()
{
    CompiledDnc model;
    model.dncCfg = dc_;
    model.archCfg = ac_;

    if (dc_.memN < tiles_)
        throw AssemblyError(
            strformat("more tiles (%zu) than memory rows (%zu) is "
                      "unsupported",
                      tiles_, dc_.memN),
            ErrorContext{ac_.fingerprint(), ""});

    auto makeSegment = [&](mann::KernelGroup group, const char *name,
                           Program (DncGenerator::*emit)(std::size_t)
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

    makeSegment(mann::KernelGroup::Heads, "interface",
                &DncGenerator::emitInterface);
    makeSegment(mann::KernelGroup::Addressing, "usage-allocation",
                &DncGenerator::emitUsageAllocation);
    makeSegment(mann::KernelGroup::KeySimilarity, "write-content",
                &DncGenerator::emitWriteContent);
    makeSegment(mann::KernelGroup::Addressing, "write-addressing",
                &DncGenerator::emitWriteAddressing);
    makeSegment(mann::KernelGroup::SoftWrite, "soft-write",
                &DncGenerator::emitSoftWrite);
    makeSegment(mann::KernelGroup::Addressing, "linkage",
                &DncGenerator::emitLinkage);
    makeSegment(mann::KernelGroup::KeySimilarity, "read-content",
                &DncGenerator::emitReadContent);
    makeSegment(mann::KernelGroup::Addressing, "read-addressing",
                &DncGenerator::emitReadAddressing);
    makeSegment(mann::KernelGroup::SoftRead, "soft-read",
                &DncGenerator::emitSoftRead);

    DncLayout &layout = model.layout;
    layout.memory.base = regions_.mem;
    layout.memory.cols = m_;
    layout.memory.rowCount = memRows_;
    layout.memory.rowStart = memStarts_;
    layout.link.base = regions_.link;
    layout.link.cols = n_;
    layout.link.rowCount = memRows_;
    layout.link.rowStart = memStarts_;
    layout.interfaceW.base = regions_.ifaceW;
    layout.interfaceW.cols = hcols_;
    layout.interfaceW.rowCount = ifaceRows_;
    layout.interfaceW.rowStart = ifaceStarts_;
    layout.usageBase = regions_.usage;
    layout.writeWBase = regions_.writeW;
    layout.precedenceBase = regions_.precedence;
    layout.wReadLocalBase = regions_.wReadLocal;
    layout.wPrevReadFullBase = regions_.wPrevReadFull;
    layout.matBufWords = regions_.matBufWords;
    layout.matSpadWords = ac_.matrixScratchpadBytes / kWordBytes;
    layout.vecBufWords = regions_.vecBufWords;
    layout.vecSpadWords = std::max<std::size_t>(
        regions_.vecSpadWords, ac_.vectorScratchpadBytes / kWordBytes);

    // Capacity diagnostics.
    const std::size_t matBufCap = ac_.matrixBufferBytes / kWordBytes;
    if (layout.matBufWords > matBufCap)
        model.warnings.push_back(strformat(
            "DNC Matrix-Buffer layout needs %zu words but capacity "
            "is %zu (the N x N link matrix dominates)",
            layout.matBufWords, matBufCap));
    const std::size_t vecBufCap = ac_.vectorBufferBytes / kWordBytes;
    if (layout.vecBufWords > vecBufCap)
        model.warnings.push_back(strformat(
            "DNC Vector-Buffer layout needs %zu words but capacity "
            "is %zu",
            layout.vecBufWords, vecBufCap));
    if (ac_.strictCapacity && !model.warnings.empty())
        fatal("capacity violation: %s", model.warnings[0].c_str());
    return model;
}

} // namespace

CompiledDnc
compileDnc(const mann::DncConfig &dnc, const arch::MannaConfig &arch)
{
    dnc.validate();
    arch.validate();
    DncGenerator gen(dnc, arch);
    return gen.generate();
}

} // namespace manna::compiler
