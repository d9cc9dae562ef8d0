#include "tile.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "tensor/dispatch.hh"
#include "tensor/vector_ops.hh"

namespace manna::sim
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::Space;

DiffMemTile::DiffMemTile(const arch::MannaConfig &cfg,
                         const arch::EnergyModel &energy,
                         std::size_t tileIndex,
                         const TileLayoutSizes &sizes, ExecMode mode)
    : cfg_(cfg), energy_(energy), tileIndex_(tileIndex),
      mem_(sizes.matBufWords, sizes.matSpadWords, sizes.vecBufWords,
           sizes.vecSpadWords, mode != ExecMode::TimingOnly),
      mode_(mode)
{
}

void
DiffMemTile::setProgram(const isa::Program *program)
{
    MANNA_ASSERT(program != nullptr, "null program");
    program_ = program;
    pc_ = 0;
    loopStack_.clear();
    std::fill(std::begin(iters_), std::end(iters_), 0);
}

RunStatus
DiffMemTile::runUntilComm()
{
    MANNA_ASSERT(program_ != nullptr, "tile %zu has no program",
                 tileIndex_);
    const auto &insts = program_->instructions();
    while (pc_ < insts.size()) {
        const Instruction &inst = insts[pc_];
        switch (inst.op) {
          case Opcode::Loop: {
            MANNA_ASSERT(loopStack_.size() < isa::kMaxLoopDepth,
                         "loop nesting too deep at pc %zu", pc_);
            loopStack_.push_back({pc_ + 1, inst.count, 0});
            iters_[loopStack_.size() - 1] = 0;
            ++pc_;
            break;
          }
          case Opcode::EndLoop: {
            MANNA_ASSERT(!loopStack_.empty(),
                         "endloop without loop at pc %zu", pc_);
            LoopFrame &frame = loopStack_.back();
            ++frame.iter;
            if (frame.iter <
                static_cast<std::int64_t>(frame.count)) {
                iters_[loopStack_.size() - 1] = frame.iter;
                pc_ = frame.bodyPc;
            } else {
                loopStack_.pop_back();
                ++pc_;
            }
            break;
          }
          case Opcode::Halt:
            pc_ = insts.size();
            return RunStatus::Done;
          case Opcode::Reduce:
          case Opcode::Broadcast:
            return RunStatus::AtComm;
          case Opcode::Nop:
            ++pc_;
            break;
          default:
            execute(inst);
            ++pc_;
            break;
        }
    }
    return RunStatus::Done;
}

const Instruction &
DiffMemTile::commInstruction() const
{
    MANNA_ASSERT(program_ && pc_ < program_->size(),
                 "no blocking instruction");
    const Instruction &inst = program_->instructions()[pc_];
    MANNA_ASSERT(inst.op == Opcode::Reduce ||
                     inst.op == Opcode::Broadcast,
                 "pc %zu is not a communication instruction", pc_);
    return inst;
}

Operand
DiffMemTile::resolveOperand(const Operand &op) const
{
    Operand resolved = op;
    resolved.base = op.effectiveBase(iters_, loopStack_.size());
    std::fill(std::begin(resolved.stride), std::end(resolved.stride), 0);
    return resolved;
}

void
DiffMemTile::readOperandInto(const Operand &op,
                             std::vector<float> &out) const
{
    const Operand r = resolveOperand(op);
    const float *p = mem_.span(r.space, r.base, r.len);
    out.assign(p, p + r.len);
}

void
DiffMemTile::writeOperand(const Operand &op,
                          const std::vector<float> &values)
{
    const Operand r = resolveOperand(op);
    MANNA_ASSERT(values.size() == r.len,
                 "operand write size %zu != len %u", values.size(),
                 r.len);
    mem_.writeRange(r.space, r.base, values);
}

void
DiffMemTile::resumeAfterComm(Cycle resumeAt)
{
    // The communication instruction is a fence (Section 5.1).
    commInstruction(); // asserts we are actually blocked
    ++pc_;
    if (!timed())
        return; // no timelines to fence, no counters to charge
    alignTo(resumeAt, StallReason::Fence);
    counters_[TileCounter::CommInstructions] += 1.0;
}

void
DiffMemTile::alignTo(Cycle at, StallReason reason)
{
    MANNA_ASSERT(at >= maxEnd_,
                 "fence at %llu before outstanding work at %llu",
                 static_cast<unsigned long long>(at),
                 static_cast<unsigned long long>(maxEnd_));
    // Two attribution windows per engine: up to the drain point
    // (maxEnd_) an early-finishing engine is waiting on whichever
    // engine drains last; past it, every engine waits for @p reason
    // (the fence/controller/segment event that set `at`).
    TraceLane tail = TraceLane::Compute;
    Cycle tailEnd = engineFree_[0];
    for (std::size_t l = 1; l < kNumLanes; ++l) {
        const auto lane = static_cast<TraceLane>(l);
        if (engineFree_[l] > tailEnd ||
            (engineFree_[l] == tailEnd &&
             producerStall(lane) > producerStall(tail))) {
            tail = lane;
            tailEnd = engineFree_[l];
        }
    }
    const StallReason drainWhy = producerStall(tail);
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        const auto lane = static_cast<TraceLane>(l);
        if (maxEnd_ > engineFree_[l])
            addStall(lane, drainWhy,
                     static_cast<double>(maxEnd_ - engineFree_[l]));
        if (at > maxEnd_)
            addStall(lane, reason, static_cast<double>(at - maxEnd_));
        engineFree_[l] = at;
    }
    now_ = at;
    spadWriteEnd_[0] = spadWriteEnd_[1] = at;
    spadReadEnd_[0] = spadReadEnd_[1] = at;
    std::fill(std::begin(lastWrite_), std::end(lastWrite_), at);
    spadWriteWhy_[0] = spadWriteWhy_[1] = reason;
    std::fill(std::begin(lastWriteWhy_), std::end(lastWriteWhy_),
              reason);
    maxEnd_ = at;
}

void
DiffMemTile::reset()
{
    now_ = 0;
    std::fill(std::begin(engineFree_), std::end(engineFree_), 0);
    spadWriteEnd_[0] = spadWriteEnd_[1] = 0;
    spadReadEnd_[0] = spadReadEnd_[1] = 0;
    std::fill(std::begin(lastWrite_), std::end(lastWrite_), 0);
    spadWriteWhy_[0] = spadWriteWhy_[1] = StallReason::Issue;
    std::fill(std::begin(lastWriteWhy_), std::end(lastWriteWhy_),
              StallReason::Issue);
    maxEnd_ = 0;
    lastEnd_ = 0;
    dmaLoadCount_ = 0;
    energyPj_ = 0.0;
    counters_.clear();
    std::fill(std::begin(opCycles_), std::end(opCycles_), 0.0);
    std::fill(std::begin(opOps_), std::end(opOps_), 0.0);
    std::fill(std::begin(opWords_), std::end(opWords_), 0.0);
    lastOpBusy_ = 0.0;
    lastOpWords_ = 0.0;
    program_ = nullptr;
    pc_ = 0;
    loopStack_.clear();
    std::fill(std::begin(iters_), std::end(iters_), 0);
}

void
DiffMemTile::attributeStall(TraceLane lane, const StallPicker &picker)
{
    const Cycle free = freeTime(lane);
    if (picker.at > free)
        addStall(lane, picker.why, static_cast<double>(picker.at - free));
}

void
DiffMemTile::readDependency(const Operand &op, StallPicker &p) const
{
    if (!op.valid())
        return;
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        p.consider(spadWriteEnd_[half], spadWriteWhy_[half]);
        return;
    }
    const auto s = static_cast<std::size_t>(op.space);
    p.consider(lastWrite_[s], lastWriteWhy_[s]);
}

void
DiffMemTile::writeDependency(const Operand &op, StallPicker &p) const
{
    if (!op.valid())
        return;
    if (op.space == Space::MatSpad) {
        // Non-DMA writes (e.g. soft-write updates) modify the half
        // compute is currently working on. The WAR side is a
        // double-buffer drain; the WAW side blames the producer.
        const std::size_t half = computeHalf();
        p.consider(spadReadEnd_[half], StallReason::Drain);
        p.consider(spadWriteEnd_[half], spadWriteWhy_[half]);
        return;
    }
    const auto s = static_cast<std::size_t>(op.space);
    p.consider(lastWrite_[s], lastWriteWhy_[s]);
}

void
DiffMemTile::noteWrite(const Operand &op, Cycle end,
                       StallReason producer)
{
    if (!op.valid())
        return;
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        if (end >= spadWriteEnd_[half]) {
            spadWriteEnd_[half] = end;
            spadWriteWhy_[half] = producer;
        }
        return;
    }
    const auto s = static_cast<std::size_t>(op.space);
    if (end >= lastWrite_[s]) {
        lastWrite_[s] = end;
        lastWriteWhy_[s] = producer;
    }
}

void
DiffMemTile::noteRead(const Operand &op, Cycle end)
{
    if (!op.valid())
        return;
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        spadReadEnd_[half] = std::max(spadReadEnd_[half], end);
    }
}

void
DiffMemTile::charge(arch::EnergyEvent ev, double count)
{
    energyPj_ += energy_.eventEnergyPj(ev) * count;
}

arch::EnergyEvent
DiffMemTile::accessEvent(Space space) const
{
    switch (space) {
      case Space::MatBuf:
        return arch::EnergyEvent::MatrixBufferAccess;
      case Space::MatSpad:
        return arch::EnergyEvent::MatrixScratchpadAccess;
      case Space::VecBuf:
        return arch::EnergyEvent::VectorBufferAccess;
      case Space::VecSpad:
        return arch::EnergyEvent::VectorScratchpadAccess;
      case Space::None:
        break;
    }
    panic("accessEvent on invalid space");
}

void
DiffMemTile::finish(Cycle end)
{
    maxEnd_ = std::max(maxEnd_, end);
    lastEnd_ = end;
}

void
DiffMemTile::exportOpProfile(StatRegistry &reg,
                             const std::string &prefix) const
{
    constexpr auto numOps =
        static_cast<std::size_t>(Opcode::NumOpcodes);
    for (std::size_t i = 0; i < numOps; ++i) {
        if (opOps_[i] == 0.0)
            continue;
        const std::string key =
            prefix + "." + isa::profileKey(static_cast<Opcode>(i));
        reg.set(key + ".cycles", opCycles_[i]);
        reg.set(key + ".ops", opOps_[i]);
        reg.set(key + ".words", opWords_[i]);
    }
}

void
DiffMemTile::execute(const Instruction &inst)
{
    if (timed()) {
        counters_[TileCounter::Instructions] += 1.0;
        charge(arch::EnergyEvent::InstructionIssue, 1.0);
    }
    const Cycle issuedAt = now_;
    lastOpBusy_ = 0.0;
    lastOpWords_ = 0.0;
    switch (inst.op) {
      case Opcode::DmaLoadM:
      case Opcode::DmatLoadM:
      case Opcode::DmaStoreM:
        execDmaMatrix(inst);
        break;
      case Opcode::DmaLoadV:
      case Opcode::DmaStoreV:
        execDmaVector(inst);
        break;
      case Opcode::Vmm:
        execVmm(inst);
        break;
      case Opcode::EwAdd:
      case Opcode::EwSub:
      case Opcode::EwMul:
      case Opcode::EwMac:
      case Opcode::EwAddImm:
      case Opcode::EwMulImm:
      case Opcode::EwRsubImm:
      case Opcode::Fill:
        execElementwise(inst);
        break;
      case Opcode::SfuExp:
      case Opcode::SfuPow:
      case Opcode::SfuRecip:
      case Opcode::SfuSqrt:
      case Opcode::SfuSigmoid:
      case Opcode::SfuTanh:
      case Opcode::SfuSoftplus:
      case Opcode::SfuAccSum:
      case Opcode::SfuAccMax:
        execSfu(inst);
        break;
      default:
        panic("unexpected opcode %s in execute",
              toString(inst.op));
    }
    if (!timed())
        return;
    const auto opIdx = static_cast<std::size_t>(inst.op);
    opCycles_[opIdx] += lastOpBusy_;
    opOps_[opIdx] += 1.0;
    opWords_[opIdx] += lastOpWords_;
    // After dispatch now_ == start + 1, so the op's engine interval is
    // [now_ - 1, lastEnd_].
    if (trace_ != nullptr)
        trace_->record(tileIndex_, issuedAt, maxEnd_, now_ - 1,
                       lastEnd_, inst);
}

void
DiffMemTile::execDmaMatrix(const Instruction &inst)
{
    const Operand src = resolveOperand(inst.srcA);
    const Operand dst = resolveOperand(inst.dst);
    const std::uint32_t rows = inst.count;
    MANNA_ASSERT(rows > 0, "matrix DMA with zero rows");

    const bool isStore = inst.op == Opcode::DmaStoreM;
    const bool isDmat = inst.op == Opcode::DmatLoadM;

    // Row geometry: the non-scratchpad side determines the row width;
    // DMAT pads the scratchpad side by one word per row.
    const Operand &bufSide = isStore ? dst : src;
    const Operand &spadSide = isStore ? src : dst;
    MANNA_ASSERT(bufSide.space == Space::MatBuf ||
                     bufSide.space == Space::VecBuf,
                 "matrix DMA buffer side must be a buffer, got %s",
                 toString(bufSide.space));
    MANNA_ASSERT(spadSide.space == Space::MatSpad,
                 "matrix DMA scratchpad side must be MatSpad, got %s",
                 toString(spadSide.space));
    MANNA_ASSERT(bufSide.len % rows == 0,
                 "matrix DMA: len %u not divisible by rows %u",
                 bufSide.len, rows);
    const std::uint32_t rowWords = bufSide.len / rows;
    const std::uint32_t spadPitch = rowWords + (isDmat ? 1 : 0);
    MANNA_ASSERT(spadSide.len == rows * spadPitch,
                 "matrix DMA: scratchpad len %u != %u rows x pitch %u",
                 spadSide.len, rows, spadPitch);
    const std::uint32_t bufPitch =
        inst.srcB.base != 0 ? inst.srcB.base : rowWords;
    MANNA_ASSERT(bufPitch >= rowWords,
                 "matrix DMA: buffer pitch %u < row width %u", bufPitch,
                 rowWords);

    if (timed()) {
        // Timing. Loads rotate the double-buffer halves; a load may
        // only overwrite a half once the compute that consumed it has
        // drained (WAR through spadReadEnd_).
        StallPicker p(freeTime(TraceLane::MatDma));
        p.consider(now_, StallReason::Issue);
        Cycle dur = static_cast<Cycle>(rows) *
                    ceilDiv(rowWords, cfg_.matrixBufferWidthWords);
        if (isDmat)
            dur += 1; // pipelined skew-pad insertion
        Cycle start;
        if (isStore) {
            const std::size_t half = computeHalf();
            p.consider(spadWriteEnd_[half],
                       spadWriteWhy_[half]); // data ready
            writeDependency(dst, p);
            start = p.at;
            attributeStall(TraceLane::MatDma, p);
            const Cycle end = start + std::max<Cycle>(dur, 1);
            counters_[TileCounter::MatDmaBusyCycles] +=
                static_cast<double>(end - start);
            lastOpBusy_ = static_cast<double>(end - start);
            freeTime(TraceLane::MatDma) = end;
            spadReadEnd_[half] = std::max(spadReadEnd_[half], end);
            noteWrite(dst, end, StallReason::Dma);
            finish(end);
        } else {
            const std::size_t half = loadHalf();
            p.consider(spadReadEnd_[half], StallReason::Drain);
            p.consider(spadWriteEnd_[half], spadWriteWhy_[half]);
            readDependency(src, p);
            start = p.at;
            attributeStall(TraceLane::MatDma, p);
            const Cycle end = start + std::max<Cycle>(dur, 1);
            counters_[TileCounter::MatDmaBusyCycles] +=
                static_cast<double>(end - start);
            lastOpBusy_ = static_cast<double>(end - start);
            if (isDmat) {
                counters_[TileCounter::DmatLoads] += 1.0;
                counters_[TileCounter::DmatTransferCycles] +=
                    static_cast<double>(end - start);
            }
            freeTime(TraceLane::MatDma) = end;
            spadWriteEnd_[half] = end;
            spadWriteWhy_[half] = StallReason::Dma;
            ++dmaLoadCount_;
            finish(end);
        }
        now_ = start + 1;

        // Energy: every word moves buffer<->scratchpad once.
        const double words = static_cast<double>(rows) * rowWords;
        charge(accessEvent(bufSide.space), words);
        charge(arch::EnergyEvent::MatrixScratchpadAccess, words);
        counters_[TileCounter::MatDmaWords] += words;
        lastOpWords_ = words;
    }

    // Functional copy with pitches. The effective base of the buffer
    // side addresses the first row; subsequent rows advance by
    // bufPitch. The span covers first row start through last row end
    // (every row is in the buffer, so the full extent is too).
    TileOp rop;
    rop.kind = TileOpKind::Copy2d;
    rop.n = rowWords;
    rop.rows = rows;
    rop.pitchA = isStore ? spadPitch : bufPitch;
    rop.pitchD = isStore ? bufPitch : spadPitch;
    rop.a = mem_.span(src.space, src.base,
                      (rows - 1) * rop.pitchA + rowWords);
    rop.d = mem_.span(dst.space, dst.base,
                      (rows - 1) * rop.pitchD + rowWords);
    runFunctional(rop);
}

void
DiffMemTile::execDmaVector(const Instruction &inst)
{
    const Operand src = resolveOperand(inst.srcA);
    const Operand dst = resolveOperand(inst.dst);
    MANNA_ASSERT(src.len == dst.len, "vector DMA len %u != %u", src.len,
                 dst.len);

    if (timed()) {
        StallPicker p(freeTime(TraceLane::VecDma));
        p.consider(now_, StallReason::Issue);
        readDependency(src, p);
        writeDependency(dst, p);
        const Cycle start = p.at;
        attributeStall(TraceLane::VecDma, p);
        const Cycle dur = std::max<Cycle>(
            ceilDiv(src.len, cfg_.vectorDmaWidthWords), 1);
        const Cycle end = start + dur;
        counters_[TileCounter::VecDmaBusyCycles] +=
            static_cast<double>(end - start);
        lastOpBusy_ = static_cast<double>(end - start);
        freeTime(TraceLane::VecDma) = end;
        noteRead(src, end);
        noteWrite(dst, end, StallReason::Dma);
        finish(end);
        now_ = start + 1;

        charge(accessEvent(src.space), src.len);
        charge(accessEvent(dst.space), dst.len);
        counters_[TileCounter::VecDmaWords] += src.len;
        lastOpWords_ = src.len;
    }

    TileOp rop;
    rop.kind = TileOpKind::Copy2d;
    rop.n = src.len;
    rop.rows = 1;
    rop.a = mem_.span(src.space, src.base, src.len);
    rop.d = mem_.span(dst.space, dst.base, dst.len);
    runFunctional(rop);
}

void
DiffMemTile::execVmm(const Instruction &inst)
{
    const Operand vec = resolveOperand(inst.srcA);
    const Operand matBlock = resolveOperand(inst.srcB);
    const Operand dst = resolveOperand(inst.dst);
    const bool rowDot = inst.flags.rowDot;
    const bool withNorms = inst.flags.withNorms;
    const bool accumulate = inst.flags.accumulate;

    std::uint32_t numRows; // K: matrix rows in the block
    std::uint32_t numCols; // N: matrix columns in the block
    std::uint32_t pitch;
    if (rowDot) {
        numCols = vec.len;
        pitch = numCols + (inst.flags.skewed ? 1 : 0);
        numRows = dst.len;
        // With norms, a second accumulator array lives `count` words
        // past the dot-product destination.
        MANNA_ASSERT(!withNorms || inst.count >= numRows,
                     "vmm.norms offset %u overlaps dots of %u rows",
                     inst.count, numRows);
    } else {
        MANNA_ASSERT(!withNorms, "vmm.norms requires rowdot mode");
        numRows = vec.len;
        numCols = dst.len;
        pitch = numCols;
    }
    MANNA_ASSERT(matBlock.len == numRows * pitch,
                 "vmm block len %u != %u rows x pitch %u", matBlock.len,
                 numRows, pitch);
    MANNA_ASSERT(numRows > 0 && numCols > 0, "vmm with empty block");

    if (timed()) {
        // Timing.
        StallPicker p(freeTime(TraceLane::Compute));
        p.consider(now_, StallReason::Issue);
        readDependency(vec, p);
        readDependency(matBlock, p);
        writeDependency(dst, p);
        if (accumulate)
            readDependency(dst, p);
        const Cycle start = p.at;
        attributeStall(TraceLane::Compute, p);

        Cycle dur;
        double conflictExtra = 0.0;
        const std::size_t lanes = cfg_.emacsPerTile;
        if (rowDot) {
            // Each lane owns a row and walks the columns.
            dur = static_cast<Cycle>(numCols) * ceilDiv(numRows, lanes);
            if (withNorms)
                dur *= 2;
            // Column-direction scratchpad traffic: skew-padded (DMAT)
            // blocks read one word per bank per cycle, unskewed blocks
            // serialize on bank conflicts (Section 4.4 / Figure 14).
            counters_[inst.flags.skewed
                          ? TileCounter::SpadConflictFreeWords
                          : TileCounter::SpadConflictWords] +=
                static_cast<double>(numRows) * numCols;
            if (inst.flags.skewed) {
                // Realignment shift of the finished partials,
                // pipelined with the next block (Section 4.4, step 5).
                dur += ceilDiv(numRows, lanes);
            } else {
                // Unskewed block: banked access in the transposed
                // direction partially serializes on conflicts (this is
                // the no-DMAT path of the Figure 14 ablation). The
                // array occupies the whole interval but only the
                // pre-factor base is useful work; the serialization
                // overhead is accounted as stall.bank_conflict, not
                // busy time.
                const Cycle base = dur;
                dur *= cfg_.noDmatConflictFactor;
                conflictExtra = static_cast<double>(dur - base);
            }
        } else {
            // Each lane owns a column; rows stream one per cycle
            // group.
            dur = static_cast<Cycle>(numRows) * ceilDiv(numCols, lanes);
        }
        const Cycle end = start + std::max<Cycle>(dur, 1);
        const double busy =
            static_cast<double>(end - start) - conflictExtra;
        counters_[TileCounter::EmacBusyCycles] += busy;
        if (conflictExtra > 0.0)
            addStall(TraceLane::Compute, StallReason::BankConflict,
                     conflictExtra);
        lastOpBusy_ = busy;
        freeTime(TraceLane::Compute) = end;
        noteRead(vec, end);
        noteRead(matBlock, end);
        noteWrite(dst, end, StallReason::Compute);
        finish(end);
        now_ = start + 1;

        // Energy.
        const double macs = static_cast<double>(numRows) * numCols *
                            (withNorms ? 2.0 : 1.0);
        charge(arch::EnergyEvent::EmacMac, macs);
        charge(arch::EnergyEvent::RegisterFileAccess, 2.0 * macs);
        if (!inst.flags.reuseB)
            charge(accessEvent(matBlock.space),
                   static_cast<double>(numRows) * numCols);
        charge(accessEvent(vec.space), vec.len);
        if (!inst.flags.dstResident)
            charge(accessEvent(dst.space),
                   static_cast<double>(dst.len) *
                       (accumulate ? 2.0 : 1.0));
        if (inst.flags.skewed)
            charge(arch::EnergyEvent::EmacLateralShift,
                   static_cast<double>(numCols) *
                       ceilDiv(numRows, lanes) * lanes);
        counters_[TileCounter::EmacMacOps] += macs;
        lastOpWords_ = static_cast<double>(numRows) * numCols;
    }

    // Functional semantics (sim/tile_ops.cc).
    TileOp rop;
    rop.kind = TileOpKind::Vmm;
    rop.n = numCols;
    rop.rows = numRows;
    rop.pitchA = pitch;
    rop.flags = static_cast<std::uint8_t>(
        (rowDot ? kTileOpRowDot : 0) |
        (withNorms ? kTileOpWithNorms : 0) |
        (accumulate ? kTileOpAccumulate : 0));
    rop.a = mem_.span(vec.space, vec.base, vec.len);
    rop.b = mem_.span(matBlock.space, matBlock.base, matBlock.len);
    rop.d = mem_.span(dst.space, dst.base, dst.len);
    rop.dn = withNorms ? mem_.span(dst.space, dst.base + inst.count,
                                   numRows)
                       : nullptr;
    runFunctional(rop);
}

void
DiffMemTile::execElementwise(const Instruction &inst)
{
    const Operand dst = resolveOperand(inst.dst);
    const Operand a = resolveOperand(inst.srcA);
    const Operand b = resolveOperand(inst.srcB);
    const std::uint32_t len = dst.len;
    MANNA_ASSERT(len > 0, "elementwise op with empty dst");

    const bool needsA = inst.op != Opcode::Fill;
    const bool needsB = inst.op == Opcode::EwAdd ||
                        inst.op == Opcode::EwSub ||
                        inst.op == Opcode::EwMul ||
                        inst.op == Opcode::EwMac;
    if (needsA)
        MANNA_ASSERT(a.len == len || a.len == 1,
                     "%s srcA len %u incompatible with dst %u",
                     toString(inst.op), a.len, len);
    if (needsB)
        MANNA_ASSERT(b.len == len || b.len == 1,
                     "%s srcB len %u incompatible with dst %u",
                     toString(inst.op), b.len, len);

    if (timed()) {
        StallPicker p(freeTime(TraceLane::Compute));
        p.consider(now_, StallReason::Issue);
        if (needsA)
            readDependency(a, p);
        if (needsB)
            readDependency(b, p);
        writeDependency(dst, p);
        if (inst.op == Opcode::EwMac)
            readDependency(dst, p);
        const Cycle start = p.at;
        attributeStall(TraceLane::Compute, p);

        const bool isMac = inst.op == Opcode::EwMac;
        std::size_t penalty = 1;
        if (!cfg_.hasEmac && !isMac)
            penalty = cfg_.elwisePenaltyNoEmac;
        const Cycle dur = std::max<Cycle>(
            ceilDiv(len, cfg_.emacsPerTile) * penalty, 1);
        const Cycle end = start + dur;
        counters_[TileCounter::EmacBusyCycles] +=
            static_cast<double>(end - start);
        lastOpBusy_ = static_cast<double>(end - start);
        lastOpWords_ = len;
        freeTime(TraceLane::Compute) = end;
        if (needsA)
            noteRead(a, end);
        if (needsB)
            noteRead(b, end);
        noteWrite(dst, end, StallReason::Compute);
        finish(end);
        now_ = start + 1;

        // Energy.
        if (isMac) {
            charge(arch::EnergyEvent::EmacMac, len);
            counters_[TileCounter::EmacMacOps] += len;
        } else if (inst.op != Opcode::Fill) {
            charge(arch::EnergyEvent::EmacElwise,
                   static_cast<double>(len) * penalty);
            counters_[TileCounter::EmacElwiseOps] += len;
        }
        if (needsA)
            charge(accessEvent(a.space), a.len == 1 ? 1.0 : len);
        if (needsB)
            charge(accessEvent(b.space), b.len == 1 ? 1.0 : len);
        charge(accessEvent(dst.space),
               static_cast<double>(len) * (isMac ? 2.0 : 1.0));
    }

    // Functional semantics (sim/tile_ops.cc).
    TileOp rop;
    rop.kind = TileOpKind::Elementwise;
    rop.op = inst.op;
    rop.n = len;
    rop.pitchA = needsA ? a.len : 0;
    rop.pitchD = needsB ? b.len : 0;
    rop.imm = inst.imm;
    rop.a = needsA ? mem_.span(a.space, a.base, a.len) : nullptr;
    rop.b = needsB ? mem_.span(b.space, b.base, b.len) : nullptr;
    rop.d = mem_.span(dst.space, dst.base, len);
    runFunctional(rop);
}

void
DiffMemTile::execSfu(const Instruction &inst)
{
    const Operand dst = resolveOperand(inst.dst);
    const Operand a = resolveOperand(inst.srcA);
    const bool isAcc = inst.op == Opcode::SfuAccSum ||
                       inst.op == Opcode::SfuAccMax;
    const std::uint32_t len = a.len;
    MANNA_ASSERT(len > 0, "SFU op with empty source");
    if (isAcc)
        MANNA_ASSERT(dst.len == 1, "SFU accumulate dst must be scalar");
    else
        MANNA_ASSERT(dst.len == len, "SFU dst len %u != src %u", dst.len,
                     len);

    Operand expOperand; // SfuPow scalar exponent
    const float *pexp = nullptr;
    if (inst.op == Opcode::SfuPow) {
        expOperand = resolveOperand(inst.srcB);
        MANNA_ASSERT(expOperand.len == 1,
                     "sfu.pow exponent must be scalar");
        pexp = mem_.span(expOperand.space, expOperand.base, 1);
    }

    std::size_t perElem;
    switch (inst.op) {
      case Opcode::SfuExp:
      case Opcode::SfuSigmoid:
      case Opcode::SfuTanh:
      case Opcode::SfuSoftplus:
        perElem = cfg_.sfuExpCycles;
        break;
      case Opcode::SfuPow:
        perElem = cfg_.sfuPowCycles;
        break;
      case Opcode::SfuRecip:
        perElem = cfg_.sfuDivCycles;
        break;
      case Opcode::SfuSqrt:
        perElem = cfg_.sfuSqrtCycles;
        break;
      case Opcode::SfuAccSum:
      case Opcode::SfuAccMax:
        perElem = cfg_.sfuAccCycles;
        break;
      default:
        panic("bad SFU opcode");
    }

    if (timed()) {
        StallPicker p(freeTime(TraceLane::Sfu));
        p.consider(now_, StallReason::Issue);
        readDependency(a, p);
        if (inst.op == Opcode::SfuPow)
            readDependency(expOperand, p);
        writeDependency(dst, p);
        const Cycle start = p.at;
        attributeStall(TraceLane::Sfu, p);
        // The SFU path is serial within a tile (Section 7.3's scaling
        // limiter): len elements at perElem cycles each, shared across
        // the tile's sfusPerTile units.
        const Cycle dur = std::max<Cycle>(
            ceilDiv(static_cast<std::uint64_t>(len) * perElem,
                    cfg_.sfusPerTile),
            1);
        const Cycle end = start + dur;
        counters_[TileCounter::SfuBusyCycles] +=
            static_cast<double>(end - start);
        lastOpBusy_ = static_cast<double>(end - start);
        lastOpWords_ = len;
        freeTime(TraceLane::Sfu) = end;
        noteRead(a, end);
        noteWrite(dst, end, StallReason::SfuSerial);
        finish(end);
        now_ = start + 1;

        charge(arch::EnergyEvent::SfuOp, len);
        charge(accessEvent(a.space), len);
        charge(accessEvent(dst.space), dst.len);
        counters_[TileCounter::SfuOps] += len;
    }

    // Functional semantics (sim/tile_ops.cc). The SfuPow exponent is
    // passed as a pointer into tile memory and read at execution time.
    TileOp rop;
    rop.kind = TileOpKind::Sfu;
    rop.op = inst.op;
    rop.n = len;
    rop.a = mem_.span(a.space, a.base, len);
    rop.b = pexp;
    rop.d = mem_.span(dst.space, dst.base, dst.len);
    runFunctional(rop);
}

const float *
DiffMemTile::operandSpan(const Operand &op) const
{
    const Operand r = resolveOperand(op);
    return mem_.span(r.space, r.base, r.len);
}

} // namespace manna::sim
