#include "chip.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "mann/dnc.hh"

namespace manna::sim
{

using compiler::CommTag;
using isa::Instruction;
using isa::Opcode;

double
RunReport::stepsPerJoule() const
{
    const double joules = totalEnergyJoules();
    return joules > 0.0 ? static_cast<double>(steps) / joules : 0.0;
}

double
RunReport::secondsPerStep() const
{
    return steps > 0 ? totalSeconds / static_cast<double>(steps) : 0.0;
}

std::string
RunReport::render() const
{
    std::string out = strformat(
        "steps=%zu cycles=%llu time=%.6f ms energy=%.6f mJ "
        "(leakage %.6f mJ, infra %.6f mJ) steps/J=%.1f\n",
        steps, static_cast<unsigned long long>(totalCycles),
        totalSeconds * 1e3, totalEnergyPj() * 1e-9,
        leakageEnergyPj * 1e-9, infrastructureEnergyPj * 1e-9,
        stepsPerJoule());
    for (const auto &[group, gs] : groups) {
        out += strformat("  %-16s %12llu cycles  %10.3f uJ\n",
                         mann::toString(group),
                         static_cast<unsigned long long>(gs.cycles),
                         gs.energyPj * 1e-6);
    }
    if (!resourceUtilization.empty()) {
        out += "  utilization:";
        for (const auto &[name, util] : resourceUtilization)
            out += strformat(" %s %.1f%%", name.c_str(), util * 100.0);
        out += "\n";
    }
    return out;
}

void
describeRunStats(StatRegistry &reg)
{
    // Engine activity and the stall taxonomy (docs/OBSERVABILITY.md).
    reg.describe("busy_cycles",
                 "cycles the unit was executing an operation");
    reg.describe("idle_cycles",
                 "sum of this unit's stall.* buckets (== cycles-busy)");
    reg.describe("stall.issue",
                 "waiting on the single-issue in-order frontend");
    reg.describe("stall.ctrl",
                 "waiting for the Controller tile forward pass");
    reg.describe("stall.fence",
                 "waiting at a reduce/broadcast synchronization");
    reg.describe("stall.drain",
                 "waiting for a segment/buffer drain to complete");
    reg.describe("stall.dma",
                 "waiting on a DMA transfer (double buffer not ready)");
    reg.describe("stall.compute",
                 "waiting on an eMAC-array result");
    reg.describe("stall.sfu_serial",
                 "waiting on the serial SFU (Fig. 12 limiter)");
    reg.describe("stall.bank_conflict",
                 "lost throughput from scratchpad bank conflicts");
    reg.describe("stall.diffmem_wait",
                 "controller idle while DiffMem tiles execute");
    reg.describe("stall.idle", "no transfer in flight on the NoC");
    // Work counters.
    reg.describe("emac.mac_ops", "multiply-accumulate operations");
    reg.describe("emac.elwise_ops", "element-wise ALU operations");
    reg.describe("sfu.ops", "serial special-function evaluations");
    reg.describe("mat_dma.words", "matrix DMA words transferred");
    reg.describe("vec_dma.words", "vector DMA words transferred");
    reg.describe("dmat.loads", "DMAT matrix-load commands");
    reg.describe("dmat.transfer_cycles",
                 "cycles of DMAT streaming into the scratchpad");
    reg.describe("spad.conflict_free_words",
                 "scratchpad words served without bank conflict");
    reg.describe("spad.conflict_words",
                 "scratchpad words serialized by bank conflicts");
    reg.describe("instructions", "instructions executed by the tile");
    reg.describe("comm_instructions",
                 "reduce/broadcast instructions executed");
    reg.describe("energy_pj", "dynamic energy in picojoules");
    // Per-opcode profile (profile.<tile>.<opcode>.*). These are bare
    // suffix patterns, so exact entries below pin down the NoC/ctrl
    // counters that share a leaf name.
    reg.describe("cycles", "engine-busy cycles charged to this opcode");
    reg.describe("ops", "executed instances of this opcode");
    reg.describe("words", "data words processed by this opcode");
    // NoC and controller-tile counters.
    reg.describe("noc.reduce.ops", "reduce exchanges performed");
    reg.describe("noc.reduce.words", "words reduced to the root");
    reg.describe("noc.reduce.cycles", "cycles spent in reduces");
    reg.describe("noc.reduce.steps", "store-and-forward reduce hops");
    reg.describe("noc.broadcast.ops", "broadcast exchanges performed");
    reg.describe("noc.broadcast.words", "words broadcast to leaves");
    reg.describe("noc.broadcast.cycles", "cycles spent in broadcasts");
    reg.describe("noc.broadcast.steps",
                 "store-and-forward broadcast hops");
    reg.describe("ctrl.cycles",
                 "controller-tile cycles added to chip time");
    reg.describe("ctrl.dense_layers", "dense layers evaluated");
    reg.describe("ctrl.array_passes", "systolic-array passes");
    reg.describe("ctrl.macs", "controller multiply-accumulates");
    reg.describe("ctrl.activations", "controller activation lanes");
    reg.describe("ctrl.forward_passes", "controller forward passes");
    // Chip-level rollups.
    reg.describe("chip.steps", "MANN time steps simulated");
    reg.describe("chip.cycles", "total simulated chip cycles");
    reg.describe("chip.tiles", "DiffMem tile count");
    reg.describe("chip.energy.dynamic_pj", "dynamic energy (pJ)");
    reg.describe("chip.energy.leakage_pj", "leakage energy (pJ)");
    reg.describe("chip.energy.infrastructure_pj",
                 "clock/control/periphery energy (pJ)");
    reg.describe("chip.util.emac", "mean eMAC-array utilization");
    reg.describe("chip.util.sfu", "mean SFU utilization");
    reg.describe("chip.util.mat_dma", "mean matrix-DMA utilization");
    reg.describe("chip.util.vec_dma", "mean vector-DMA utilization");
    // Fidelity markers (emitted in both cycle and fast mode).
    reg.describe("fidelity.fast",
                 "1 when the run used fidelity=fast, else 0");
    reg.describe("fidelity.calibration_steps",
                 "cycle-accurate steps behind a fast-mode report");
    reg.describe("fidelity.extrapolated_steps",
                 "steps covered by linear extrapolation");
    reg.describe("fidelity.analytic_cycles_per_step",
                 "op-counter peak-rate cycles/step estimate");
}

namespace
{

/**
 * Fill @p rep.stats with the dotted counter hierarchy (tile.<n>.*,
 * noc.*, ctrl.*, chip.*) and derive @p rep.resourceUtilization from
 * the per-tile busy-cycle counters. Requires steps/totalCycles/energy
 * fields to be filled in already.
 */
void
populateRunStats(RunReport &rep,
                 const std::vector<std::unique_ptr<DiffMemTile>> &tiles,
                 const Noc &noc, const ControllerTileModel &ctrlModel)
{
    StatRegistry &reg = rep.stats;
    const double total = static_cast<double>(rep.totalCycles);
    double busyTotal[kNumLanes] = {};
    for (std::size_t t = 0; t < tiles.size(); ++t) {
        const DiffMemTile &tile = *tiles[t];
        const std::string prefix = strformat("tile.%zu", t);
        tile.exportCounters(reg, prefix);
        tile.exportOpProfile(reg, strformat("profile.%zu", t));
        for (std::size_t l = 0; l < kNumLanes; ++l) {
            const auto lane = static_cast<TraceLane>(l);
            const double busy = tile.busyCycles(lane);
            double stalls = 0.0;
            for (std::size_t r = 0; r < kNumStallReasons; ++r)
                stalls +=
                    tile.stallCycles(lane, static_cast<StallReason>(r));
            // Cycle accounting is closed: every engine cycle is
            // either busy or attributed to exactly one stall reason.
            // All values are integer-valued doubles, so the equality
            // is exact; a mismatch means a timing path forgot (or
            // double-counted) an attribution.
            MANNA_ASSERT(busy + stalls == total,
                         "tile %zu %s: busy %g + stalls %g != chip "
                         "cycles %g",
                         t, kEngineNames[l], busy, stalls, total);
            reg.set(prefix + "." + kEngineNames[l] + ".idle_cycles",
                    stalls);
            busyTotal[l] += busy;
        }
        reg.set(prefix + ".energy_pj", tile.energyPj());
    }
    noc.exportCounters(reg, "noc");
    ctrlModel.exportCounters(reg, "ctrl");
    // The NoC is busy exactly during the recorded reduce/broadcast
    // exchanges (their intervals never overlap: each one starts at or
    // after the previous chip time); the controller tile is busy for
    // the cycles its forward passes contributed to chip time. The
    // remainder is attributed as a single stall bucket each.
    const double nocBusy = noc.counter(NocCounter::ReduceCycles) +
                           noc.counter(NocCounter::BroadcastCycles);
    MANNA_ASSERT(nocBusy <= total,
                 "noc busy %g exceeds chip cycles %g", nocBusy, total);
    reg.set("noc.busy_cycles", nocBusy);
    reg.set("noc.stall.idle", total - nocBusy);
    const double ctrlBusy = ctrlModel.counter(CtrlCounter::Cycles);
    MANNA_ASSERT(ctrlBusy <= total,
                 "ctrl busy %g exceeds chip cycles %g", ctrlBusy,
                 total);
    reg.set("ctrl.busy_cycles", ctrlBusy);
    reg.set("ctrl.stall.diffmem_wait", total - ctrlBusy);
    reg.set("chip.steps", static_cast<double>(rep.steps));
    reg.set("chip.cycles", total);
    reg.set("chip.tiles", static_cast<double>(tiles.size()));
    reg.set("chip.energy.dynamic_pj", rep.dynamicEnergyPj);
    reg.set("chip.energy.leakage_pj", rep.leakageEnergyPj);
    reg.set("chip.energy.infrastructure_pj",
            rep.infrastructureEnergyPj);
    if (rep.totalCycles > 0 && !tiles.empty()) {
        const double denom =
            total * static_cast<double>(tiles.size());
        // Per-tile busy counts are integer-valued, so the sum is
        // exact in any order.
        for (std::size_t l = 0; l < kNumLanes; ++l) {
            const double util = busyTotal[l] / denom;
            rep.resourceUtilization[kEngineNames[l]] = util;
            reg.set(std::string("chip.util.") + kEngineNames[l], util);
        }
    }
    describeRunStats(reg);
}

} // namespace

ChipCore::ChipCore(const arch::MannaConfig &arch,
                   const TileLayoutSizes &sizes,
                   const std::vector<compiler::CompiledSegment> &segments,
                   const mann::MannConfig &shape, Fidelity fidelity,
                   bool timingOnly)
    : arch_(arch), sizes_(sizes), segments_(segments), shape_(shape),
      energy_(arch), noc_(arch, energy_), ctrlModel_(arch, energy_),
      fidelity_(fidelity), timingOnly_(timingOnly)
{
    for (std::size_t t = 0; t < arch_.numTiles; ++t)
        tiles_.push_back(std::make_unique<DiffMemTile>(
            arch_, energy_, t, sizes_, interpretMode()));
}

void
ChipCore::reset()
{
    for (auto &tile : tiles_) {
        tile->memory().clear();
        tile->reset();
        tile->setExecMode(interpretMode());
    }
    noc_.resetStats();
    ctrlModel_.resetStats();
    loadState();
    readVectors_.assign(shape_.numReadHeads,
                        tensor::FVec(shape_.memM, 0.0f));
    nocBuffer_.clear();
    nocWords_ = 0;
    chipTime_ = 0;
    nocEnergyPj_ = 0.0;
    ctrlEnergyPj_ = 0.0;
    groups_.clear();
    steps_ = 0;
    fastActive_ = false;
    calib1_ = RunReport();
    calib2_ = RunReport();
}

void
ChipCore::loadPartition(const compiler::RowPartition &part,
                        const tensor::FMat &source)
{
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        const std::uint32_t rows = part.rowCount[t];
        const std::uint32_t start = part.rowStart[t];
        for (std::uint32_t r = 0; r < rows; ++r) {
            tiles_[t]->memory().writeRange(
                isa::Space::MatBuf, part.base + r * part.cols,
                source.row(start + r));
        }
    }
}

tensor::FMat
ChipCore::gatherPartition(const compiler::RowPartition &part,
                          std::size_t totalRows) const
{
    tensor::FMat out(totalRows, part.cols);
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        const std::uint32_t rows = part.rowCount[t];
        const std::uint32_t start = part.rowStart[t];
        for (std::uint32_t r = 0; r < rows; ++r) {
            out.setRow(start + r,
                       tiles_[t]->memory().readRange(
                           isa::Space::MatBuf,
                           part.base + r * part.cols, part.cols));
        }
    }
    return out;
}

void
ChipCore::checkCancelled() const
{
    if (cancel_ && cancel_->cancelled())
        throw SimError(strformat(
            "simulation cancelled after %zu completed steps "
            "(watchdog timeout or supervisor abort)",
            steps_));
}

tensor::FVec
ChipCore::step(const tensor::FVec &input)
{
    MANNA_ASSERT(!timingOnly_, "a timing-only chip takes no inputs");
    MANNA_ASSERT(input.size() == shape_.inputDim,
                 "chip input size %zu != %zu", input.size(),
                 shape_.inputDim);

    // ---- Controller tile: functional forward pass ----
    ctrlInput_.clear();
    ctrlInput_.insert(ctrlInput_.end(), input.begin(), input.end());
    for (const auto &r : readVectors_)
        ctrlInput_.insert(ctrlInput_.end(), r.begin(), r.end());
    mann::ControllerOutput ctrl = controller().forward(ctrlInput_);
    // Augment the hidden state with the constant-one bias lane: the
    // weight slices on the tiles carry each projection's bias as an
    // extra column.
    pendingHidden_.assign(ctrl.hidden.begin(), ctrl.hidden.end());
    pendingHidden_.push_back(1.0f);
    advance();
    return ctrl.output;
}

void
ChipCore::advance()
{
    checkCancelled();
    if (timingOnly_ && fastActive_) {
        // Past the calibration prefix only the step count moves:
        // report() extrapolates, and there is no data to compute.
        ++steps_;
        return;
    }

    // ---- Controller tile: forward-pass cost ----
    if (!fastActive_) {
        const CtrlCost ctrlCost = ctrlModel_.forwardCost(shape_);
        ctrlModel_.recordForwardPass(ctrlCost);
        ctrlEnergyPj_ += ctrlCost.energyPj;
        auto &ctrlGroup = groups_[mann::KernelGroup::Controller];
        ctrlGroup.cycles += ctrlCost.cycles;
        ctrlGroup.energyPj += ctrlCost.energyPj;
        chipTime_ += ctrlCost.cycles;
        controllerReady_ = chipTime_;
        for (auto &tile : tiles_)
            tile->alignTo(std::max(tile->quiesceTime(), chipTime_),
                          StallReason::Ctrl);
    }

    // ---- DiffMem tile segments ----
    for (const auto &segment : segments_)
        runSegment(segment);

    ++steps_;
    if (fidelity_ == Fidelity::Fast && !fastActive_) {
        if (steps_ == kFastCalibrationSteps - 1) {
            calib1_ = cycleReport();
        } else if (steps_ == kFastCalibrationSteps) {
            calib2_ = cycleReport();
            activateFastMode();
        }
    }
}

void
ChipCore::activateFastMode()
{
    fastActive_ = true;
    if (timingOnly_)
        return; // the tiles never run again
    for (auto &tile : tiles_)
        tile->setExecMode(ExecMode::DataOnly);
}

std::vector<tensor::FVec>
ChipCore::run(const std::vector<tensor::FVec> &inputs)
{
    std::vector<tensor::FVec> outputs;
    outputs.reserve(inputs.size());
    for (const auto &x : inputs)
        outputs.push_back(step(x));
    return outputs;
}

void
ChipCore::runTilesToCompletion(const compiler::CompiledSegment &segment)
{
    for (std::size_t t = 0; t < tiles_.size(); ++t)
        tiles_[t]->setProgram(&segment.tilePrograms[t]);
    while (true) {
        checkCancelled();
        bool anyComm = false;
        bool allDone = true;
        for (auto &tile : tiles_) {
            const RunStatus status = tile->runUntilComm();
            if (status == RunStatus::AtComm) {
                anyComm = true;
                allDone = false;
            }
        }
        if (allDone)
            break;
        MANNA_ASSERT(anyComm, "scheduler stuck");

        // SPMD: every tile must block on the same instruction shape.
        const Instruction &inst = tiles_[0]->commInstruction();
        for (std::size_t t = 1; t < tiles_.size(); ++t) {
            const Instruction &other = tiles_[t]->commInstruction();
            MANNA_ASSERT(other.op == inst.op &&
                             other.srcA.len == inst.srcA.len &&
                             other.dst.len == inst.dst.len,
                         "tiles diverged at a communication point");
        }
        handleComm(inst);
    }
}

void
ChipCore::runSegment(const compiler::CompiledSegment &segment)
{
    if (fastActive_) {
        runTilesToCompletion(segment);
        return;
    }
    const Cycle segStart = chipTime_;
    tileEnergyBefore_.clear();
    for (auto &tile : tiles_)
        tileEnergyBefore_.push_back(tile->energyPj());
    const Energy nocBefore = nocEnergyPj_;

    for (auto &tile : tiles_)
        tile->alignTo(std::max(tile->quiesceTime(), segStart));
    runTilesToCompletion(segment);

    // Close the segment: synchronize all tiles.
    Cycle segEnd = segStart;
    for (auto &tile : tiles_)
        segEnd = std::max(segEnd, tile->quiesceTime());
    for (auto &tile : tiles_)
        tile->alignTo(segEnd);
    chipTime_ = segEnd;

    auto &gs = groups_[segment.group];
    gs.cycles += segEnd - segStart;
    for (std::size_t t = 0; t < tiles_.size(); ++t)
        gs.energyPj += tiles_[t]->energyPj() - tileEnergyBefore_[t];
    gs.energyPj += nocEnergyPj_ - nocBefore;
}

void
ChipCore::handleComm(const Instruction &inst)
{
    const CommTag tag = compiler::commTagOf(inst.count);

    Cycle commStart = 0;
    if (!fastActive_)
        for (auto &tile : tiles_)
            commStart = std::max(commStart, tile->quiesceTime());

    std::size_t words = 0;
    if (inst.op == Opcode::Reduce) {
        words = inst.srcA.len;
        nocWords_ = words;
        if (timingOnly_) {
            for (auto &tile : tiles_)
                tile->operandSpan(inst.srcA); // bounds check only
        } else {
            commStage_.resize(tiles_.size());
            for (std::size_t t = 0; t < tiles_.size(); ++t)
                tiles_[t]->readOperandInto(inst.srcA, commStage_[t]);
            Noc::combineInto(commStage_, inst.flags.reduceOp,
                             nocBuffer_);
        }
        if (!fastActive_) {
            nocEnergyPj_ += noc_.reduceEnergyPj(words);
            noc_.recordReduce(words, noc_.reduceCycles(words));
            chipTime_ = commStart + noc_.reduceCycles(words);
        }

        if (tag == CommTag::ReadVectorOut) {
            const std::uint32_t h = compiler::commIndexOf(inst.count);
            MANNA_ASSERT(h < readVectors_.size(),
                         "read-vector index %u out of range", h);
            if (!timingOnly_)
                readVectors_[h].assign(nocBuffer_.begin(),
                                       nocBuffer_.end());
        } else if (tag == CommTag::UsageToAllocation) {
            // DNC only: the Controller tile runs the free-list scan on
            // the reduced usage vector with the golden model's own
            // code. The scan is functional state, so it runs in every
            // fidelity with data; its latency (a ~N log2 N sort
            // network) and its energy (one SFU-class op per element)
            // depend only on N and are charged while timing is
            // modelled.
            const auto n = static_cast<std::uint32_t>(words);
            if (!timingOnly_)
                nocBuffer_ = mann::dncAllocationFromUsage(nocBuffer_);
            if (!fastActive_) {
                chipTime_ += static_cast<Cycle>(n) *
                             std::max<std::uint32_t>(log2Ceil(n), 1);
                const Energy scanPj =
                    static_cast<double>(n) *
                    energy_.eventEnergyPj(arch::EnergyEvent::SfuOp);
                ctrlEnergyPj_ += scanPj;
                groups_[mann::KernelGroup::Addressing].energyPj +=
                    scanPj;
            }
        }
    } else {
        MANNA_ASSERT(inst.op == Opcode::Broadcast,
                     "unexpected comm opcode");
        if (tag == CommTag::HiddenIn) {
            // Payload comes from the Controller tile at the root; the
            // broadcast cannot start before the controller finished.
            // It is the hidden state plus the bias lane.
            commStart = std::max(commStart, controllerReady_);
            nocWords_ = shape_.hiddenDim() + 1;
            if (!timingOnly_)
                nocBuffer_.assign(pendingHidden_.begin(),
                                  pendingHidden_.end());
        }
        words = inst.dst.len;
        MANNA_ASSERT(nocWords_ == words,
                     "broadcast of %zu words but NoC buffer holds %zu",
                     words, nocWords_);
        for (auto &tile : tiles_) {
            if (timingOnly_)
                tile->operandSpan(inst.dst); // bounds check only
            else
                tile->writeOperand(inst.dst, nocBuffer_);
        }
        if (!fastActive_) {
            nocEnergyPj_ += noc_.broadcastEnergyPj(words);
            noc_.recordBroadcast(words, noc_.broadcastCycles(words));
            chipTime_ = commStart + noc_.broadcastCycles(words);
        }
    }

    for (auto &tile : tiles_)
        tile->resumeAfterComm(chipTime_);
}

RunReport
ChipCore::cycleReport() const
{
    RunReport rep;
    rep.steps = steps_;
    rep.totalCycles = chipTime_;
    rep.totalSeconds =
        static_cast<double>(chipTime_) * arch_.cyclePeriodSec();
    rep.dynamicEnergyPj = ctrlEnergyPj_ + nocEnergyPj_;
    for (const auto &tile : tiles_)
        rep.dynamicEnergyPj += tile->energyPj();
    rep.leakageEnergyPj =
        energy_.leakageWatts() * rep.totalSeconds * 1e12;
    rep.infrastructureEnergyPj =
        energy_.infrastructureWatts() * rep.totalSeconds * 1e12;
    rep.groups = groups_;
    populateRunStats(rep, tiles_, noc_, ctrlModel_);
    return rep;
}

RunReport
ChipCore::report() const
{
    RunReport rep;
    std::size_t calibrated = 0;
    std::size_t extrapolated = 0;
    if (fastActive_ && steps_ > kFastCalibrationSteps)
        rep = extrapolateRunReport(calib1_, calib2_, steps_);
    else if (fastActive_)
        rep = calib2_; // exactly the calibration prefix was run
    else
        rep = cycleReport();
    if (fidelity_ == Fidelity::Fast) {
        calibrated = std::min(steps_, kFastCalibrationSteps);
        extrapolated = steps_ - calibrated;
    }
    markFidelity(rep, fidelity_, calibrated, extrapolated,
                 analyticCyclesPerStep(shape_, arch_));
    return rep;
}

void
ChipCore::attachTrace(TraceLogger *logger)
{
    for (auto &tile : tiles_)
        tile->setTraceLogger(logger);
}

TimingChip::TimingChip(const compiler::CompiledModel &model,
                       Fidelity fidelity)
    : ChipCore(model.archCfg, tileSizesOf(model.layout),
               model.stepSegments, model.mannCfg, fidelity,
               /*timingOnly=*/true)
{
    reset();
}

void
TimingChip::run(std::size_t steps)
{
    for (std::size_t t = 0; t < steps; ++t)
        advance();
}

mann::Controller &
TimingChip::controller()
{
    panic("a timing-only chip has no functional controller");
}

Chip::Chip(const compiler::CompiledModel &model, std::uint64_t seed,
           Fidelity fidelity)
    : ChipCore(model.archCfg, tileSizesOf(model.layout),
               model.stepSegments, model.mannCfg, fidelity),
      model_(model), ntm_(model.mannCfg, seed)
{
    reset();
}

void
Chip::loadState()
{
    const auto &layout = model_.layout;
    const auto &mc = model_.mannCfg;

    // Differentiable memory slices (initial NTM image).
    ntm_.reset();
    loadPartition(layout.memory, ntm_.memory().matrix());

    // Head weight slices (read heads then write heads), with the head
    // bias appended as an extra column multiplied by the augmented
    // constant-one hidden lane; plus the initial previous weighting
    // (all attention on global row 0).
    const std::size_t numHeads = mc.numReadHeads + mc.numWriteHeads;
    for (std::size_t h = 0; h < numHeads; ++h) {
        const bool isWrite = h >= mc.numReadHeads;
        const mann::Head &head =
            isWrite ? ntm_.writeHeads()[h - mc.numReadHeads]
                    : ntm_.readHeads()[h];
        const auto &part = layout.headWeights[h];
        MANNA_ASSERT(part.cols == head.weights().cols() + 1,
                     "head %zu layout cols %u != weights cols %zu + 1",
                     h, part.cols, head.weights().cols());
        for (std::size_t t = 0; t < tiles_.size(); ++t) {
            const std::uint32_t rows = part.rowCount[t];
            const std::uint32_t start = part.rowStart[t];
            for (std::uint32_t r = 0; r < rows; ++r) {
                tensor::FVec row = head.weights().row(start + r);
                row.push_back(head.bias()[start + r]);
                tiles_[t]->memory().writeRange(
                    isa::Space::MatBuf, part.base + r * part.cols,
                    row);
            }
        }

        for (std::size_t t = 0; t < tiles_.size(); ++t) {
            const std::uint32_t rows = layout.memory.rowCount[t];
            if (rows == 0)
                continue;
            std::vector<float> wPrev(rows, 0.0f);
            if (layout.memory.rowStart[t] == 0)
                wPrev[0] = 1.0f; // matches Ntm::reset()
            tiles_[t]->memory().writeRange(isa::Space::VecBuf,
                                           layout.wPrevBase[h], wPrev);
        }
    }
}

tensor::FMat
Chip::gatherMemory() const
{
    return gatherPartition(model_.layout.memory, model_.mannCfg.memN);
}

} // namespace manna::sim
