/**
 * @file
 * Cycle-level model of one DiffMem tile (Section 4.2).
 *
 * The tile interprets its compiled program. Every instruction has
 * functional semantics (FP32 math over the tile's memory spaces) and
 * timing semantics expressed through resource timelines:
 *
 *  - the eMAC array (compute instructions),
 *  - the SFU (serial special functions),
 *  - the matrix DMA/DMAT engine and the vector DMA engine,
 *  - the two halves of the double-buffered Matrix-Scratchpad.
 *
 * An instruction starts at the maximum of its resource-free time and
 * its data dependencies, and the issue pointer advances by one cycle,
 * so DMA transfers naturally run ahead of compute (double buffering)
 * while the per-half write/read trackers enforce buffer reuse
 * ordering. Communication instructions (Reduce/Broadcast) suspend the
 * tile; the Chip performs the exchange and resumes every tile at the
 * synchronized time (the paper's fence semantics).
 *
 * ExecMode selects which semantics run: both (the cycle-accurate
 * interpreter), functional only (the steps of fidelity=fast after its
 * calibration prefix) or timing only (sim::TimingChip). The
 * functional half of every mode with data is one shared routine,
 * execTileOp() (sim/tile_ops.hh).
 */

#ifndef MANNA_SIM_TILE_HH
#define MANNA_SIM_TILE_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stat_registry.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "sim/counters.hh"
#include "sim/tile_ops.hh"
#include "sim/tile_memory.hh"
#include "sim/trace.hh"

namespace manna::sim
{

/** Why runUntilComm() returned. */
enum class RunStatus
{
    Done,  ///< program finished (end or Halt)
    AtComm ///< blocked on a Reduce/Broadcast
};

/**
 * The tile's event counters, exported as "tile.<t>.<name>" (names in
 * kTileCounterNames). The 32 stall counters of the four engines form
 * one engine-major block: stall (lane, reason) lives at
 * StallBase + lane * kNumStallReasons + reason.
 */
enum class TileCounter : std::size_t
{
    EmacBusyCycles,
    EmacMacOps,
    EmacElwiseOps,
    SfuBusyCycles,
    SfuOps,
    MatDmaBusyCycles,
    MatDmaWords,
    VecDmaBusyCycles,
    VecDmaWords,
    DmatLoads,
    DmatTransferCycles,
    SpadConflictFreeWords,
    SpadConflictWords,
    Instructions,
    CommInstructions,
    StallBase,
    NumCounters = StallBase + kNumLanes * kNumStallReasons,
};

constexpr std::size_t kNumTileCounters =
    static_cast<std::size_t>(TileCounter::NumCounters);

/** Registry name of every TileCounter, in enum order. */
constexpr const char *kTileCounterNames[] = {
    "emac.busy_cycles",
    "emac.mac_ops",
    "emac.elwise_ops",
    "sfu.busy_cycles",
    "sfu.ops",
    "mat_dma.busy_cycles",
    "mat_dma.words",
    "vec_dma.busy_cycles",
    "vec_dma.words",
    "dmat.loads",
    "dmat.transfer_cycles",
    "spad.conflict_free_words",
    "spad.conflict_words",
    "instructions",
    "comm_instructions",
    "emac.stall.issue",
    "emac.stall.ctrl",
    "emac.stall.fence",
    "emac.stall.drain",
    "emac.stall.dma",
    "emac.stall.compute",
    "emac.stall.sfu_serial",
    "emac.stall.bank_conflict",
    "sfu.stall.issue",
    "sfu.stall.ctrl",
    "sfu.stall.fence",
    "sfu.stall.drain",
    "sfu.stall.dma",
    "sfu.stall.compute",
    "sfu.stall.sfu_serial",
    "sfu.stall.bank_conflict",
    "mat_dma.stall.issue",
    "mat_dma.stall.ctrl",
    "mat_dma.stall.fence",
    "mat_dma.stall.drain",
    "mat_dma.stall.dma",
    "mat_dma.stall.compute",
    "mat_dma.stall.sfu_serial",
    "mat_dma.stall.bank_conflict",
    "vec_dma.stall.issue",
    "vec_dma.stall.ctrl",
    "vec_dma.stall.fence",
    "vec_dma.stall.drain",
    "vec_dma.stall.dma",
    "vec_dma.stall.compute",
    "vec_dma.stall.sfu_serial",
    "vec_dma.stall.bank_conflict",
};
static_assert(std::size(kTileCounterNames) == kNumTileCounters,
              "one name per TileCounter");

/** Counter-name prefix of each engine lane, in TraceLane order. */
constexpr const char *kEngineNames[kNumLanes] = {"emac", "sfu",
                                                 "mat_dma", "vec_dma"};

/**
 * What executing an instruction does on a tile. TimingAndData is the
 * cycle-accurate interpreter; DataOnly is fidelity=fast after its
 * calibration prefix (tensor math only, the chip extrapolates the
 * accounting); TimingOnly is the timing-only chip's (every timeline,
 * stall, energy, counter and trace record, but no tensor math).
 */
enum class ExecMode
{
    TimingAndData,
    DataOnly,
    TimingOnly,
};

/** Per-space word counts for the tile's functional storage. */
struct TileLayoutSizes
{
    std::size_t matBufWords = 0;
    std::size_t matSpadWords = 0;
    std::size_t vecBufWords = 0;
    std::size_t vecSpadWords = 0;
};

/**
 * One DiffMem tile.
 */
class DiffMemTile
{
  public:
    /** A TimingOnly tile gets a size-only memory (sim/tile_memory.hh);
     * the other modes get zeroed storage. */
    DiffMemTile(const arch::MannaConfig &cfg,
                const arch::EnergyModel &energy, std::size_t tileIndex,
                const TileLayoutSizes &sizes,
                ExecMode mode = ExecMode::TimingAndData);

    /** Install a program and reset the program counter / loop state
     * (timing state is preserved across programs). */
    void setProgram(const isa::Program *program);

    /** Run until the program ends or a communication instruction. */
    RunStatus runUntilComm();

    /** The communication instruction currently blocking (AtComm). */
    const isa::Instruction &commInstruction() const;

    /**
     * Resolve an operand against the current loop iteration state
     * (applies the per-level strides to the base address).
     */
    isa::Operand resolveOperand(const isa::Operand &op) const;

    /** Read/write a resolved operand's data (used by the chip for
     * communication). The read assigns into @p out, reusing its
     * capacity (the chip's per-tile scratch buffers). */
    void readOperandInto(const isa::Operand &op,
                         std::vector<float> &out) const;
    void writeOperand(const isa::Operand &op,
                      const std::vector<float> &values);

    /**
     * Advance past the blocking communication instruction and fence
     * all timing state to @p resumeAt (idle time charged to
     * `stall.fence`).
     */
    void resumeAfterComm(Cycle resumeAt);

    /**
     * Fence all timing state to @p at (segment boundaries). Each
     * engine's idle time up to the drain point is attributed to the
     * engine that finished last (e.g. `stall.sfu_serial` when the
     * serial SFU is the tail); the remaining wait until @p at is
     * charged to @p reason.
     */
    void alignTo(Cycle at, StallReason reason = StallReason::Drain);

    /** Zero all timing state, counters, and energy (chip reset). The
     * functional memory and the execution mode are the chip's to
     * reinitialize. */
    void reset();

    /** Time at which every outstanding operation has completed. */
    Cycle quiesceTime() const { return maxEnd_; }

    /** Current issue-pointer time. */
    Cycle now() const { return now_; }

    /** Accumulated dynamic energy in pJ. */
    Energy energyPj() const { return energyPj_; }

    /** Functional storage (for loading weights / inspecting state). */
    TileMemory &memory() { return mem_; }
    const TileMemory &memory() const { return mem_; }

    std::size_t tileIndex() const { return tileIndex_; }

    /** One event counter (macs, elwise ops, sfu ops, words, ...). */
    double counter(TileCounter k) const { return counters_[k]; }

    /** Busy cycles of one engine. */
    double busyCycles(TraceLane lane) const
    {
        return counters_[kBusyCounter[static_cast<std::size_t>(lane)]];
    }

    /** Cycles one engine spent stalled for @p reason. */
    double stallCycles(TraceLane lane, StallReason reason) const
    {
        return counters_.values[stallIndex(lane, reason)];
    }

    /** Write every counter into @p reg as "<prefix>.<name>". */
    void exportCounters(StatRegistry &reg,
                        const std::string &prefix) const
    {
        counters_.exportTo(reg, prefix, kTileCounterNames);
    }

    /**
     * Write the per-opcode execution profile into @p reg as
     * "<prefix>.<opcode>.{cycles,ops,words}" (opcode names via
     * isa::profileKey()), covering every executed non-communication
     * instruction. `cycles` is the engine-busy time attributed to the
     * opcode, so per engine lane the profile cycles sum exactly to
     * that engine's busy_cycles.
     */
    void exportOpProfile(StatRegistry &reg,
                         const std::string &prefix) const;

    /** Attach (or detach, with nullptr) an instruction tracer. */
    void setTraceLogger(TraceLogger *logger) { trace_ = logger; }

    /**
     * Select what instructions do (see ExecMode). DataOnly skips the
     * resource timelines, stall attribution, energy charges,
     * per-opcode profile and trace records; TimingOnly skips only the
     * tensor math, so it needs no data in memory(). Operand bounds
     * and geometry are checked in every mode.
     */
    void setExecMode(ExecMode mode) { mode_ = mode; }

    /** Resolved span of @p op against current loop state; bounds-
     * checks the operand (nullptr on a size-only memory). */
    const float *operandSpan(const isa::Operand &op) const;

  private:
    /** Busy counter of each engine, in TraceLane order. */
    static constexpr TileCounter kBusyCounter[kNumLanes] = {
        TileCounter::EmacBusyCycles, TileCounter::SfuBusyCycles,
        TileCounter::MatDmaBusyCycles, TileCounter::VecDmaBusyCycles};

    static constexpr std::size_t stallIndex(TraceLane lane,
                                            StallReason reason)
    {
        return static_cast<std::size_t>(TileCounter::StallBase) +
               static_cast<std::size_t>(lane) * kNumStallReasons +
               static_cast<std::size_t>(reason);
    }

    /** Add @p cycles to the (lane, reason) stall counter. */
    void addStall(TraceLane lane, StallReason reason, double cycles)
    {
        counters_.values[stallIndex(lane, reason)] += cycles;
    }

    /** Execute @p op via the shared functional implementation
     * (sim/tile_ops.cc). Called by the exec* handlers in every mode
     * with data, so cycle-accurate and DataOnly steps share one
     * functional code path. A TimingOnly tile has no data, so there
     * is nothing to execute. */
    void runFunctional(const TileOp &op)
    {
        if (mode_ == ExecMode::TimingOnly)
            return;
        execTileOp(op);
    }

    /** True unless DataOnly: the timelines and accounting run. */
    bool timed() const { return mode_ != ExecMode::DataOnly; }

    // --- execution helpers -------------------------------------------
    void execute(const isa::Instruction &inst);
    void execDmaMatrix(const isa::Instruction &inst);
    void execDmaVector(const isa::Instruction &inst);
    void execVmm(const isa::Instruction &inst);
    void execElementwise(const isa::Instruction &inst);
    void execSfu(const isa::Instruction &inst);

    /**
     * Start-time election with stall attribution: starts at the
     * engine's free time and takes the max over every candidate
     * constraint, remembering which one won (ties go to the higher
     * StallReason enumerator — the more specific explanation).
     */
    struct StallPicker
    {
        Cycle at;
        StallReason why = StallReason::Issue;

        explicit StallPicker(Cycle engineFree) : at(engineFree) {}

        void consider(Cycle t, StallReason r)
        {
            if (t > at || (t == at && r > why)) {
                at = t;
                why = r;
            }
        }
    };

    /** Charge the gap between the engine's free time and the elected
     * start to the winning stall reason. */
    void attributeStall(TraceLane lane, const StallPicker &picker);

    /** Data-dependency constraint for reading a resolved operand. */
    void readDependency(const isa::Operand &op, StallPicker &p) const;

    /** Constraint for writing a resolved operand (WAR/WAW). */
    void writeDependency(const isa::Operand &op, StallPicker &p) const;

    /** Record a write's completion for later dependents, tagged with
     * the stall reason its consumers will report while waiting. */
    void noteWrite(const isa::Operand &op, Cycle end,
                   StallReason producer);

    /** Record a read's completion (for scratchpad-half reuse). */
    void noteRead(const isa::Operand &op, Cycle end);

    /**
     * Matrix-Scratchpad half selection. The double-buffered halves
     * rotate with each matrix DMA load: loads target alternating
     * halves and every MatSpad access between two loads belongs to
     * the most recently loaded half. This models the paper's
     * fill-one-half-while-computing-on-the-other pipeline (Figure 8)
     * without requiring the compiler to alternate addresses.
     */
    std::size_t loadHalf() const { return dmaLoadCount_ % 2; }
    std::size_t computeHalf() const
    {
        return dmaLoadCount_ == 0 ? 0 : (dmaLoadCount_ - 1) % 2;
    }

    /** Charge energy for @p count occurrences of an event. */
    void charge(arch::EnergyEvent ev, double count);

    /** Energy event for accessing a space. */
    arch::EnergyEvent accessEvent(isa::Space space) const;

    void finish(Cycle end);

    // --- configuration ------------------------------------------------
    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    std::size_t tileIndex_;

    // --- functional state ----------------------------------------------
    TileMemory mem_;

    // --- program state ---------------------------------------------------
    const isa::Program *program_ = nullptr;
    std::size_t pc_ = 0;
    struct LoopFrame
    {
        std::size_t bodyPc;    ///< pc of the first body instruction
        std::uint32_t count;   ///< trip count
        std::int64_t iter;     ///< current iteration
    };
    std::vector<LoopFrame> loopStack_;
    std::int64_t iters_[isa::kMaxLoopDepth] = {0, 0, 0};

    /** Engine free time, indexed by TraceLane. */
    Cycle &freeTime(TraceLane lane)
    {
        return engineFree_[static_cast<std::size_t>(lane)];
    }
    Cycle freeTime(TraceLane lane) const
    {
        return engineFree_[static_cast<std::size_t>(lane)];
    }

    // --- timing state ------------------------------------------------------
    Cycle now_ = 0;
    Cycle engineFree_[kNumLanes] = {0, 0, 0, 0};
    Cycle spadWriteEnd_[2] = {0, 0};
    Cycle spadReadEnd_[2] = {0, 0};
    Cycle lastWrite_[5] = {0, 0, 0, 0, 0}; ///< indexed by Space
    /** Stall reason a reader blames while waiting on spadWriteEnd_ /
     * lastWrite_ (who produced the pending value). */
    StallReason spadWriteWhy_[2] = {StallReason::Issue,
                                    StallReason::Issue};
    StallReason lastWriteWhy_[5] = {
        StallReason::Issue, StallReason::Issue, StallReason::Issue,
        StallReason::Issue, StallReason::Issue};
    Cycle maxEnd_ = 0;
    Cycle lastEnd_ = 0; ///< end time of the most recent instruction
    std::uint64_t dmaLoadCount_ = 0; ///< matrix loads issued (parity)

    // --- accounting ----------------------------------------------------------
    Energy energyPj_ = 0.0;
    /** Exported in full, so profile consumers (and the docs catalog
     * lint) always see every key, even for stall reasons a workload
     * never hits. */
    Counters<TileCounter, kNumTileCounters> counters_;
    /** Per-opcode totals (indexed by isa::Opcode); named only at
     * report time by exportOpProfile(). */
    double opCycles_[static_cast<std::size_t>(
        isa::Opcode::NumOpcodes)] = {};
    double opOps_[static_cast<std::size_t>(isa::Opcode::NumOpcodes)] =
        {};
    double opWords_[static_cast<std::size_t>(
        isa::Opcode::NumOpcodes)] = {};
    /** Set by each exec* for execute()'s per-opcode accounting. */
    double lastOpBusy_ = 0.0;
    double lastOpWords_ = 0.0;
    TraceLogger *trace_ = nullptr;
    ExecMode mode_;
};

} // namespace manna::sim

#endif // MANNA_SIM_TILE_HH
