/**
 * @file
 * End-to-end validation of the whole stack: compiled tile programs
 * running on the cycle-level chip model must reproduce the golden
 * NTM's outputs, read vectors, and memory contents within FP
 * reassociation tolerance, across shapes, head counts, tile counts,
 * and controller kinds.
 */

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/strutil.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "mann/ntm.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"
#include "workloads/benchmarks.hh"

namespace manna::sim
{
namespace
{

using mann::MannConfig;
using tensor::FVec;

MannConfig
makeConfig(std::size_t memN, std::size_t memM, std::size_t readHeads,
           std::size_t writeHeads, std::size_t width = 32)
{
    MannConfig cfg;
    cfg.memN = memN;
    cfg.memM = memM;
    cfg.numReadHeads = readHeads;
    cfg.numWriteHeads = writeHeads;
    cfg.controllerLayers = 1;
    cfg.controllerWidth = width;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

/** Run chip and golden side by side; return max observed deviation. */
struct Deviation
{
    float output = 0.0f;
    float reads = 0.0f;
    float memory = 0.0f;
};

Deviation
compareChipToGolden(const MannConfig &mc, const arch::MannaConfig &ac,
                    std::size_t steps, std::uint64_t seed = 11)
{
    const auto model = compiler::compile(mc, ac);
    Chip chip(model, seed);
    mann::Ntm golden(mc, seed);
    Rng rng(seed * 31 + 1);

    Deviation dev;
    for (std::size_t t = 0; t < steps; ++t) {
        FVec x(mc.inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const auto goldenTrace = golden.step(x);
        const FVec out = chip.step(x);
        dev.output = std::max(
            dev.output, tensor::maxAbsDiff(out, goldenTrace.output));
        for (std::size_t h = 0; h < mc.numReadHeads; ++h)
            dev.reads = std::max(
                dev.reads,
                tensor::maxAbsDiff(chip.readVectors()[h],
                                   goldenTrace.readVectors[h]));
        dev.memory = std::max(dev.memory,
                              chip.gatherMemory().maxAbsDiff(
                                  golden.memory().matrix()));
    }
    return dev;
}

TEST(Chip, MatchesGoldenSmall)
{
    const auto dev = compareChipToGolden(
        makeConfig(64, 32, 1, 1), arch::MannaConfig::withTiles(4), 6);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenMultiHead)
{
    const auto dev = compareChipToGolden(
        makeConfig(64, 24, 3, 2), arch::MannaConfig::withTiles(4), 5);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenSixteenTiles)
{
    const auto dev = compareChipToGolden(
        makeConfig(128, 32, 2, 1), arch::MannaConfig::baseline16(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenNonDivisibleRows)
{
    // 72 rows over 16 tiles: ceil partition gives uneven row counts
    // (8 tiles of 5, then 32/..., including the remainder path).
    const auto dev = compareChipToGolden(
        makeConfig(72, 20, 1, 1), arch::MannaConfig::baseline16(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenWiderShiftKernel)
{
    // Shift radius 2 exercises the five-tap circular convolution and
    // the wider halo exchange.
    MannConfig cfg = makeConfig(64, 24, 2, 1);
    cfg.shiftRadius = 2;
    const auto dev = compareChipToGolden(
        cfg, arch::MannaConfig::withTiles(8), 5);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenLstmController)
{
    MannConfig cfg = makeConfig(64, 16, 1, 1);
    cfg.controllerKind = mann::ControllerKind::LSTM;
    const auto dev = compareChipToGolden(
        cfg, arch::MannaConfig::withTiles(4), 5);
    EXPECT_LT(dev.output, 1e-3f);
}

TEST(Chip, MatchesGoldenWithoutDmat)
{
    // The ablation variants change timing, never functionality.
    const auto dev = compareChipToGolden(
        makeConfig(64, 32, 2, 1), arch::MannaConfig::memHeavy(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

class ChipShapeSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int>>
{
};

TEST_P(ChipShapeSweep, MatchesGolden)
{
    const auto [memN, memM, readHeads, writeHeads, tiles] = GetParam();
    const auto dev = compareChipToGolden(
        makeConfig(static_cast<std::size_t>(memN),
                   static_cast<std::size_t>(memM),
                   static_cast<std::size_t>(readHeads),
                   static_cast<std::size_t>(writeHeads)),
        arch::MannaConfig::withTiles(static_cast<std::size_t>(tiles)),
        3);
    EXPECT_LT(dev.output, 2e-3f);
    EXPECT_LT(dev.reads, 2e-3f);
    EXPECT_LT(dev.memory, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChipShapeSweep,
    ::testing::Values(std::tuple{32, 8, 1, 1, 2},
                      std::tuple{64, 40, 2, 1, 8},
                      std::tuple{96, 16, 1, 2, 4},
                      std::tuple{128, 64, 4, 1, 16},
                      std::tuple{80, 48, 5, 1, 16},
                      std::tuple{100, 12, 2, 2, 4}));

// ---------------------------------------------------------------------
// Determinism / state management
// ---------------------------------------------------------------------

TEST(Chip, DeterministicAcrossRuns)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip a(model, 5);
    Chip b(model, 5);
    const FVec x(mc.inputDim, 0.25f);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(a.step(x), b.step(x));
    EXPECT_EQ(a.report().totalCycles, b.report().totalCycles);
}

TEST(Chip, ResetRestoresInitialState)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 5);
    const FVec x(mc.inputDim, 0.5f);
    const FVec first = chip.step(x);
    chip.step(x);
    chip.reset();
    EXPECT_EQ(chip.report().steps, 0u);
    EXPECT_EQ(chip.report().totalCycles, 0u);
    EXPECT_LT(tensor::maxAbsDiff(first, chip.step(x)), 1e-6f);
}

TEST(Chip, InitialMemoryMatchesGoldenInit)
{
    const MannConfig mc = makeConfig(48, 12, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 9);
    const tensor::FMat mem = chip.gatherMemory();
    for (float v : mem.data())
        EXPECT_FLOAT_EQ(v, 1e-6f);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

TEST(Chip, ReportCoversAllKernelGroups)
{
    const MannConfig mc = makeConfig(64, 16, 2, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    chip.step(FVec(mc.inputDim, 0.1f));
    const RunReport rep = chip.report();
    EXPECT_EQ(rep.steps, 1u);
    EXPECT_GT(rep.totalCycles, 0u);
    EXPECT_GT(rep.totalEnergyPj(), 0.0);
    for (mann::KernelGroup g : mann::allKernelGroups()) {
        ASSERT_TRUE(rep.groups.count(g)) << mann::toString(g);
        EXPECT_GT(rep.groups.at(g).cycles, 0u) << mann::toString(g);
        EXPECT_GT(rep.groups.at(g).energyPj, 0.0) << mann::toString(g);
    }
    // Group cycles sum to the total (segments partition the step).
    Cycle groupSum = 0;
    for (const auto &[g, gs] : rep.groups)
        groupSum += gs.cycles;
    EXPECT_EQ(groupSum, rep.totalCycles);
}

TEST(Chip, EnergyAndTimeGrowWithSteps)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    const FVec x(mc.inputDim, 0.1f);
    chip.step(x);
    const auto one = chip.report();
    chip.step(x);
    const auto two = chip.report();
    EXPECT_GT(two.totalCycles, one.totalCycles);
    EXPECT_GT(two.totalEnergyPj(), one.totalEnergyPj());
    EXPECT_GT(two.stepsPerJoule(), 0.0);
    EXPECT_GT(one.secondsPerStep(), 0.0);
}

struct PinnedTiming
{
    Cycle cycles = 0;
    Energy dynamicPj = 0.0;
    std::uint64_t statsDigest = 0;
};

PinnedTiming
runPinned(Fidelity fidelity)
{
    const MannConfig mc = makeConfig(32, 8, 1, 1);
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 5, fidelity);
    Rng rng(29);
    for (std::size_t t = 0; t < 4; ++t) {
        FVec x(mc.inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        chip.step(x);
    }
    const RunReport rep = chip.report();
    const std::string json = rep.stats.toJson();
    PinnedTiming pin;
    pin.cycles = rep.totalCycles;
    pin.dynamicPj = rep.dynamicEnergyPj;
    pin.statsDigest = Fnv1a().bytes(json.data(), json.size()).value();
    return pin;
}

void
expectPinned(const PinnedTiming &pin, Cycle cycles, double dynamicPj,
             std::uint64_t digest)
{
    EXPECT_EQ(pin.cycles, cycles);
    // Bit-exact: the energy is a sum of the same terms in the same
    // order on every run.
    EXPECT_EQ(pin.dynamicPj, dynamicPj)
        << strformat("%a", pin.dynamicPj);
    EXPECT_EQ(pin.statsDigest, digest)
        << strformat("0x%016llx",
                     static_cast<unsigned long long>(pin.statsDigest));
}

// The NTM's cycle count, energy and every stats counter (the exact
// JSON of the registry) are pinned, so a change to the chip, the tile
// interpreter or the counter plumbing that moves one cycle, one
// picojoule or one counter fails here.
TEST(Chip, PinnedCycleTiming)
{
    expectPinned(runPinned(Fidelity::Cycle), 4172, 0x1.1901a6d7c5e2ap+18,
                 0x45ce91da94e684ceull);
}

TEST(Chip, PinnedFastTiming)
{
    expectPinned(runPinned(Fidelity::Fast), 4172, 0x1.1901a6d7c5e1p+18,
                 0xc958719a3b2f3a27ull);
}

TEST(Chip, RenderReportMentionsGroups)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    chip.step(FVec(mc.inputDim, 0.0f));
    const std::string text = chip.report().render();
    EXPECT_NE(text.find("soft-read"), std::string::npos);
    EXPECT_NE(text.find("steps/J"), std::string::npos);
}

// ---------------------------------------------------------------------
// Timing-only chip: the report of a run with no tensor data must be
// the functional chip's, bit for bit, under any seed and inputs.
// ---------------------------------------------------------------------

std::uint64_t
statsDigest(const RunReport &rep)
{
    const std::string json = rep.stats.toJson();
    return Fnv1a().bytes(json.data(), json.size()).value();
}

void
expectSameReport(const RunReport &timing, const RunReport &functional)
{
    EXPECT_EQ(timing.steps, functional.steps);
    EXPECT_EQ(timing.totalCycles, functional.totalCycles);
    EXPECT_EQ(timing.dynamicEnergyPj, functional.dynamicEnergyPj)
        << strformat("%a vs %a", timing.dynamicEnergyPj,
                     functional.dynamicEnergyPj);
    EXPECT_EQ(timing.totalEnergyPj(), functional.totalEnergyPj());
    ASSERT_EQ(timing.groups.size(), functional.groups.size());
    for (const auto &[group, gs] : functional.groups) {
        const auto it = timing.groups.find(group);
        ASSERT_NE(it, timing.groups.end()) << mann::toString(group);
        EXPECT_EQ(it->second.cycles, gs.cycles) << mann::toString(group);
        EXPECT_EQ(it->second.energyPj, gs.energyPj)
            << mann::toString(group);
    }
    EXPECT_EQ(timing.stats.size(), functional.stats.size());
    EXPECT_EQ(statsDigest(timing), statsDigest(functional));
}

/** Report of a functional chip stepped @p steps times on random
 * inputs drawn from @p seed (which also seeds its golden model). */
template <typename FunctionalChip, typename Model>
RunReport
functionalReport(const Model &model, std::size_t inputDim,
                 std::uint64_t seed, Fidelity fidelity, std::size_t steps)
{
    FunctionalChip chip(model, seed, fidelity);
    Rng rng(seed * 31 + 1);
    for (std::size_t t = 0; t < steps; ++t) {
        FVec x(inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        chip.step(x);
    }
    return chip.report();
}

/** Cycle fidelity at 3 steps and fast fidelity at 6 (2 calibration
 * steps, 4 extrapolated), each against two seeds. */
template <typename FunctionalChip, typename Model>
void
expectTimingOnlyMatches(const Model &model, std::size_t inputDim)
{
    const std::pair<Fidelity, std::size_t> runs[] = {
        {Fidelity::Cycle, 3}, {Fidelity::Fast, 6}};
    for (const auto &[fidelity, steps] : runs) {
        TimingChip timing(model, fidelity);
        timing.run(steps);
        const RunReport rep = timing.report();
        for (const std::uint64_t seed : {1ull, 977ull}) {
            SCOPED_TRACE(strformat("fidelity=%s steps=%zu seed=%llu",
                                   toString(fidelity), steps,
                                   static_cast<unsigned long long>(seed)));
            expectSameReport(rep, functionalReport<FunctionalChip>(
                                      model, inputDim, seed, fidelity,
                                      steps));
        }
    }
}

void
expectTable2Matches(const std::string &name, std::size_t tiles)
{
    SCOPED_TRACE(strformat("%s at %zu tiles", name.c_str(), tiles));
    const auto &bench = workloads::benchmarkByName(name);
    const auto model = compiler::compile(
        bench.config, arch::MannaConfig::withTiles(tiles));
    expectTimingOnlyMatches<Chip>(model, bench.config.inputDim);
}

TEST(TimingOnly, EveryTable2ModelMatchesChipAt16Tiles)
{
    for (const auto &bench : workloads::table2Suite())
        expectTable2Matches(bench.name, 16);
}

TEST(TimingOnly, MatchesChipAt4And64Tiles)
{
    for (const char *name : {"recall", "sort"})
        for (const std::size_t tiles : {4, 64})
            expectTable2Matches(name, tiles);
}

// The DNC's allocation scan sorts the reduced usage vector: the one
// place where data could reach timing.
TEST(TimingOnly, DncMatchesDncChip)
{
    mann::DncConfig dc;
    dc.memN = 64;
    dc.memM = 16;
    dc.numReadHeads = 2;
    dc.controllerWidth = 32;
    dc.inputDim = 6;
    dc.outputDim = 5;
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    expectTimingOnlyMatches<DncChip>(model, dc.inputDim);
}

TEST(TimingOnly, ChromeTraceIsByteIdentical)
{
    const MannConfig mc = makeConfig(64, 16, 2, 1);
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    TraceLogger functionalLog(1 << 20);
    Chip chip(model, 3);
    chip.attachTrace(&functionalLog);
    chip.run({FVec(mc.inputDim, 0.5f), FVec(mc.inputDim, -0.25f)});

    TraceLogger timingLog(1 << 20);
    TimingChip timing(model);
    timing.attachTrace(&timingLog);
    timing.run(2);

    ASSERT_FALSE(timingLog.entries().empty());
    EXPECT_EQ(timingLog.dropped(), 0u);
    EXPECT_EQ(timingLog.renderChromeTrace(),
              functionalLog.renderChromeTrace());
}

TEST(TimingOnly, TilesHoldNoDataButCheckBounds)
{
    arch::MannaConfig cfg = arch::MannaConfig::withTiles(4);
    arch::EnergyModel energy(cfg);
    DiffMemTile tile(cfg, energy, 0, TileLayoutSizes{64, 64, 64, 64},
                     ExecMode::TimingOnly);
    EXPECT_EQ(tile.memory().words(isa::Space::VecBuf), 64u);
    EXPECT_EQ(tile.memory().span(isa::Space::VecBuf, 0, 64), nullptr);

    isa::Program ok;
    isa::Instruction fill;
    fill.op = isa::Opcode::Fill;
    fill.dst = isa::makeOperand(isa::Space::VecBuf, 48, 16);
    ok.append(fill);
    tile.setProgram(&ok);
    EXPECT_EQ(tile.runUntilComm(), RunStatus::Done);
    EXPECT_EQ(tile.counter(TileCounter::Instructions), 1.0);
    EXPECT_GT(tile.energyPj(), 0.0);

    isa::Program bad;
    fill.dst = isa::makeOperand(isa::Space::VecBuf, 60, 16);
    bad.append(fill);
    tile.setProgram(&bad);
    EXPECT_DEATH(tile.runUntilComm(), "out of");
    EXPECT_DEATH(tile.memory().read(isa::Space::VecBuf, 0),
                 "size-only");
}

} // namespace
} // namespace manna::sim
