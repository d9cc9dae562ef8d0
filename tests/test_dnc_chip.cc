/**
 * @file
 * End-to-end validation of the DNC-on-Manna stack: the compiled
 * per-tile programs running on the cycle-level chip must reproduce
 * the golden DNC's outputs, read vectors, memory, link matrix, and
 * usage vector within FP reassociation tolerance.
 */

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/strutil.hh"
#include "compiler/dnc_codegen.hh"
#include "sim/dnc_chip.hh"
#include "tensor/vector_ops.hh"

namespace manna::sim
{
namespace
{

using mann::DncConfig;
using tensor::FVec;

DncConfig
makeConfig(std::size_t memN, std::size_t memM, std::size_t readHeads)
{
    DncConfig cfg;
    cfg.memN = memN;
    cfg.memM = memM;
    cfg.numReadHeads = readHeads;
    cfg.controllerWidth = 32;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

struct Deviation
{
    float output = 0.0f;
    float reads = 0.0f;
    float memory = 0.0f;
    float link = 0.0f;
    float usage = 0.0f;
};

Deviation
compareToGolden(const DncConfig &dc, const arch::MannaConfig &ac,
                std::size_t steps, std::uint64_t seed = 17)
{
    const auto model = compiler::compileDnc(dc, ac);
    DncChip chip(model, seed);
    mann::Dnc golden(dc, seed);
    Rng rng(seed * 13 + 5);

    Deviation dev;
    for (std::size_t t = 0; t < steps; ++t) {
        FVec x(dc.inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const auto goldTrace = golden.step(x);
        const FVec out = chip.step(x);
        dev.output = std::max(
            dev.output, tensor::maxAbsDiff(out, goldTrace.output));
        for (std::size_t h = 0; h < dc.numReadHeads; ++h)
            dev.reads = std::max(
                dev.reads,
                tensor::maxAbsDiff(chip.readVectors()[h],
                                   goldTrace.readVectors[h]));
        dev.memory = std::max(dev.memory,
                              chip.gatherMemory().maxAbsDiff(
                                  golden.memory().matrix()));
        dev.link = std::max(
            dev.link,
            chip.gatherLink().maxAbsDiff(golden.linkMatrix()));
        dev.usage = std::max(
            dev.usage,
            tensor::maxAbsDiff(chip.gatherUsage(), golden.usage()));
    }
    return dev;
}

TEST(DncChip, MatchesGoldenSmall)
{
    const auto dev = compareToGolden(
        makeConfig(32, 16, 1), arch::MannaConfig::withTiles(4), 5);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
    EXPECT_LT(dev.usage, 1e-3f);
}

TEST(DncChip, MatchesGoldenMultiHead)
{
    const auto dev = compareToGolden(
        makeConfig(48, 20, 3), arch::MannaConfig::withTiles(4), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
}

TEST(DncChip, MatchesGoldenSixteenTiles)
{
    const auto dev = compareToGolden(
        makeConfig(64, 24, 2), arch::MannaConfig::baseline16(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
    EXPECT_LT(dev.usage, 1e-3f);
}

TEST(DncChip, MatchesGoldenNonDivisibleRows)
{
    const auto dev = compareToGolden(
        makeConfig(35, 12, 2), arch::MannaConfig::withTiles(8), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
}

TEST(DncChip, MatchesGoldenWithoutDmat)
{
    const auto dev = compareToGolden(
        makeConfig(32, 16, 2), arch::MannaConfig::memHeavy(), 3);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
}

class DncChipSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(DncChipSweep, MatchesGolden)
{
    const auto [memN, memM, heads, tiles] = GetParam();
    const auto dev = compareToGolden(
        makeConfig(static_cast<std::size_t>(memN),
                   static_cast<std::size_t>(memM),
                   static_cast<std::size_t>(heads)),
        arch::MannaConfig::withTiles(static_cast<std::size_t>(tiles)),
        3);
    EXPECT_LT(dev.output, 2e-3f);
    EXPECT_LT(dev.reads, 2e-3f);
    EXPECT_LT(dev.memory, 2e-3f);
    EXPECT_LT(dev.link, 2e-3f);
    EXPECT_LT(dev.usage, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DncChipSweep,
    ::testing::Values(std::tuple{16, 8, 1, 2},
                      std::tuple{40, 16, 2, 8},
                      std::tuple{64, 12, 4, 16},
                      std::tuple{33, 10, 2, 4}));

TEST(DncChip, DeterministicAndResettable)
{
    const DncConfig dc = makeConfig(32, 16, 1);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip a(model, 3);
    DncChip b(model, 3);
    const FVec x(dc.inputDim, 0.25f);
    const FVec first = a.step(x);
    EXPECT_EQ(first, b.step(x));
    a.step(x);
    a.reset();
    EXPECT_EQ(a.report().steps, 0u);
    EXPECT_EQ(a.step(x), first);
}

TEST(DncChip, ReportCoversSegments)
{
    const DncConfig dc = makeConfig(32, 16, 2);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip chip(model, 3);
    chip.step(FVec(dc.inputDim, 0.1f));
    const RunReport rep = chip.report();
    EXPECT_GT(rep.totalCycles, 0u);
    EXPECT_GT(rep.totalEnergyPj(), 0.0);
    // Addressing (usage/allocation/linkage) must be a visible cost.
    EXPECT_GT(rep.groups.at(mann::KernelGroup::Addressing).cycles,
              0u);
    EXPECT_GT(rep.groups.at(mann::KernelGroup::SoftWrite).cycles, 0u);
}

TEST(DncChip, LinkMatrixCostDominatesForTallMemories)
{
    // memN >> memM: the O(N^2) linkage and link-product kernels
    // should be a large share of the step (the scaling point the
    // dnc_memory example makes).
    const DncConfig dc = makeConfig(128, 8, 1);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip chip(model, 3);
    chip.step(FVec(dc.inputDim, 0.1f));
    const RunReport rep = chip.report();
    const double addressing = static_cast<double>(
        rep.groups.at(mann::KernelGroup::Addressing).cycles);
    const double total = static_cast<double>(rep.totalCycles);
    EXPECT_GT(addressing / total, 0.3);
}

/** Cycles, energy and a digest of the exact stats JSON after a
 * fixed four-step run of a small DNC on four tiles. */
struct PinnedTiming
{
    Cycle cycles = 0;
    Energy dynamicPj = 0.0;
    std::uint64_t statsDigest = 0;
};

PinnedTiming
runPinned(Fidelity fidelity)
{
    const DncConfig dc = makeConfig(32, 8, 2);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip chip(model, 5, fidelity);
    Rng rng(29);
    for (std::size_t t = 0; t < 4; ++t) {
        FVec x(dc.inputDim);
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

// The DNC's cycle count, energy and every stats counter are pinned
// to exact values, so a change to the chip driver that moves DNC
// timing by a single cycle or picojoule fails here.
TEST(DncChip, PinnedCycleTiming)
{
    expectPinned(runPinned(Fidelity::Cycle), 6320, 0x1.54224bfcaba52p+19,
                 0xb13e02c057b8e492ull);
}

TEST(DncChip, PinnedFastTiming)
{
    expectPinned(runPinned(Fidelity::Fast), 6320, 0x1.54224bfcaba8ep+19,
                 0x451aa322ef4ba0e4ull);
}

TEST(DncChipValidation, CompileRejectsTooManyTiles)
{
    try {
        compiler::compileDnc(makeConfig(8, 8, 1),
                             arch::MannaConfig::baseline16());
        FAIL() << "expected AssemblyError";
    } catch (const AssemblyError &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported"),
                  std::string::npos);
        EXPECT_EQ(e.kind(), ErrorKind::Assembly);
    }
}

TEST(DncChip, CommSequencesAlignedAcrossTiles)
{
    const auto model = compiler::compileDnc(
        makeConfig(35, 12, 2), arch::MannaConfig::withTiles(8));
    for (const auto &seg : model.stepSegments) {
        std::vector<std::vector<std::pair<int, std::uint32_t>>> comms(
            seg.tilePrograms.size());
        for (std::size_t t = 0; t < seg.tilePrograms.size(); ++t) {
            for (const auto &inst :
                 seg.tilePrograms[t].instructions()) {
                if (inst.op == isa::Opcode::Reduce)
                    comms[t].push_back({0, inst.srcA.len});
                else if (inst.op == isa::Opcode::Broadcast)
                    comms[t].push_back({1, inst.dst.len});
            }
        }
        for (std::size_t t = 1; t < comms.size(); ++t)
            EXPECT_EQ(comms[t], comms[0]) << seg.name << " tile " << t;
    }
}

TEST(DncChip, CompiledProgramsValid)
{
    const auto model = compiler::compileDnc(
        makeConfig(64, 24, 2), arch::MannaConfig::baseline16());
    EXPECT_EQ(model.stepSegments.size(), 9u);
    for (const auto &seg : model.stepSegments)
        for (const auto &p : seg.tilePrograms)
            EXPECT_EQ(p.validate(), "") << seg.name;
    EXPECT_NE(model.disassembleTile(0).find("linkage"),
              std::string::npos);
}

} // namespace
} // namespace manna::sim
