/**
 * @file
 * Reproduces Figure 12: strong scaling — speedup of 8/16/32/64-tile
 * Manna configurations over a 4-tile baseline on fixed problem sizes.
 *
 * Paper headline: large benchmarks scale well but with diminishing
 * returns (the serial per-tile SFUs and the fixed-size addressing
 * work limit scaling); small benchmarks and those with memM close to
 * memN scale worst because only memN is distributed (MDistrib = 1).
 *
 * Knobs: steps=, jobs=, bench=<name> (single-benchmark filter),
 * fidelity=cycle|fast (calibrated-fast simulation, see docs/PERF.md),
 * the robustness knobs retries=/timeout=/journal=/resume= (see
 * docs/ROBUSTNESS.md), and the observability knobs trace=/stats=/
 * progress=/profile=/bench_json=/--dump-stats (see
 * docs/OBSERVABILITY.md). Failed simulation points render as FAILED
 * cells and make the binary exit nonzero after the full table.
 * trace=<path> re-runs the first sweep point with an instruction
 * tracer attached and writes a Perfetto-loadable Chrome trace there;
 * profile=<path> re-runs the first benchmark at the paper's 16-tile
 * point and writes its cycle-accounting profile (stall bottlenecks +
 * roofline) there.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace manna;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const std::size_t steps = static_cast<std::size_t>(
        cfg.getInt("steps", 4)); // scaled problems are large
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const std::string only = cfg.getString("bench", "");
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);
    const harness::TraceOptions traceOpts =
        harness::traceOptionsFromConfig(cfg);
    const sim::Fidelity fidelity = harness::fidelityFromConfig(cfg);

    harness::printBanner("Figure 12",
                         "Manna performance trends with strong "
                         "scaling (speedup vs 4 tiles)");

    const std::size_t tileCounts[] = {4, 8, 16, 32, 64};
    Table table({"Benchmark", "4", "8", "16", "32", "64"});

    // Build the job list first (cells where the memory has fewer rows
    // than tiles are skipped), then execute it on the sweep runner:
    // results come back in submission order, so the table below is
    // byte-identical for any worker count.
    std::vector<workloads::Benchmark> suite;
    for (const auto &bench : workloads::table2Suite())
        if (only.empty() || bench.name == only)
            suite.push_back(bench);

    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite) {
        for (std::size_t tiles : tileCounts) {
            if (bench.config.memN < tiles)
                continue;
            sweep.push_back({bench,
                             arch::MannaConfig::withTiles(tiles),
                             steps, /*seed=*/1, fidelity});
        }
    }

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    std::size_t next = 0;
    for (const auto &bench : suite) {
        std::vector<std::string> row{bench.name};
        double baseline = 0.0;
        for (std::size_t tiles : tileCounts) {
            if (bench.config.memN < tiles) {
                row.push_back("-");
                continue;
            }
            const auto &outcome = report.outcomes[next++];
            if (!outcome.ok) {
                row.push_back("FAILED");
                continue;
            }
            const auto &result = outcome.value;
            if (tiles == 4) {
                baseline = result.secondsPerStep;
                row.push_back("1.00x");
            } else if (baseline > 0.0) {
                row.push_back(
                    formatFactor(baseline / result.secondsPerStep));
            } else {
                row.push_back("-"); // 4-tile reference cell failed
            }
        }
        table.addRow(std::move(row));
    }
    harness::printTable(table);

    // The scaling limiter, straight from the per-component counters:
    // the serial SFU share of engine-busy cycles across the sweep
    // (deterministic — identical for any worker count).
    const StatRegistry agg = report.aggregateStats();
    const double emacBusy = agg.sumOver("tile", "emac.busy_cycles");
    const double sfuBusy = agg.sumOver("tile", "sfu.busy_cycles");
    const double dmaBusy = agg.sumOver("tile", "mat_dma.busy_cycles") +
                           agg.sumOver("tile", "vec_dma.busy_cycles");
    const double busyTotal = emacBusy + sfuBusy + dmaBusy;
    if (busyTotal > 0.0)
        std::printf("\nengine-busy cycles across the sweep: eMAC "
                    "%.4g, serial SFU %.4g (%.1f%% of busy cycles), "
                    "DMA %.4g; NoC reduces %.0f, broadcasts %.0f.\n",
                    emacBusy, sfuBusy, 100.0 * sfuBusy / busyTotal,
                    dmaBusy, agg.get("noc.reduce.ops"),
                    agg.get("noc.broadcast.ops"));

    harness::printPaperReference(
        "Figure 12: near-linear scaling for the large benchmarks at "
        "low tile counts, with diminishing returns as serial SFU "
        "accesses and undistributed O(memM) work dominate; smaller "
        "benchmarks saturate earlier.");

    if (traceOpts.enabled() && !sweep.empty())
        harness::writeChromeTrace(traceOpts, sweep[0].benchmark,
                                  sweep[0].config, sweep[0].steps);
    // profile= re-runs the first benchmark at the paper's evaluated
    // 16-tile configuration (the Fig. 12 reference point).
    const harness::ProfileOptions profileOpts =
        harness::profileOptionsFromConfig(cfg);
    if (profileOpts.enabled() && !suite.empty() &&
        suite[0].config.memN >= 16)
        harness::writeProfile(profileOpts, suite[0],
                              arch::MannaConfig::withTiles(16), steps);
    harness::applySweepObservability(cfg, "fig12_strong_scaling",
                                     report);
    return harness::finishSweep(report);
}
