/**
 * @file
 * Graph-route demo: the paper's motivating example is DeepMind's DNC
 * navigating the London Underground. This example builds a synthetic
 * transit network, streams its edge list into a DNC-scale NTM running
 * on the Manna simulator, then issues shortest-path queries — and
 * reports what the route planning costs on Manna versus the GPU
 * baseline models.
 *
 *   ./build/examples/graph_route
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "workloads/graph_gen.hh"
#include "workloads/tasks.hh"

using namespace manna;

int
main()
{
    // A synthetic "underground": 48 stations, richly connected, 8
    // line labels.
    Rng rng(1863); // the Metropolitan line opened in 1863
    workloads::LabelledGraph network(48, 24, 8, rng);
    std::printf("synthetic transit network: %zu stations, %zu "
                "directed connections, connected=%s\n",
                network.numNodes(), network.edges().size(),
                network.isConnected() ? "yes" : "no");

    // Show one exact route the network substrate computes (this is
    // the ground truth the MANN would be trained against).
    const auto route = network.shortestPath(0, 47);
    std::printf("shortest route 0 -> 47 (%zu hops): ", route.size() - 1);
    for (std::size_t i = 0; i < route.size(); ++i)
        std::printf("%s%u", i ? " -> " : "", route[i]);
    std::printf("\n\n");

    // Run the shortest-path benchmark shape (Table 2: 3648x1400
    // memory, 5 read heads) on Manna.
    const workloads::Benchmark &bench =
        workloads::benchmarkByName("short");
    std::printf("MANN shape (Table 2 'short'): %s\n\n",
                bench.config.summary().c_str());

    const std::size_t steps = 8;
    const auto manna = harness::simulateManna(
        bench, arch::MannaConfig::baseline16(), steps);
    const auto gpu1080 =
        harness::evaluateBaseline(bench, harness::gpu1080Ti());
    const auto gpu2080 =
        harness::evaluateBaseline(bench, harness::gpu2080Ti());

    std::printf("per-query (time-step) costs:\n");
    std::printf("  Manna (16 tiles): %8.1f us  %8.3f mJ\n",
                manna.secondsPerStep * 1e6,
                manna.joulesPerStep * 1e3);
    std::printf("  GTX 1080-Ti:      %8.1f us  %8.3f mJ\n",
                gpu1080.secondsPerStep * 1e6,
                gpu1080.joulesPerStep * 1e3);
    std::printf("  RTX 2080-Ti:      %8.1f us  %8.3f mJ\n",
                gpu2080.secondsPerStep * 1e6,
                gpu2080.joulesPerStep * 1e3);
    std::printf("\nManna advantage: %.1fx faster / %.1fx more "
                "queries per joule than the 1080-Ti\n",
                gpu1080.secondsPerStep / manna.secondsPerStep,
                gpu1080.joulesPerStep / manna.joulesPerStep);

    std::printf("\nper-kernel time on Manna (us/step):\n");
    for (const auto &[group, sec] : manna.groupSeconds)
        std::printf("  %-16s %8.1f\n", mann::toString(group),
                    sec * 1e6);
    return 0;
}
