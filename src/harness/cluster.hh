/**
 * @file
 * Multi-chip cluster model (Section 7.3, first scaling option):
 * "multiple Manna chips can be used in a cluster, with the state
 * distributed across them."
 *
 * Each chip holds memN/chips rows of the differentiable memory and
 * runs the standard compiled program over its share; every
 * reduce/broadcast in the compiled step additionally traverses a
 * chip-to-chip interconnect tree (serdes links, microsecond-class
 * hops). The per-chip time comes from the real simulator on the
 * scaled-down problem; the inter-chip overhead is derived from the
 * *actual* communication instructions in the compiled program, so
 * the model tracks the compiler rather than a hand-count.
 */

#ifndef MANNA_HARNESS_CLUSTER_HH
#define MANNA_HARNESS_CLUSTER_HH

#include "harness/experiment.hh"

namespace manna::harness
{

/** Inter-chip interconnect parameters. */
struct ClusterConfig
{
    std::size_t chips = 2;
    /** Per-link bandwidth (e.g. serdes/NVLink-class). */
    double linkGBs = 100.0;
    /** Per-hop latency across the chip-to-chip tree. */
    double hopSeconds = 500e-9;

    /** Throws manna::ConfigError on invalid parameters. */
    void validate() const;
};

/** Result of a cluster evaluation. */
struct ClusterResult
{
    std::size_t chips = 1;
    double secondsPerStep = 0.0;
    double commSecondsPerStep = 0.0; ///< inter-chip share
    double joulesPerStep = 0.0;      ///< all chips
    std::size_t commEvents = 0;      ///< reduces+broadcasts per step
    std::size_t commWords = 0;       ///< words exchanged per step
};

/**
 * Evaluate a benchmark on a cluster: per-chip simulation of the
 * memN/chips-row share plus inter-chip communication overhead for
 * every reduce/broadcast the compiled step performs.
 */
ClusterResult evaluateCluster(const workloads::Benchmark &benchmark,
                              const arch::MannaConfig &chipConfig,
                              const ClusterConfig &cluster,
                              std::size_t steps);

} // namespace manna::harness

#endif // MANNA_HARNESS_CLUSTER_HH
