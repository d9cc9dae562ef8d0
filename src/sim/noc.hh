/**
 * @file
 * H-tree NoC model (Section 4.4 "NoC Design").
 *
 * With MDistrib = 1 the only communication patterns are reduce across
 * all tiles and broadcast to all tiles, so the NoC is a fixed-routing
 * H-tree with the Controller tile at the root. A reduction or
 * broadcast of L words completes in lg(NumTiles)+1 store-and-forward
 * steps, each costing the hop latency plus the link serialization of
 * L words.
 */

#ifndef MANNA_SIM_NOC_HH
#define MANNA_SIM_NOC_HH

#include <iterator>
#include <string>
#include <vector>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stat_registry.hh"
#include "common/types.hh"
#include "isa/isa.hh"
#include "sim/counters.hh"

namespace manna::sim
{

/** The NoC's event counters, exported as "noc.<name>": one family of
 * four per exchange kind, reduce first. */
enum class NocCounter : std::size_t
{
    ReduceOps,
    ReduceWords,
    ReduceCycles,
    ReduceSteps,
    BroadcastOps,
    BroadcastWords,
    BroadcastCycles,
    BroadcastSteps,
    NumCounters,
};

constexpr std::size_t kNumNocCounters =
    static_cast<std::size_t>(NocCounter::NumCounters);

/** Registry name of every NocCounter, in enum order. */
constexpr const char *kNocCounterNames[] = {
    "reduce.ops",       "reduce.words",    "reduce.cycles",
    "reduce.steps",     "broadcast.ops",   "broadcast.words",
    "broadcast.cycles", "broadcast.steps",
};
static_assert(std::size(kNocCounterNames) == kNumNocCounters,
              "one name per NocCounter");

/** Latency/energy model of the H-tree; functional combining is done
 * by the chip, which owns the tiles' data. */
class Noc
{
  public:
    Noc(const arch::MannaConfig &cfg, const arch::EnergyModel &energy);

    /** Tree depth from leaves to the root Controller tile. */
    std::size_t depth() const;

    /** Cycles to reduce @p words from all leaves to the root. */
    Cycle reduceCycles(std::size_t words) const;

    /** Cycles to broadcast @p words from the root to all leaves. */
    Cycle broadcastCycles(std::size_t words) const;

    /** Energy of a reduce of @p words (all link traversals). */
    Energy reduceEnergyPj(std::size_t words) const;

    /** Energy of a broadcast of @p words. */
    Energy broadcastEnergyPj(std::size_t words) const;

    /** Functional element-wise combine across per-tile vectors: @p out
     * is assigned the combined vector, reusing its capacity. @p out
     * must not be an element of @p perTile. */
    static void
    combineInto(const std::vector<std::vector<float>> &perTile,
                isa::ReduceOp op, std::vector<float> &out);

    /** Account one reduce of @p words costing @p cycles (called by
     * the chip when it performs the exchange). */
    void recordReduce(std::size_t words, Cycle cycles);

    /** Account one broadcast of @p words costing @p cycles. */
    void recordBroadcast(std::size_t words, Cycle cycles);

    /** One operation counter (reduce/broadcast ops, words, cycles,
     * steps). */
    double counter(NocCounter k) const { return counters_[k]; }

    /**
     * Write the counters into @p reg as "<prefix>.<name>". Each
     * family (reduce.*, broadcast.*) appears only once an exchange of
     * its kind has been recorded since construction.
     */
    void exportCounters(StatRegistry &reg,
                        const std::string &prefix) const;

    /** Zero all counters (chip reset); recorded families still
     * export, at zero. */
    void resetStats() { counters_.clear(); }

  private:
    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    Counters<NocCounter, kNumNocCounters> counters_;
    bool reduceRecorded_ = false;
    bool broadcastRecorded_ = false;
};

} // namespace manna::sim

#endif // MANNA_SIM_NOC_HH
