/**
 * @file
 * Client side of the simulation service (docs/SERVICE.md): drives a
 * sweep through a running mannad instead of simulating in-process.
 *
 * runServerSweep() is the `server=` routing target of
 * SweepRunner::runChecked(). It reuses runIsolated() wholesale — the
 * journal/resume logic, retry/backoff policy, watchdog, progress and
 * metrics reporting, stats.json rendering, and signal handling are
 * the exact same code as an in-process run — only the innermost "run
 * one job" function changes: instead of compiling and simulating, it
 * submits the job over the MNRQ/MNRS protocol and waits for the
 * daemon's hexfloat-exact result frame. That inversion is what makes
 * stdout, the deterministic stats.json sections, and bench_json
 * byte-identical between `server=` and in-process runs.
 *
 * The connection layer handles the unhappy paths: RetryAfter
 * admission pushback (sleep and resubmit, not an attempt), torn
 * frames and daemon restarts (reconnect and resubmit, bounded),
 * client-side watchdog/shutdown cancellation (Cancel frame, then the
 * daemon's structured JobFailed is rethrown as the matching Error
 * subclass). With a server= list of several daemons, a daemon whose
 * connection drops (or that leaves a cancel unconfirmed) is marked
 * down and its jobs fail over to the next live daemon instead.
 */

#ifndef MANNA_HARNESS_CLIENT_HH
#define MANNA_HARNESS_CLIENT_HH

#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace manna::harness::client
{

/** The MANNA_SERVER environment twin of the server= knob ("" when
 * unset — sweeps run in-process). Like server=, it may list several
 * comma-separated daemon addresses. */
std::string defaultServerAddress();

/**
 * Run @p jobs through the daemon(s) at opts.server, a comma-separated
 * address list. Job i goes first to daemon i mod N; a lost daemon is
 * marked down and its jobs resubmitted at once to the next live one
 * (within the same attempt), and a job lost on two daemons fails as
 * poisoned. Outcomes come back in submission order with the same
 * semantics as runChecked(). Throws ConfigError for a malformed
 * address; daemon unavailability surfaces per-job as IoError
 * outcomes (after bounded reconnects or failovers), never as a crash.
 */
SweepReport runServerSweep(SweepRunner &runner,
                           const std::vector<SweepJob> &jobs,
                           const SweepOptions &opts);

/** Liveness probe: Hello + Ping. False (with @p err filled if
 * non-null) when the daemon is unreachable or spoke garbage. */
bool pingServer(const std::string &address,
                std::string *err = nullptr);

/** Fetch the daemon's manna-daemon-stats-v1 snapshot. Throws
 * IoError when unreachable. */
std::string fetchServerStats(const std::string &address);

/** Ask the daemon to shut down gracefully. Throws IoError when
 * unreachable. */
void requestServerShutdown(const std::string &address);

} // namespace manna::harness::client

#endif // MANNA_HARNESS_CLIENT_HH
