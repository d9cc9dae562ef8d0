/**
 * @file
 * Minimal process-spawning utilities: fork/exec a child with
 * stdout/stderr redirected to log files, poll it without blocking so
 * the caller can enforce wall-clock budgets, and reap its exit status
 * to tell a clean exit from a crash. perfbench spawns the bench and
 * mannad processes it times this way; the tests spawn mannad.
 *
 * POSIX only (fork/execvp/waitpid), matching the repo's existing use
 * of fsync(); no shell is involved.
 */

#ifndef MANNA_COMMON_SUBPROCESS_HH
#define MANNA_COMMON_SUBPROCESS_HH

#include <string>
#include <vector>

#include <sys/types.h>

namespace manna
{

/** Resolution of a child process, from waitpid(). */
struct ProcessStatus
{
    bool running = false;  ///< still alive (poll only)
    bool exited = false;   ///< terminated via exit()
    int exitCode = 0;      ///< meaningful iff exited
    bool signaled = false; ///< terminated by a signal (crash/kill)
    int signal = 0;        ///< meaningful iff signaled

    /** A process that exited with an expected code; anything else
     * (signal death, abnormal exit) counts as a crash. */
    bool
    cleanExit(int maxOkCode = 1) const
    {
        return exited && exitCode >= 0 && exitCode <= maxOkCode;
    }
};

/**
 * fork/exec @p argv (argv[0] is the binary; PATH is searched) with
 * stdout/stderr appended to the given files ("" leaves the stream
 * shared with the parent). Returns the child pid, or -1 with a
 * warn() on failure — including exec failure (bad binary path),
 * which is detected through a CLOEXEC errno pipe and reaped here so
 * the caller never polls a corpse. All parent-side pipe fds are
 * closed on every return path (leak-regression-tested). The child
 * inherits the parent's environment.
 */
pid_t spawnProcess(const std::vector<std::string> &argv,
                   const std::string &stdoutPath = "",
                   const std::string &stderrPath = "");

/** Non-blocking status poll; running=true while the child lives.
 * Each child must be polled/waited exactly until it is reaped. */
ProcessStatus pollProcess(pid_t pid);

/** Blocking wait for a child to terminate. */
ProcessStatus waitProcess(pid_t pid);

/** Send @p sig (default SIGKILL) to a child; no-op on pid <= 0. */
void killProcess(pid_t pid, int sig = 0 /* 0 = SIGKILL */);

} // namespace manna

#endif // MANNA_COMMON_SUBPROCESS_HH
