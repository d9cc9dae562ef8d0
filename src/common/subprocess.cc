#include "subprocess.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/event_log.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna
{

namespace
{

/** Open @p path for append in the child; returns -1 on "" (leave the
 * stream alone) and on failure (stream stays shared, which at least
 * preserves the output somewhere). */
int
openLog(const std::string &path)
{
    if (path.empty())
        return -1;
    return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
}

ProcessStatus
decodeWait(pid_t reaped, int status)
{
    ProcessStatus out;
    if (reaped == 0) {
        out.running = true;
        return out;
    }
    if (WIFEXITED(status)) {
        out.exited = true;
        out.exitCode = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        out.signaled = true;
        out.signal = WTERMSIG(status);
    }
    return out;
}

} // namespace

pid_t
spawnProcess(const std::vector<std::string> &argv,
             const std::string &stdoutPath,
             const std::string &stderrPath)
{
    if (argv.empty()) {
        warn("spawnProcess: empty argv");
        return -1;
    }
    if (fault::anyArmed() &&
        fault::shouldFire(fault::Site::ProcSpawn)) {
        warn("spawnProcess: injected spawn failure (%s)",
             fault::siteName(fault::Site::ProcSpawn));
        return -1;
    }
    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);

    // exec-error pipe: the child writes errno when execvp fails, the
    // write end closes on a successful exec (CLOEXEC), so the parent
    // reads either one errno or clean EOF. Both parent-side fds must
    // be closed on EVERY return path below — a caller that spawns in
    // a loop for hours would otherwise exhaust the fd table with one
    // leaked pair per failed spawn (regression-tested by counting
    // /proc/self/fd in test_robustness.cc).
    int errPipe[2] = {-1, -1};
    if (::pipe2(errPipe, O_CLOEXEC) != 0) {
        warn("spawnProcess: pipe2 failed (%s)", std::strerror(errno));
        return -1;
    }

    // Parent-side span only: the child execs immediately, and its
    // inherited event-log buffer dies with the exec (never flushed),
    // so the fork can't duplicate trace lines.
    events::Span span("proc.spawn", "exe=" + argv[0]);
    const pid_t pid = ::fork();
    if (pid < 0) {
        span.end("ok=0");
        warn("spawnProcess: fork failed (%s)", std::strerror(errno));
        ::close(errPipe[0]);
        ::close(errPipe[1]);
        return -1;
    }
    if (pid == 0) {
        // Child: redirect, then exec. Only async-signal-safe calls
        // (plus open/dup2) between fork and exec.
        ::close(errPipe[0]);
        const int outFd = openLog(stdoutPath);
        if (outFd >= 0) {
            ::dup2(outFd, STDOUT_FILENO);
            ::close(outFd);
        }
        const int errFd = openLog(stderrPath);
        if (errFd >= 0) {
            ::dup2(errFd, STDERR_FILENO);
            ::close(errFd);
        }
        ::execvp(cargv[0], cargv.data());
        // exec failed: report errno to the parent through the pipe
        // (and on the possibly-redirected stderr for the log file),
        // then die with a distinctive code.
        const int err = errno;
        ssize_t ignored =
            ::write(errPipe[1], &err, sizeof(err));
        (void)ignored;
        ::dprintf(STDERR_FILENO, "exec %s failed: %s\n", cargv[0],
                  std::strerror(err));
        ::_exit(127);
    }

    // Parent: the write end belongs to the child now.
    ::close(errPipe[1]);
    int execErrno = 0;
    ssize_t n;
    do {
        n = ::read(errPipe[0], &execErrno, sizeof(execErrno));
    } while (n < 0 && errno == EINTR);
    ::close(errPipe[0]);
    if (n > 0) {
        // exec never happened: reap the 127 exit here so the caller
        // doesn't poll a corpse, and fail the spawn explicitly.
        span.end("ok=0");
        warn("spawnProcess: exec %s failed (%s)", argv[0].c_str(),
             std::strerror(execErrno));
        int status = 0;
        ::waitpid(pid, &status, 0);
        return -1;
    }
    span.end(strformat("pid=%d", static_cast<int>(pid)));
    return pid;
}

ProcessStatus
pollProcess(pid_t pid)
{
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r < 0) {
        warn("waitpid(%d) failed (%s)", static_cast<int>(pid),
             std::strerror(errno));
        ProcessStatus out;
        out.exited = true;
        out.exitCode = 127;
        return out;
    }
    return decodeWait(r == pid ? pid : 0, status);
}

ProcessStatus
waitProcess(pid_t pid)
{
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, 0);
    if (r < 0) {
        warn("waitpid(%d) failed (%s)", static_cast<int>(pid),
             std::strerror(errno));
        ProcessStatus out;
        out.exited = true;
        out.exitCode = 127;
        return out;
    }
    return decodeWait(pid, status);
}

void
killProcess(pid_t pid, int sig)
{
    if (pid <= 0)
        return;
    ::kill(pid, sig == 0 ? SIGKILL : sig);
}

} // namespace manna
