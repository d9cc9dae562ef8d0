/**
 * @file
 * manna-submit: client driver for a running mannad (docs/SERVICE.md).
 *
 * Two modes:
 *
 *  - control plane, acting on every daemon of a comma-separated
 *    server= list in turn:
 *        manna-submit server=ADDR ping       liveness probe (exit 0
 *                                            only if every daemon
 *                                            answers)
 *        manna-submit server=ADDR stats      print each daemon's
 *                                            manna-daemon-stats-v1 JSON
 *        manna-submit server=ADDR shutdown   graceful daemon shutdown
 *
 *  - bench driver:
 *        manna-submit server=ADDR -- BENCH [ARGS...]
 *    exec()s BENCH with `server=ADDR` appended to its argument list,
 *    so any existing sweep bench runs its jobs through the daemon.
 *    Because the process is replaced (no fork), stdout, stats= and
 *    bench_json= output are byte-identical to invoking the bench with
 *    server=ADDR directly — and, per docs/SERVICE.md, to the same
 *    bench run fully in-process.
 *
 * server= falls back to the MANNA_SERVER environment twin.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "harness/client.hh"

using namespace manna;
using namespace manna::harness;

namespace
{

[[noreturn]] void
usage()
{
    fatal("usage: manna-submit server=ADDR ping|stats|shutdown\n"
          "       manna-submit server=ADDR -- BENCH [ARGS...]");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string address = client::defaultServerAddress();
    std::string command;
    std::vector<std::string> bench;
    bool afterDashes = false;
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        if (afterDashes) {
            bench.push_back(tok);
            continue;
        }
        if (tok == "--") {
            afterDashes = true;
            continue;
        }
        if (tok.rfind("server=", 0) == 0) {
            address = tok.substr(7);
            continue;
        }
        if (tok == "ping" || tok == "stats" || tok == "shutdown") {
            command = tok;
            continue;
        }
        usage();
    }
    if (address.empty() || (command.empty() && bench.empty()) ||
        (!command.empty() && !bench.empty()))
        usage();

    if (!bench.empty()) {
        // Replace this process with the bench; its own harness does
        // the submitting (sweep.cc routes on server=).
        std::vector<char *> cargv;
        std::vector<std::string> args = bench;
        args.push_back("server=" + address);
        cargv.reserve(args.size() + 1);
        for (std::string &a : args)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        ::execvp(cargv[0], cargv.data());
        fatal("exec %s failed: %s", bench[0].c_str(),
              std::strerror(errno));
    }

    // Every listed daemon gets the command, even after one fails.
    int status = 0;
    for (const std::string &part : split(address, ',')) {
        const std::string daemon = trim(part);
        if (daemon.empty())
            continue;
        try {
            if (command == "ping") {
                std::string err;
                if (client::pingServer(daemon, &err)) {
                    std::printf("%s: ok\n", daemon.c_str());
                } else {
                    std::fprintf(stderr, "%s: %s\n", daemon.c_str(),
                                 err.c_str());
                    status = 1;
                }
            } else if (command == "stats") {
                std::printf("%s\n",
                            client::fetchServerStats(daemon).c_str());
            } else {
                client::requestServerShutdown(daemon);
                std::printf("%s: shutdown requested\n",
                            daemon.c_str());
            }
        } catch (const Error &e) {
            std::fprintf(stderr, "manna-submit: %s\n",
                         e.describe().c_str());
            status = 1;
        }
    }
    return status;
}
