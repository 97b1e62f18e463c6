/**
 * @file
 * Forked-child job supervisor (see supervisor.hh for the protocol).
 */

#include "serve/supervisor.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/run.hh"
#include "serve/telemetry.hh"
#include "util/json_parse.hh"
#include "util/logging.hh"

namespace slacksim {
namespace serve {

namespace {

/** Child-side exit codes distinguishable from engine exit paths. */
constexpr int kChildSetupFailed = 120; //!< rlimit/pipe plumbing died
constexpr int kChildThrew = 121;       //!< simulation threw (OOM, ...)

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Write the whole buffer, retrying on EINTR; best-effort. */
void
writeAll(int fd, const char *data, std::size_t len)
{
    while (len > 0) {
        const ssize_t n = ::write(fd, data, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
}

void
applyRlimits(const IsolationLimits &limits)
{
    if (limits.memMb) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(limits.memMb) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
    }
    if (limits.cpuSeconds) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(limits.cpuSeconds);
        ::setrlimit(RLIMIT_CPU, &rl);
    }
}

/**
 * Child main: simulate and report over @p status_fd. Never returns —
 * ends in _exit so no parent-owned destructors (pool, sockets,
 * atexit handlers) run twice.
 */
[[noreturn]] void
childMain(const SimConfig &config, const IsolationLimits &limits,
          int control_fd, int status_fd,
          obs::RunProgress *shared_progress)
{
    // The daemon ignores SIGPIPE and may trap SIGINT/SIGTERM for its
    // drain protocol; the child must die by default dispositions so
    // the supervisor's verdicts stay meaningful.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGPIPE, SIG_IGN);
    applyRlimits(limits);

    // Ready byte: the parent's spawn-overhead clock stops here.
    writeAll(status_fd, "R", 1);

    // Control-pipe watcher: one blocking read; any byte (or EOF —
    // the parent died) becomes a cooperative cancel. The thread is
    // never joined: _exit tears it down with the process.
    static CancelToken local_cancel;
    std::thread([control_fd] {
        char c = 0;
        while (true) {
            const ssize_t n = ::read(control_fd, &c, 1);
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        local_cancel.requestCancel();
    }).detach();

    SimConfig child_config = config;
    child_config.engine.cancel = &local_cancel;
    // The parent's pool threads do not exist on this side of the
    // fork; the engine spawns and owns its own workers.
    child_config.engine.runner = nullptr;
    child_config.engine.obs.progress = shared_progress;

    // An exception must die HERE: letting it unwind would resume the
    // parent's call stack inside the forked copy of the process —
    // under RLIMIT_AS a bad_alloc is routine, not exceptional.
    RunResult result;
    try {
        result = runSimulation(child_config);
    } catch (const std::exception &e) {
        const std::string msg =
            std::string("child exception: ") + e.what() + "\n";
        writeAll(status_fd, msg.data(), msg.size());
        ::_exit(kChildThrew);
    } catch (...) {
        ::_exit(kChildThrew);
    }

    std::ostringstream os;
    os << "{\"committed_uops\":" << result.committedUops
       << ",\"simulated_cycles\":" << result.execCycles
       << ",\"cancelled\":" << (result.cancelled ? "true" : "false")
       << ",\"faults\":" << result.faultInjections.size()
       << ",\"demotions\":" << result.demotions << "}\n";
    const std::string line = os.str();
    writeAll(status_fd, line.data(), line.size());
    ::_exit(0);
}

/** Drain everything the child wrote to the status pipe (post-exit,
 *  so EOF is guaranteed to arrive). */
std::string
drainPipe(int fd)
{
    std::string out;
    char buf[512];
    while (true) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
}

/** Parse the final status line into @p result; false when the child
 *  exited 0 without reporting (treated as Failed upstream). */
bool
parseStatusLine(const std::string &text, SupervisedResult *result)
{
    // The ready byte 'R' precedes the JSON; find the last line.
    const auto brace = text.find('{');
    if (brace == std::string::npos)
        return false;
    try {
        const json::Value doc = json::parse(text.substr(brace));
        result->committedUops = static_cast<std::uint64_t>(
            doc.at("committed_uops").number);
        result->simulatedCycles = static_cast<std::uint64_t>(
            doc.at("simulated_cycles").number);
        result->faultInjections =
            static_cast<std::uint64_t>(doc.at("faults").number);
        result->demotions =
            static_cast<std::uint64_t>(doc.at("demotions").number);
        result->status = doc.at("cancelled").boolean
                             ? SupervisedResult::Status::Cancelled
                             : SupervisedResult::Status::Ok;
        return true;
    } catch (const json::ParseError &) {
        return false;
    }
}

void
relayProgress(const obs::RunProgress *from, obs::RunProgress *to)
{
    if (!from || !to)
        return;
    const obs::RunProgress::Snapshot s = from->read();
    constexpr auto relaxed = std::memory_order_relaxed;
    to->epochs.store(s.epochs, relaxed);
    to->wallNs.store(s.wallNs, relaxed);
    to->globalCycle.store(s.globalCycle, relaxed);
    to->slackBound.store(s.slackBound, relaxed);
    to->violations.store(s.violations, relaxed);
    to->checkpoints.store(s.checkpoints, relaxed);
    to->rollbacks.store(s.rollbacks, relaxed);
    to->cyclesPerSec.store(s.cyclesPerSec, relaxed);
    to->eventsPerSec.store(s.eventsPerSec, relaxed);
    to->replay.store(s.replay, relaxed);
}

} // namespace

const char *
supervisedStatusName(SupervisedResult::Status status)
{
    switch (status) {
      case SupervisedResult::Status::Ok: return "ok";
      case SupervisedResult::Status::Cancelled: return "cancelled";
      case SupervisedResult::Status::Crashed: return "crashed";
      case SupervisedResult::Status::Failed: return "failed";
    }
    return "?";
}

SupervisedResult
runIsolatedJob(const SimConfig &config, const IsolationLimits &limits,
               CancelToken *cancel, obs::RunProgress *progress)
{
    SupervisedResult result;

    // The child publishes progress into a MAP_SHARED page so the
    // parent's heartbeat relay needs no extra pipe traffic. All
    // RunProgress fields are relaxed atomics — exactly the type that
    // is coherent across processes in shared memory.
    void *page =
        ::mmap(nullptr, sizeof(obs::RunProgress),
               PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
               -1, 0);
    obs::RunProgress *shared = nullptr;
    if (page != MAP_FAILED)
        shared = new (page) obs::RunProgress();

    int status_pipe[2] = {-1, -1};  // child -> parent
    int control_pipe[2] = {-1, -1}; // parent -> child
    if (::pipe(status_pipe) != 0 || ::pipe(control_pipe) != 0) {
        result.error = std::string("pipe: ") + std::strerror(errno);
        for (int fd : {status_pipe[0], status_pipe[1],
                       control_pipe[0], control_pipe[1]}) {
            if (fd >= 0)
                ::close(fd);
        }
        if (page != MAP_FAILED)
            ::munmap(page, sizeof(obs::RunProgress));
        return result;
    }

    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        result.error = std::string("fork: ") + std::strerror(errno);
        for (int fd : {status_pipe[0], status_pipe[1],
                       control_pipe[0], control_pipe[1]}) {
            ::close(fd);
        }
        if (page != MAP_FAILED)
            ::munmap(page, sizeof(obs::RunProgress));
        return result;
    }

    if (pid == 0) {
        ::close(status_pipe[0]);
        ::close(control_pipe[1]);
        childMain(config, limits, control_pipe[0], status_pipe[1],
                  shared);
        ::_exit(kChildSetupFailed); // not reached
    }

    ::close(status_pipe[1]);
    ::close(control_pipe[0]);
    result.childPid = static_cast<int>(pid);
    const int status_fd = status_pipe[0];
    const int control_fd = control_pipe[1];

    // Stop the spawn clock at the child's ready byte. The byte also
    // doubles as a liveness check: a child that dies before reaching
    // it shows up as instant EOF here and a crash verdict below.
    {
        char c = 0;
        while (true) {
            const ssize_t n = ::read(status_fd, &c, 1);
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        result.spawnMs = msSince(t0);
    }

    bool cancel_sent = false;
    bool we_killed = false;
    std::chrono::steady_clock::time_point kill_deadline;
    int wait_status = 0;
    while (true) {
        const pid_t reaped = ::waitpid(pid, &wait_status, WNOHANG);
        if (reaped == pid)
            break;
        if (reaped < 0 && errno != EINTR) {
            // Should not happen (the child is ours); avoid spinning.
            result.error =
                std::string("waitpid: ") + std::strerror(errno);
            ::kill(pid, SIGKILL);
            we_killed = true;
            ::waitpid(pid, &wait_status, 0);
            break;
        }
        relayProgress(shared, progress);
        if (cancel && cancel->cancelled()) {
            const auto now = std::chrono::steady_clock::now();
            if (!cancel_sent) {
                cancel_sent = true;
                writeAll(control_fd, "C", 1);
                kill_deadline =
                    now + std::chrono::milliseconds(
                              limits.killGraceMs);
            } else if (now >= kill_deadline) {
                // The grace window closed without a cooperative
                // drain (a wedged manager, a hung engine): escalate.
                ::kill(pid, SIGKILL);
                we_killed = true;
                kill_deadline =
                    now + std::chrono::milliseconds(
                              limits.killGraceMs);
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    relayProgress(shared, progress);

    const std::string status_text = drainPipe(status_fd);
    ::close(status_fd);
    ::close(control_fd);
    if (page != MAP_FAILED)
        ::munmap(page, sizeof(obs::RunProgress));

    if (WIFSIGNALED(wait_status)) {
        const int sig = WTERMSIG(wait_status);
        if (we_killed) {
            // Our own escalation is a cancellation outcome, not a
            // crash — the job did what it was told, eventually.
            result.status = SupervisedResult::Status::Cancelled;
            result.signal = sig;
            result.error = "killed after cancel grace expired";
        } else {
            result.status = SupervisedResult::Status::Crashed;
            result.signal = sig;
            result.error = "child died by " + signalName(sig);
        }
        return result;
    }
    const int code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status)
                                            : kChildSetupFailed;
    if (code != 0) {
        result.status = SupervisedResult::Status::Failed;
        result.exitCode = code;
        result.error =
            "child exited " + std::to_string(code) +
            (code == kChildSetupFailed ? " (setup failure)" : "");
        // A thrown-exception child leaves its reason on the pipe.
        const auto what = status_text.find("child exception: ");
        if (code == kChildThrew && what != std::string::npos) {
            std::string detail = status_text.substr(what);
            if (!detail.empty() && detail.back() == '\n')
                detail.pop_back();
            result.error += " (" + detail + ")";
        }
        return result;
    }
    if (!parseStatusLine(status_text, &result)) {
        result.status = SupervisedResult::Status::Failed;
        result.error = "child exited 0 without a status line";
        return result;
    }
    if (result.status == SupervisedResult::Status::Cancelled)
        result.error = "cancelled";
    return result;
}

} // namespace serve
} // namespace slacksim
