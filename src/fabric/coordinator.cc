#include "fabric/coordinator.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fabric/lease.hh"
#include "fabric/protocol.hh"
#include "sim/log.hh"
#include "sim/serialize.hh"

namespace middlesim::fabric
{

namespace
{

using Clock = std::chrono::steady_clock;

bool
writeFull(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** One spawned (or attached) worker process. */
struct WorkerProc
{
    int id = -1;
    pid_t pid = -1;
    /** Coordinator reads frames here (worker's stdout). */
    int rfd = -1;
    /** Coordinator writes frames here (worker's stdin). */
    int wfd = -1;
    sim::FrameSplitter splitter;
    Clock::time_point lastSeen;
    unsigned outstanding = 0;
    bool helloOk = false;
    bool alive = false;
    bool byeSent = false;
};

/** fork/exec a worker with both stdio legs piped to the coordinator. */
bool
spawnWorker(const FabricOptions &opt, int worker_id, WorkerProc &out)
{
    int to_worker[2];   // coordinator writes -> worker stdin
    int from_worker[2]; // worker stdout -> coordinator reads
    if (::pipe(to_worker) != 0)
        return false;
    if (::pipe(from_worker) != 0) {
        ::close(to_worker[0]);
        ::close(to_worker[1]);
        return false;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {to_worker[0], to_worker[1], from_worker[0],
                       from_worker[1]}) {
            ::close(fd);
        }
        return false;
    }
    if (pid == 0) {
        ::dup2(to_worker[0], STDIN_FILENO);
        ::dup2(from_worker[1], STDOUT_FILENO);
        for (int fd : {to_worker[0], to_worker[1], from_worker[0],
                       from_worker[1]}) {
            ::close(fd);
        }
        const std::string index = std::to_string(worker_id);
        ::setenv("MIDDLESIM_FABRIC_WORKER_INDEX", index.c_str(), 1);
        if (!opt.workerCommand.empty()) {
            ::execl("/bin/sh", "sh", "-c", opt.workerCommand.c_str(),
                    static_cast<char *>(nullptr));
        } else {
            std::vector<char *> argv;
            argv.reserve(opt.workerArgv.size() + 1);
            for (const std::string &arg : opt.workerArgv)
                argv.push_back(const_cast<char *>(arg.c_str()));
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
        }
        std::perror("fabric: exec worker");
        ::_exit(127);
    }

    ::close(to_worker[0]);
    ::close(from_worker[1]);
    ::fcntl(from_worker[0], F_SETFL,
            ::fcntl(from_worker[0], F_GETFL) | O_NONBLOCK);

    out.id = worker_id;
    out.pid = pid;
    out.rfd = from_worker[0];
    out.wfd = to_worker[1];
    out.lastSeen = Clock::now();
    out.alive = true;
    return true;
}

class Coordinator
{
  public:
    Coordinator(const std::vector<FabricItem> &items,
                const FabricOptions &opt, const ResultSink &sink)
        : items_(items), opt_(opt), sink_(sink),
          table_(items.size(), kMaxRequeues)
    {
        ids_.reserve(items.size());
        for (const FabricItem &item : items)
            ids_.push_back(item.id);
        queueHash_ = queueHashHex(ids_);
    }

    FabricStats
    run()
    {
        ::signal(SIGPIPE, SIG_IGN);
        spawnAll();

        while (!table_.allDone()) {
            dispatchLeases();
            if (aliveCount() == 0)
                break; // inline fallback below
            if (!table_.hasLeasable() && totalOutstanding() == 0)
                break; // only over-budget items remain: run inline
            pollOnce(100);
            checkTimeouts();
        }

        shutdownWorkers();
        runInlineFallback();
        stats_.requeues = table_.requeues();
        stats_.staleResults = table_.staleResults();
        stats_.duplicateResults = table_.duplicateResults();
        return stats_;
    }

  private:
    unsigned
    aliveCount() const
    {
        unsigned n = 0;
        for (const WorkerProc &w : workers_)
            n += w.alive ? 1 : 0;
        return n;
    }

    unsigned
    totalOutstanding() const
    {
        unsigned n = 0;
        for (const WorkerProc &w : workers_)
            n += w.alive ? w.outstanding : 0;
        return n;
    }

    void
    spawnAll()
    {
        workers_.resize(opt_.workers);
        for (unsigned i = 0; i < opt_.workers; ++i) {
            WorkerProc &w = workers_[i];
            if (!spawnWorker(opt_, static_cast<int>(i), w)) {
                warn("fabric: cannot spawn worker ", i, ": ",
                     std::strerror(errno));
                continue;
            }
            ++stats_.workersSpawned;
            HelloFrame hello;
            hello.protocol = protocolVersion;
            hello.role = "coordinator";
            hello.queueHash = queueHash_;
            hello.items = items_.size();
            hello.pid = static_cast<std::uint64_t>(::getpid());
            if (!send(w, encodeHello(hello)))
                markDead(w, "hello write failed");
        }
    }

    bool
    send(WorkerProc &w, const std::string &payload)
    {
        std::string framed;
        sim::appendFrame(framed, payload);
        return writeFull(w.wfd, framed);
    }

    void
    dispatchLeases()
    {
        for (WorkerProc &w : workers_) {
            if (!w.alive || !w.helloOk || w.byeSent)
                continue;
            while (w.outstanding < kMaxOutstanding) {
                const auto lease = table_.acquire(w.id);
                if (!lease)
                    return; // queue drained (for now)
                LeaseFrame frame;
                frame.index = lease->index;
                frame.epoch = lease->epoch;
                frame.idHash = idHashHex(ids_[lease->index]);
                if (!send(w, encodeLease(frame))) {
                    markDead(w, "lease write failed");
                    break;
                }
                ++w.outstanding;
            }
        }
    }

    void
    pollOnce(int timeout_ms)
    {
        std::vector<pollfd> fds;
        std::vector<WorkerProc *> owners;
        for (WorkerProc &w : workers_) {
            if (!w.alive)
                continue;
            fds.push_back({w.rfd, POLLIN, 0});
            owners.push_back(&w);
        }
        if (fds.empty())
            return;
        const int n = ::poll(fds.data(),
                             static_cast<nfds_t>(fds.size()),
                             timeout_ms);
        if (n <= 0)
            return;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            drainWorker(*owners[i]);
        }
    }

    void
    drainWorker(WorkerProc &w)
    {
        char buf[65536];
        bool eof = false;
        while (true) {
            const ssize_t n = ::read(w.rfd, buf, sizeof(buf));
            if (n > 0) {
                w.splitter.feed(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n == 0) {
                eof = true;
                break;
            }
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            eof = true;
            break;
        }

        std::string frame;
        while (w.alive && w.splitter.next(frame))
            handleFrame(w, frame);
        if (!w.alive)
            return;
        if (w.splitter.failed()) {
            markDead(w, "frame stream corrupt: " +
                            w.splitter.error());
            return;
        }
        if (eof) {
            if (w.byeSent) {
                retire(w); // orderly shutdown, not a death
            } else {
                markDead(w, "EOF (worker exited or was killed)");
            }
        }
    }

    void
    handleFrame(WorkerProc &w, const std::string &payload)
    {
        w.lastSeen = Clock::now();
        Frame f;
        std::string error;
        if (!decodeFrame(payload, f, error)) {
            markDead(w, error);
            return;
        }
        switch (f.type) {
        case FrameType::Hello:
            if (f.hello.protocol != protocolVersion ||
                f.hello.queueHash != queueHash_ ||
                f.hello.items != items_.size()) {
                markDead(w,
                         "hello mismatch (protocol '" +
                             f.hello.protocol + "', queue hash " +
                             f.hello.queueHash + " vs ours " +
                             queueHash_ + ")");
                return;
            }
            w.helloOk = true;
            break;
        case FrameType::Result:
            handleResult(w, f.result);
            break;
        case FrameType::Heartbeat:
            ++stats_.heartbeats;
            break;
        case FrameType::Bye:
            // Worker is about to exit; EOF follows.
            break;
        case FrameType::Lease:
            markDead(w, "worker sent a LEASE frame");
            break;
        }
    }

    void
    handleResult(WorkerProc &w, const ResultFrame &r)
    {
        if (r.index >= items_.size()) {
            markDead(w, "result index out of range");
            return;
        }
        if (w.outstanding > 0)
            --w.outstanding;
        if (!r.ok) {
            // The item failed but the worker survived: requeue just
            // this lease (budgeted, like a death-requeue).
            warn("fabric: item ", r.index, " failed on worker ",
                 w.id, ": ", r.error);
            table_.fail(r.index, r.epoch);
            return;
        }
        switch (table_.complete(r.index, r.epoch)) {
        case LeaseTable::Outcome::Accepted:
            ++stats_.executed;
            stats_.workerSeconds += r.seconds;
            if (sink_)
                sink_(r.index, r.payload);
            break;
        case LeaseTable::Outcome::Stale:
        case LeaseTable::Outcome::Duplicate:
            break; // counted by the table; payload discarded
        }
    }

    void
    checkTimeouts()
    {
        const auto now = Clock::now();
        for (WorkerProc &w : workers_) {
            if (!w.alive)
                continue;
            const auto silence =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - w.lastSeen)
                    .count();
            if (silence > static_cast<long long>(kTimeoutMs)) {
                markDead(w, "no heartbeat for " +
                                std::to_string(silence) + " ms");
            }
        }
    }

    /** Orderly retirement after BYE at end of queue. */
    void
    retire(WorkerProc &w)
    {
        w.alive = false;
        ::close(w.rfd);
        ::close(w.wfd);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
    }

    void
    markDead(WorkerProc &w, const std::string &why)
    {
        if (!w.alive)
            return;
        warn("fabric: worker ", w.id, " (pid ", w.pid,
             ") lost: ", why);
        w.alive = false;
        ::close(w.rfd);
        ::close(w.wfd);
        ::kill(w.pid, SIGKILL);
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        ++stats_.workerDeaths;
        w.outstanding = 0;
        const auto requeued = table_.releaseWorker(w.id);
        if (!requeued.empty()) {
            warn("fabric: requeued ", requeued.size(),
                 " leased item(s) from worker ", w.id);
        }
    }

    void
    shutdownWorkers()
    {
        ByeFrame bye;
        bye.results = table_.doneCount();
        for (WorkerProc &w : workers_) {
            if (!w.alive)
                continue;
            w.byeSent = true;
            send(w, encodeBye(bye));
        }
        // Give workers a moment to acknowledge and exit; anything
        // still attached after the grace period is killed.
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(2000);
        while (aliveCount() > 0 && Clock::now() < deadline)
            pollOnce(50);
        for (WorkerProc &w : workers_) {
            if (w.alive)
                markDead(w, "did not exit after BYE");
        }
    }

    void
    runInlineFallback()
    {
        const auto remaining = table_.unfinished();
        if (remaining.empty())
            return;
        warn("fabric: running ", remaining.size(),
             " unfinished item(s) inline in the coordinator");
        for (std::size_t index : remaining) {
            const std::string payload = items_[index].run();
            ++stats_.inlineRuns;
            if (sink_)
                sink_(index, payload);
        }
    }

    const std::vector<FabricItem> &items_;
    const FabricOptions &opt_;
    const ResultSink &sink_;
    LeaseTable table_;
    std::vector<std::string> ids_;
    std::string queueHash_;
    std::vector<WorkerProc> workers_;
    FabricStats stats_;
};

} // namespace

FabricStats
runCoordinator(const std::vector<FabricItem> &items,
               const FabricOptions &opt, const ResultSink &sink)
{
    Coordinator coordinator(items, opt, sink);
    return coordinator.run();
}

std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return std::string(buf);
}

} // namespace middlesim::fabric
