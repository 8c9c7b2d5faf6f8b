#include "fabric/worker.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "fabric/protocol.hh"
#include "sim/serialize.hh"

namespace middlesim::fabric
{

namespace
{

/** Write all of `data` to `fd`, retrying on EINTR/partial writes. */
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

/** Frame writer shared by the lease loop and the heartbeat thread. */
class FrameWriter
{
  public:
    explicit FrameWriter(int fd) : fd_(fd) {}

    bool
    send(const std::string &payload)
    {
        std::string framed;
        sim::appendFrame(framed, payload);
        std::lock_guard<std::mutex> lock(mutex_);
        return writeFull(fd_, framed);
    }

  private:
    int fd_;
    std::mutex mutex_;
};

/**
 * Fault-injection hook for the kill-recovery tests:
 * MIDDLESIM_FABRIC_KILL_AFTER="<worker>:<n>" makes worker number
 * <worker> (its MIDDLESIM_FABRIC_WORKER_INDEX) raise SIGKILL right
 * after sending its <n>th RESULT — a deterministic mid-run crash.
 */
long
killAfterResults()
{
    const char *spec = std::getenv("MIDDLESIM_FABRIC_KILL_AFTER");
    const char *index = std::getenv("MIDDLESIM_FABRIC_WORKER_INDEX");
    if (!spec || !index)
        return -1;
    const char *colon = std::strchr(spec, ':');
    if (!colon)
        return -1;
    if (std::strtol(spec, nullptr, 10) !=
        std::strtol(index, nullptr, 10)) {
        return -1;
    }
    return std::strtol(colon + 1, nullptr, 10);
}

} // namespace

int
runWorker(const std::vector<FabricItem> &items)
{
    ::signal(SIGPIPE, SIG_IGN);

    // The frame stream owns the original stdout; simulation code that
    // printf()s lands in /dev/null instead of the protocol.
    const int proto_out = ::dup(STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (proto_out < 0 || devnull < 0 ||
        ::dup2(devnull, STDOUT_FILENO) < 0) {
        std::fprintf(stderr,
                     "fabric worker: cannot set up stdio: %s\n",
                     std::strerror(errno));
        return 1;
    }
    ::close(devnull);

    FrameWriter out(proto_out);

    std::vector<std::string> ids;
    ids.reserve(items.size());
    for (const FabricItem &item : items)
        ids.push_back(item.id);
    const std::string queue_hash = queueHashHex(ids);

    sim::FrameSplitter splitter;
    std::string frame;
    auto read_frame = [&](std::string &payload) -> int {
        // 1 = frame, 0 = EOF at a boundary, -1 = stream error.
        while (!splitter.next(payload)) {
            if (splitter.failed())
                return -1;
            char buf[65536];
            const ssize_t n =
                ::read(STDIN_FILENO, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return -1;
            }
            if (n == 0)
                return splitter.finish() ? 0 : -1;
            splitter.feed(buf, static_cast<std::size_t>(n));
        }
        return 1;
    };
    auto stream_error = [&](const char *when) {
        std::fprintf(stderr, "fabric worker: %s: %s\n", when,
                     splitter.failed() ? splitter.error().c_str()
                                       : std::strerror(errno));
        return 1;
    };

    // The coordinator speaks first; both sides verify.
    if (read_frame(frame) != 1)
        return stream_error("reading coordinator hello");
    Frame hello;
    std::string error;
    if (!decodeFrame(frame, hello, error) ||
        hello.type != FrameType::Hello) {
        std::fprintf(stderr, "fabric worker: bad hello: %s\n",
                     error.c_str());
        return 1;
    }
    if (hello.hello.protocol != protocolVersion) {
        std::fprintf(stderr,
                     "fabric worker: protocol mismatch: coordinator "
                     "speaks '%s', this build speaks '%s'\n",
                     hello.hello.protocol.c_str(), protocolVersion);
        return 1;
    }
    if (hello.hello.queueHash != queue_hash ||
        hello.hello.items != items.size()) {
        std::fprintf(
            stderr,
            "fabric worker: work-queue mismatch: coordinator has %llu "
            "items hash %s, this worker derived %zu items hash %s "
            "(differing build, options, or environment)\n",
            static_cast<unsigned long long>(hello.hello.items),
            hello.hello.queueHash.c_str(), items.size(),
            queue_hash.c_str());
        return 1;
    }

    HelloFrame reply;
    reply.protocol = protocolVersion;
    reply.role = "worker";
    reply.queueHash = queue_hash;
    reply.items = items.size();
    reply.pid = static_cast<std::uint64_t>(::getpid());
    if (!out.send(encodeHello(reply)))
        return 1;

    // Liveness while a long point executes: heartbeat until shutdown.
    std::mutex hb_mutex;
    std::condition_variable hb_cv;
    bool hb_stop = false;
    std::int64_t busy_index = -1;
    std::thread heartbeat([&] {
        std::unique_lock<std::mutex> lock(hb_mutex);
        while (!hb_stop) {
            hb_cv.wait_for(lock,
                           std::chrono::milliseconds(kHeartbeatMs));
            if (hb_stop)
                break;
            HeartbeatFrame hb;
            hb.busyIndex = busy_index;
            out.send(encodeHeartbeat(hb));
        }
    });
    auto stop_heartbeat = [&] {
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            hb_stop = true;
        }
        hb_cv.notify_all();
        heartbeat.join();
    };

    const long kill_after = killAfterResults();
    std::uint64_t results = 0;
    int status = 0;
    while (true) {
        const int got = read_frame(frame);
        if (got == 0)
            break; // coordinator went away; orderly enough
        if (got < 0) {
            status = stream_error("reading frame");
            break;
        }
        Frame f;
        if (!decodeFrame(frame, f, error)) {
            std::fprintf(stderr, "fabric worker: %s\n",
                         error.c_str());
            status = 1;
            break;
        }
        if (f.type == FrameType::Bye) {
            ByeFrame bye;
            bye.results = results;
            out.send(encodeBye(bye));
            break;
        }
        if (f.type != FrameType::Lease)
            continue; // heartbeats etc. are ignorable here
        const std::uint64_t index = f.lease.index;
        if (index >= items.size() ||
            f.lease.idHash != idHashHex(items[index].id)) {
            std::fprintf(stderr,
                         "fabric worker: lease for item %llu fails "
                         "the id-hash check; queues diverged\n",
                         static_cast<unsigned long long>(index));
            status = 1;
            break;
        }

        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            busy_index = static_cast<std::int64_t>(index);
        }
        ResultFrame result;
        result.index = index;
        result.epoch = f.lease.epoch;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            result.payload = items[index].run();
            result.ok = true;
        } catch (const std::exception &e) {
            result.ok = false;
            result.error = e.what();
        } catch (...) {
            result.ok = false;
            result.error = "unknown exception";
        }
        result.seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        {
            std::lock_guard<std::mutex> lock(hb_mutex);
            busy_index = -1;
        }
        if (!out.send(encodeResult(result)))
            break;
        ++results;
        if (kill_after >= 0 &&
            results == static_cast<std::uint64_t>(kill_after)) {
            ::raise(SIGKILL);
        }
    }

    stop_heartbeat();
    ::close(proto_out);
    return status;
}

} // namespace middlesim::fabric
