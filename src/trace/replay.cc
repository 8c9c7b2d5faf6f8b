#include "trace/replay.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

#include "sim/threadpool.hh"

namespace middlesim::trace
{

namespace
{

/** A decoded record as the replay passes it on: 24 bytes. */
struct Decoded
{
    /** A ref's address; an annotation's argument. */
    std::uint64_t addr;
    sim::Tick tick;
    std::uint32_t cpu;
    /** A ref's mem::AccessType, or kAnnotation. */
    std::uint8_t type;
    /** An annotation's mem::TraceAnnotation. */
    std::uint8_t kind;
};

constexpr std::uint8_t kAnnotation = 0xff;

/** Records per chunk and chunks per ring: 192 KB of records in all. */
constexpr std::size_t kChunkRecords = 1024;
constexpr std::size_t kRingChunks = 8;

struct Chunk
{
    std::size_t size = 0;
    Decoded records[kChunkRecords];
};

/**
 * Decode up to one chunk of records from `reader` into `chunk`,
 * counting them into `counts`. @return false once the reader has
 * nothing more to give (the footer or a violation).
 */
bool
fillChunk(TraceReader &reader, Chunk &chunk, ReplayCounts &counts)
{
    TraceRecord rec;
    chunk.size = 0;
    while (chunk.size < kChunkRecords) {
        if (!reader.next(rec))
            return false;
        counts.lastTick = rec.tick;
        Decoded &d = chunk.records[chunk.size++];
        d.tick = rec.tick;
        d.cpu = rec.ref.cpu;
        if (rec.isRef) {
            ++counts.refs;
            d.addr = rec.ref.addr;
            d.type = static_cast<std::uint8_t>(rec.ref.type);
            continue;
        }
        ++counts.annotations;
        if (rec.kind == mem::TraceAnnotation::MeasureBegin) {
            counts.sawMeasureBegin = true;
            counts.measureTick = rec.tick;
        } else if (rec.kind == mem::TraceAnnotation::Instructions) {
            counts.instructions += rec.arg;
        }
        d.addr = rec.arg;
        d.type = kAnnotation;
        d.kind = static_cast<std::uint8_t>(rec.kind);
    }
    return true;
}

/** The measurement protocol: one annotation's effect on a frontend. */
void
applyAnnotation(mem::TraceAnnotation kind, std::uint64_t arg,
                const ReplayFrontend &f)
{
    switch (kind) {
      case mem::TraceAnnotation::StatsReset:
        // The execution-driven runs reset the sweep counters adjacent
        // to beginMeasurement()'s hierarchy stat reset (no references
        // in between), so one annotation serves both frontends.
        if (f.hierarchy)
            f.hierarchy->resetStats();
        if (f.sweep)
            f.sweep->resetCounters();
        break;
      case mem::TraceAnnotation::RegionStatsReset:
        if (f.hierarchy)
            f.hierarchy->resetRegionStats();
        break;
      case mem::TraceAnnotation::CommTrackReset:
        if (f.hierarchy)
            f.hierarchy->resetCommunicationTracking();
        break;
      case mem::TraceAnnotation::InvalidateAll:
        if (f.hierarchy)
            f.hierarchy->invalidateAll();
        break;
      case mem::TraceAnnotation::Instructions:
        if (f.sweep)
            f.sweep->countInstructions(arg);
        break;
      default:
        // Measurement marks, GC windows, mode switches, migrations and
        // transaction boundaries are timeline metadata: they do not
        // affect memory-system state.
        break;
    }
}

/** Apply a chunk's records, in order, to one frontend. */
void
applyChunk(const Chunk &chunk, const ReplayFrontend &f)
{
    const Decoded *end = chunk.records + chunk.size;
    for (const Decoded *d = chunk.records; d != end; ++d) {
        if (d->type == kAnnotation) {
            applyAnnotation(static_cast<mem::TraceAnnotation>(d->kind),
                            d->addr, f);
            continue;
        }
        const mem::MemRef ref{d->addr, static_cast<mem::AccessType>(d->type),
                              d->cpu};
        // An L1I hit is applied in place, as the execution-driven
        // run applies it: the same effect as access().
        if (f.hierarchy &&
            !(ref.type == mem::AccessType::IFetch &&
              f.hierarchy->fetchHitInPlace(ref.cpu, ref.addr, d->tick)))
            f.hierarchy->access(ref, d->tick);
        if (f.sweep)
            f.sweep->access(ref);
    }
}

/**
 * The chunks every frontend's worker applies in trace order. A worker
 * that finds no chunk left to apply decodes the next ones itself,
 * while the others keep applying, into slots every worker has
 * finished with: so the fastest workers decode for the slowest, and
 * no thread waits on a decoding thread that is not running. One
 * worker decodes at a time, and the reader is used only then.
 */
class ChunkRing
{
  public:
    ChunkRing(TraceReader &reader, std::size_t workers)
        : reader_(reader), chunks_(std::make_unique<Chunk[]>(kRingChunks)),
          done_(workers, 0)
    {
    }

    /**
     * Worker w: its next chunk, decoded first if need be; nullptr
     * after the last.
     */
    const Chunk *
    acquire(std::size_t w)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (done_[w] < published_)
                return &chunks_[done_[w] % kRingChunks];
            if (ended_)
                return nullptr;
            if (!decoding_ && published_ - minDone() < kRingChunks) {
                decode(lock);
                continue;
            }
            ++waiting_;
            changed_.wait(lock);
            --waiting_;
        }
    }

    /** Worker w: done with the chunk acquire() returned. */
    void
    release(std::size_t w)
    {
        bool wake;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++done_[w];
            // A worker may be waiting for this slot to decode into.
            wake = waiting_ != 0 && !decoding_ &&
                   published_ - minDone() == kRingChunks / 2;
        }
        if (wake)
            changed_.notify_all();
    }

    const ReplayCounts &counts() const { return counts_; }

  private:
    /**
     * Decode chunks while free slots last, the lock released meanwhile;
     * waiting workers wake as each is published.
     */
    void
    decode(std::unique_lock<std::mutex> &lock)
    {
        decoding_ = true;
        do {
            Chunk &chunk = chunks_[published_ % kRingChunks];
            lock.unlock();
            bool more = false;
            try {
                more = fillChunk(reader_, chunk, counts_);
            } catch (...) {
                lock.lock();
                decoding_ = false;
                ended_ = true;
                changed_.notify_all();
                throw;
            }
            lock.lock();
            ++published_;
            ended_ = !more;
            if (waiting_ != 0)
                changed_.notify_all();
        } while (!ended_ && published_ - minDone() < kRingChunks);
        decoding_ = false;
    }

    std::uint64_t
    minDone() const
    {
        return *std::min_element(done_.begin(), done_.end());
    }

    TraceReader &reader_;
    ReplayCounts counts_;
    std::unique_ptr<Chunk[]> chunks_;
    std::mutex mutex_;
    std::condition_variable changed_;
    /** Chunks published, and chunks each worker has released. */
    std::uint64_t published_ = 0;
    std::vector<std::uint64_t> done_;
    unsigned waiting_ = 0;
    bool decoding_ = false;
    bool ended_ = false;
};

} // namespace

std::unique_ptr<mem::Hierarchy>
hierarchyFor(const TraceHeader &header, const ReplayOverrides &overrides)
{
    sim::MachineConfig machine = header.machine();
    if (overrides.l2SizeBytes != 0)
        machine.l2.sizeBytes = overrides.l2SizeBytes;
    if (overrides.cpusPerL2 != 0)
        machine.cpusPerL2 = overrides.cpusPerL2;
    machine.validate();

    auto hierarchy = std::make_unique<mem::Hierarchy>(
        machine, header.latency, header.busContention);
    if (header.trackCommunication)
        hierarchy->setCommunicationTracking(true);
    for (const TraceRegion &region : header.regions)
        hierarchy->defineRegion(region.name, region.base, region.bytes);
    return hierarchy;
}

unsigned
replayThreads()
{
    return sim::ThreadPool::onWorker()
        ? 1
        : std::max(1u, std::thread::hardware_concurrency());
}

ReplayCounts
replayTrace(TraceReader &reader,
            const std::vector<ReplayFrontend> &frontends)
{
    ReplayCounts counts;
    if (frontends.size() < 2 || replayThreads() < 2) {
        const auto chunk = std::make_unique<Chunk>();
        bool more = true;
        do {
            more = fillChunk(reader, *chunk, counts);
            for (const ReplayFrontend &f : frontends)
                applyChunk(*chunk, f);
        } while (more);
        return counts;
    }

    // A local pool: tasks of the global pool must not submit nested
    // work, and a pool made here postdates any fork of the caller.
    // Each frontend needs a worker of its own: the ring moves at the
    // pace of the slowest.
    ChunkRing ring(reader, frontends.size());
    sim::ThreadPool pool(static_cast<unsigned>(frontends.size()));
    std::vector<std::future<void>> applied;
    applied.reserve(frontends.size());
    for (std::size_t w = 0; w < frontends.size(); ++w) {
        applied.push_back(pool.submit([&ring, &frontends, w] {
            // A worker whose frontend throws still releases every
            // chunk, so no other worker waits on it.
            std::exception_ptr error;
            while (const Chunk *chunk = ring.acquire(w)) {
                if (!error) {
                    try {
                        applyChunk(*chunk, frontends[w]);
                    } catch (...) {
                        error = std::current_exception();
                    }
                }
                ring.release(w);
            }
            if (error)
                std::rethrow_exception(error);
        }));
    }
    for (std::future<void> &f : applied)
        f.get();
    return ring.counts();
}

ReplayCounts
replayTrace(TraceReader &reader, mem::Hierarchy *hierarchy,
            mem::SweepSimulator *sweep)
{
    return replayTrace(reader, {ReplayFrontend{hierarchy, sweep}});
}

} // namespace middlesim::trace
