#include "core/cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/log.hh"

namespace middlesim::core
{

namespace
{

// ---------------------------------------------------------------------
// Coverage guard: encodeSpecKey() must serialize every field of the
// spec and of every nested parameter struct. Adding a field (almost
// always) changes the struct size, so each struct's size is pinned
// here for the LP64 ABI the project targets; a mismatch is a compile
// error pointing at the encoder to update. When you add a field:
// extend the matching encode*() below, THEN update the pinned size.
// ---------------------------------------------------------------------

constexpr bool kLp64 = sizeof(void *) == 8;

template <typename T, std::size_t Expected>
constexpr bool sizePinned = !kLp64 || sizeof(T) == Expected;

#define MIDDLESIM_PIN_SIZE(type, expected)                              \
    static_assert(sizePinned<type, expected>,                           \
                  #type " changed size: update the matching encoder "   \
                  "in core/cache.cc (and bump cacheSchemaVersion), "    \
                  "then re-pin the size here")

MIDDLESIM_PIN_SIZE(sim::CacheParams, 16);
MIDDLESIM_PIN_SIZE(sim::MachineConfig, 80);
MIDDLESIM_PIN_SIZE(mem::LatencyModel, 72);
MIDDLESIM_PIN_SIZE(cpu::CoreParams, 32);
MIDDLESIM_PIN_SIZE(jvm::HeapParams, 32);
MIDDLESIM_PIN_SIZE(jvm::JvmParams, 96);
MIDDLESIM_PIN_SIZE(os::KernelParams, 40);
MIDDLESIM_PIN_SIZE(workload::SpecJbbParams, 200);
MIDDLESIM_PIN_SIZE(workload::EcperfParams, 144);
MIDDLESIM_PIN_SIZE(SystemConfig, 376);
MIDDLESIM_PIN_SIZE(ExperimentSpec, 792);

#undef MIDDLESIM_PIN_SIZE

void
encodeCacheParams(sim::ByteWriter &w, const sim::CacheParams &p)
{
    w.u64(p.sizeBytes);
    w.u32(p.assoc);
    w.u32(p.blockBytes);
}

void
encodeMachine(sim::ByteWriter &w, const sim::MachineConfig &m)
{
    w.u32(m.totalCpus);
    w.u32(m.appCpus);
    encodeCacheParams(w, m.l1i);
    encodeCacheParams(w, m.l1d);
    encodeCacheParams(w, m.l2);
    w.u32(m.cpusPerL2);
    w.u8(static_cast<std::uint8_t>(m.protocol));
    w.u32(m.numaNodes);
    w.u8(static_cast<std::uint8_t>(m.topology));
    w.u32(m.dirOccupancy);
}

void
encodeLatency(sim::ByteWriter &w, const mem::LatencyModel &l)
{
    w.u64(l.l1Hit);
    w.u64(l.l2Hit);
    w.u64(l.memory);
    w.u64(l.cacheToCache);
    w.u64(l.upgrade);
    w.u64(l.busOccupancy);
    w.u64(l.busAddrOccupancy);
    w.u64(l.hop);
    w.u64(l.directoryLookup);
}

void
encodeCore(sim::ByteWriter &w, const cpu::CoreParams &c)
{
    w.f64(c.baseCpi);
    w.u32(c.storeBufferDepth);
    w.f64(c.rawProbability);
    w.u64(c.rawPenalty);
}

void
encodeJvm(sim::ByteWriter &w, const jvm::JvmParams &j)
{
    w.u64(j.heap.heapBytes);
    w.u64(j.heap.newGenBytes);
    w.u64(j.heap.tlabBytes);
    w.u64(j.heap.overshootBytes);
    w.f64(j.survivorFraction);
    w.f64(j.promoteFraction);
    w.u64(j.gcInstrPerLine);
    w.u64(j.rootScanInstr);
    w.f64(j.majorThreshold);
    w.u64(j.maxInitStores);
    w.f64(j.minorReportFactor);
    w.u64(j.paperYoungBytes);
}

void
encodeKernel(sim::ByteWriter &w, const os::KernelParams &k)
{
    w.u64(k.netSendInstr);
    w.u64(k.netRecvInstr);
    w.u64(k.switchInstr);
    w.u64(k.housekeepInstr);
    w.u64(k.housekeepPeriod);
}

void
encodeJbb(sim::ByteWriter &w, const workload::SpecJbbParams &p)
{
    w.u32(p.warehouses);
    for (double m : p.mix)
        w.f64(m);
    w.u32(p.stockLevels);
    w.u32(p.stockFanout);
    w.u32(p.custLevels);
    w.u32(p.custFanout);
    w.u32(p.distLevels);
    w.u32(p.distFanout);
    w.u32(p.itemLevels);
    w.u32(p.itemFanout);
    w.u32(p.nodeBytes);
    w.u32(p.orderLinesMean);
    w.u32(p.deliveryBatch);
    w.u64(p.orderBytes);
    w.u64(p.tempAllocBytes);
    w.f64(p.remotePaymentProb);
    w.f64(p.remoteItemProb);
    w.f64(p.jvmLockProb);
    w.f64(p.hotLeafProb);
    w.f64(p.warmLeafProb);
    w.u64(p.stockHotLeaves);
    w.u64(p.custHotLeaves);
    w.u64(p.itemHotLeaves);
    w.u64(p.stockWarmLeaves);
    w.u64(p.custWarmLeaves);
    w.f64(p.instrScale);
}

void
encodeEcperf(sim::ByteWriter &w, const workload::EcperfParams &p)
{
    w.u32(p.injectionRate);
    w.u32(p.workerThreads);
    w.u32(p.connPoolSize);
    w.u32(p.tunedForCpus);
    for (double m : p.mix)
        w.f64(m);
    w.u64(p.keysPerOir);
    w.f64(p.beanZipf);
    w.u64(p.beanCacheCapacity);
    w.u32(p.beanBytes);
    w.u64(p.beanTtl);
    w.u64(p.dbLatencyMean);
    w.u64(p.supplierLatencyMean);
    w.u32(p.beansPerTx);
    w.u64(p.tempAllocBytes);
    w.f64(p.instrScale);
}

void
encodeSystemConfig(sim::ByteWriter &w, const SystemConfig &c)
{
    encodeMachine(w, c.machine);
    encodeLatency(w, c.latency);
    encodeCore(w, c.core);
    encodeJvm(w, c.jvm);
    encodeKernel(w, c.kernel);
    w.u8(c.busContention ? 1 : 0);
    w.u8(c.osBackground ? 1 : 0);
    w.u64(c.window);
    w.u64(c.timeslice);
    w.u64(c.spinBase);
    w.u64(c.rechoose);
    w.u32(c.gcCpu);
    w.u64(c.samplePeriod);
}

} // namespace

std::string
encodeSpecKey(const ExperimentSpec &spec)
{
    sim::ByteWriter w;
    w.str(cacheSchemaVersion);
    w.u8(spec.workload == WorkloadKind::SpecJbb ? 0 : 1);
    w.u32(spec.appCpus);
    w.u32(spec.totalCpus);
    w.u32(spec.cpusPerL2);
    w.u8(static_cast<std::uint8_t>(spec.protocol));
    w.u32(spec.numaNodes);
    w.u8(static_cast<std::uint8_t>(spec.topology));
    w.u32(spec.dirOccupancy);
    w.u32(spec.scale);
    w.u64(spec.warmup);
    w.u64(spec.measure);
    w.u64(spec.seed);
    w.u8(spec.trackCommunication ? 1 : 0);
    encodeSystemConfig(w, spec.sys);
    encodeJbb(w, spec.jbb);
    encodeEcperf(w, spec.ecperf);
    return w.take();
}

std::string
cacheFileName(const std::string &kind, const std::string &key)
{
    return kind + "-" + sim::hashHex(sim::fnv1a64(kind + "\x1f" + key)) +
           ".msc";
}

// ---------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------

void
encodeSnapshot(sim::ByteWriter &w, const sim::MetricSnapshot &s)
{
    w.u64(s.counters.size());
    for (const auto &[name, v] : s.counters) {
        w.str(name);
        w.u64(v);
    }
    w.u64(s.gauges.size());
    for (const auto &[name, v] : s.gauges) {
        w.str(name);
        w.f64(v);
    }
    w.u64(s.histograms.size());
    for (const auto &[name, h] : s.histograms) {
        w.str(name);
        w.u64(h.count);
        w.u64(h.sum);
        w.vecU64(h.buckets);
    }
    w.u64(s.series.size());
    for (const auto &[name, d] : s.series) {
        w.str(name);
        w.u64(d.period);
        w.vecF64(d.values);
    }
    w.u64(s.events.size());
    for (const auto &e : s.events) {
        w.u64(e.tick);
        w.str(e.type);
        w.str(e.detail);
    }
    w.u64(s.eventsDropped);
}

sim::MetricSnapshot
decodeSnapshot(sim::ByteReader &r)
{
    sim::MetricSnapshot s;
    const std::uint64_t counters = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < counters; ++i) {
        std::string name = r.str();
        s.counters.emplace(std::move(name), r.u64());
    }
    const std::uint64_t gauges = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < gauges; ++i) {
        std::string name = r.str();
        s.gauges.emplace(std::move(name), r.f64());
    }
    const std::uint64_t histograms = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < histograms; ++i) {
        std::string name = r.str();
        sim::MetricSnapshot::HistogramData h;
        h.count = r.u64();
        h.sum = r.u64();
        h.buckets = r.vecU64();
        s.histograms.emplace(std::move(name), std::move(h));
    }
    const std::uint64_t series = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < series; ++i) {
        std::string name = r.str();
        sim::MetricSnapshot::SeriesData d;
        d.period = r.u64();
        d.values = r.vecF64();
        s.series.emplace(std::move(name), std::move(d));
    }
    const std::uint64_t events = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < events; ++i) {
        sim::EventJournal::Event e;
        e.tick = r.u64();
        e.type = r.str();
        e.detail = r.str();
        s.events.push_back(std::move(e));
    }
    s.eventsDropped = r.u64();
    return s;
}

std::string
encodeRunResult(const RunResult &r)
{
    sim::ByteWriter w;
    w.f64(r.seconds);
    w.u64(r.txTotal);
    w.vecU64(r.txByType);
    w.f64(r.throughput);

    w.u64(r.cpi.instructions);
    w.u64(r.cpi.base);
    w.u64(r.cpi.iStall);
    w.u64(r.cpi.dsStoreBuf);
    w.u64(r.cpi.dsRaw);
    w.u64(r.cpi.dsL2Hit);
    w.u64(r.cpi.dsC2C);
    w.u64(r.cpi.dsMemory);
    w.u64(r.cpi.dsOther);

    w.u64(r.modes.user);
    w.u64(r.modes.system);
    w.u64(r.modes.io);
    w.u64(r.modes.idle);
    w.u64(r.modes.gcIdle);

    w.u64(r.cache.ifetches);
    w.u64(r.cache.loads);
    w.u64(r.cache.stores);
    w.u64(r.cache.atomics);
    w.u64(r.cache.l1iHits);
    w.u64(r.cache.l1dHits);
    w.u64(r.cache.l2Accesses);
    w.u64(r.cache.l2Hits);
    w.u64(r.cache.missCold);
    w.u64(r.cache.missCoherence);
    w.u64(r.cache.missCapacity);
    w.u64(r.cache.c2cTransfers);
    w.u64(r.cache.upgrades);
    w.u64(r.cache.writebacks);
    w.u64(r.cache.blockStores);
    w.u64(r.cache.instrMisses);
    w.u64(r.cache.dataMisses);

    w.u64(r.gcMinor);
    w.u64(r.gcMajor);
    w.u64(r.gcPause);
    w.f64(r.liveAfterMB);
    w.f64(r.beanHitRate);

    w.u8(r.metrics ? 1 : 0);
    if (r.metrics)
        encodeSnapshot(w, *r.metrics);
    return w.take();
}

bool
decodeRunResult(const std::string &payload, RunResult &out)
{
    sim::ByteReader r(payload);
    RunResult res;
    res.seconds = r.f64();
    res.txTotal = r.u64();
    res.txByType = r.vecU64();
    res.throughput = r.f64();

    res.cpi.instructions = r.u64();
    res.cpi.base = r.u64();
    res.cpi.iStall = r.u64();
    res.cpi.dsStoreBuf = r.u64();
    res.cpi.dsRaw = r.u64();
    res.cpi.dsL2Hit = r.u64();
    res.cpi.dsC2C = r.u64();
    res.cpi.dsMemory = r.u64();
    res.cpi.dsOther = r.u64();

    res.modes.user = r.u64();
    res.modes.system = r.u64();
    res.modes.io = r.u64();
    res.modes.idle = r.u64();
    res.modes.gcIdle = r.u64();

    res.cache.ifetches = r.u64();
    res.cache.loads = r.u64();
    res.cache.stores = r.u64();
    res.cache.atomics = r.u64();
    res.cache.l1iHits = r.u64();
    res.cache.l1dHits = r.u64();
    res.cache.l2Accesses = r.u64();
    res.cache.l2Hits = r.u64();
    res.cache.missCold = r.u64();
    res.cache.missCoherence = r.u64();
    res.cache.missCapacity = r.u64();
    res.cache.c2cTransfers = r.u64();
    res.cache.upgrades = r.u64();
    res.cache.writebacks = r.u64();
    res.cache.blockStores = r.u64();
    res.cache.instrMisses = r.u64();
    res.cache.dataMisses = r.u64();

    res.gcMinor = r.u64();
    res.gcMajor = r.u64();
    res.gcPause = r.u64();
    res.liveAfterMB = r.f64();
    res.beanHitRate = r.f64();

    if (r.u8())
        res.metrics = std::make_shared<sim::MetricSnapshot>(
            decodeSnapshot(r));
    if (!r.atEnd())
        return false;
    out = std::move(res);
    return true;
}

// ---------------------------------------------------------------------
// RunCache
// ---------------------------------------------------------------------

RunCache &
RunCache::global()
{
    static RunCache cache;
    return cache;
}

void
RunCache::setDiskDir(std::string dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dir_ = std::move(dir);
}

std::string
RunCache::diskDir() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dir_;
}

bool
RunCache::fetch(const std::string &kind, const std::string &key,
                std::string &payload)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = memo_.find({kind, key});
        if (it != memo_.end()) {
            payload = it->second;
            ++stats_.memoryHits;
            return true;
        }
    }
    const DiskLoad disk = loadDisk(kind, key, payload);
    if (disk == DiskLoad::Hit) {
        std::lock_guard<std::mutex> lock(mutex_);
        memo_[{kind, key}] = payload;
        ++stats_.diskHits;
        return true;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    if (disk == DiskLoad::Corrupt)
        ++stats_.corruptMisses;
    return false;
}

void
RunCache::store(const std::string &kind, const std::string &key,
                const std::string &payload)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        memo_[{kind, key}] = payload;
        ++stats_.stores;
    }
    storeDisk(kind, key, payload);
}

void
RunCache::clearMemory()
{
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.clear();
}

RunCache::Stats
RunCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
RunCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = Stats{};
}

RunCache::DiskLoad
RunCache::loadDisk(const std::string &kind, const std::string &key,
                   std::string &payload) const
{
    const std::string dir = diskDir();
    if (dir.empty())
        return DiskLoad::Absent;

    const std::string path = dir + "/" + cacheFileName(kind, key);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return DiskLoad::Absent;
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string file = buf.str();

    // Any malformed content — wrong schema, foreign kind/key (hash
    // collision), truncation, checksum mismatch, trailing garbage —
    // degrades to a miss; the subsequent store() rewrites the entry
    // atomically (miss-and-rewrite). The file is NOT unlinked here: a
    // concurrent writer may be about to rename a good entry into
    // place, and removal could race against it.
    sim::ByteReader r(file);
    if (r.str() != cacheSchemaVersion || r.str() != kind ||
        r.str() != key) {
        return DiskLoad::Corrupt;
    }
    std::string data = r.str();
    const std::uint64_t checksum = r.u64();
    if (!r.atEnd() || checksum != sim::fnv1a64(data))
        return DiskLoad::Corrupt;
    payload = std::move(data);
    return DiskLoad::Hit;
}

void
RunCache::storeDisk(const std::string &kind, const std::string &key,
                    const std::string &payload) const
{
    const std::string dir = diskDir();
    if (dir.empty())
        return;

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cache: cannot create '", dir, "': ", ec.message());
        return;
    }

    sim::ByteWriter w;
    w.str(cacheSchemaVersion);
    w.str(kind);
    w.str(key);
    w.str(payload);
    w.u64(sim::fnv1a64(payload));

    // A per-process, per-write temp name + rename keeps concurrent
    // writers (threads or processes) from ever exposing a partial file.
    const std::string final_path = dir + "/" + cacheFileName(kind, key);
    const std::string tmp_path = sim::tempPathFor(final_path);
    {
        std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("cache: cannot write '", tmp_path, "'");
            return;
        }
        os.write(w.data().data(),
                 static_cast<std::streamsize>(w.data().size()));
        if (!os) {
            os.close();
            std::filesystem::remove(tmp_path, ec);
            return;
        }
    }
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        warn("cache: cannot rename into '", final_path, "': ",
             ec.message());
        std::filesystem::remove(tmp_path, ec);
    }
}

// ---------------------------------------------------------------------
// Cached experiment execution
// ---------------------------------------------------------------------

RunResult
cachedRunExperiment(const ExperimentSpec &spec)
{
    return throughCache<RunResult>("run", spec, decodeRunResult,
                                   encodeRunResult,
                                   [&] { return runExperiment(spec); });
}

} // namespace middlesim::core
