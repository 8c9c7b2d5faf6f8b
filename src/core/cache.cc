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
// extend the matching encode*() below (the field list, for
// CacheParams and LatencyModel), THEN update the pinned size.
// ---------------------------------------------------------------------

constexpr bool kLp64 = sizeof(void *) == 8;

template <typename T, std::size_t Expected>
constexpr bool sizePinned = !kLp64 || sizeof(T) == Expected;

#define MIDDLESIM_PIN_SIZE(type, expected)                              \
    static_assert(sizePinned<type, expected>,                           \
                  #type " changed size: update its encoder or field "   \
                  "list (and bump cacheSchemaVersion), then re-pin "    \
                  "the size in core/cache.cc")

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
encodeMachine(sim::FieldWriter &w, const sim::MachineConfig &m)
{
    w.u32(m.totalCpus);
    w.u32(m.appCpus);
    w.record(m.l1i);
    w.record(m.l1d);
    w.record(m.l2);
    w.u32(m.cpusPerL2);
    w.u8(static_cast<std::uint8_t>(m.protocol));
    w.u32(m.numaNodes);
    w.u8(static_cast<std::uint8_t>(m.topology));
    w.u32(m.dirOccupancy);
}

void
encodeCore(sim::FieldWriter &w, const cpu::CoreParams &c)
{
    w.f64(c.baseCpi);
    w.u32(c.storeBufferDepth);
    w.f64(c.rawProbability);
    w.u64(c.rawPenalty);
}

void
encodeJvm(sim::FieldWriter &w, const jvm::JvmParams &j)
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
encodeKernel(sim::FieldWriter &w, const os::KernelParams &k)
{
    w.u64(k.netSendInstr);
    w.u64(k.netRecvInstr);
    w.u64(k.switchInstr);
    w.u64(k.housekeepInstr);
    w.u64(k.housekeepPeriod);
}

void
encodeJbb(sim::FieldWriter &w, const workload::SpecJbbParams &p)
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
encodeEcperf(sim::FieldWriter &w, const workload::EcperfParams &p)
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
encodeSystemConfig(sim::FieldWriter &w, const SystemConfig &c)
{
    encodeMachine(w, c.machine);
    w.record(c.latency);
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
    sim::ByteWriter bytes;
    sim::FieldWriter w(bytes);
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
    return bytes.take();
}

std::string
cacheFileName(const std::string &kind, const std::string &key)
{
    return kind + "-" + sim::hashHex(sim::fnv1a64(kind + "\x1f" + key)) +
           ".msc";
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
    return throughCache<RunResult>("run", spec,
                                   [&] { return runExperiment(spec); });
}

} // namespace middlesim::core
