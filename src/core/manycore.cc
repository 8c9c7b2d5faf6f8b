#include "core/manycore.hh"

#include <algorithm>

#include "core/figures_internal.hh"
#include "core/metrics_io.hh"
#include "mem/directory/directory.hh"
#include "sim/log.hh"

namespace middlesim::core
{

namespace
{

using stats::Series;
using stats::Table;

/** A named counter out of a run's metric snapshot (0 when absent). */
std::uint64_t
counterOf(const RunResult &r, const std::string &name)
{
    if (!r.metrics)
        return 0;
    const auto it = r.metrics->counters.find(name);
    return it == r.metrics->counters.end() ? 0 : it->second;
}

/** Derived observables of one many-core point. */
struct ManycorePoint
{
    double mpki = 0.0;
    double cohShare = 0.0;
    double remoteFrac = 0.0;
    double hopsPerMiss = 0.0;
    double msgsPerMiss = 0.0;
};

ManycorePoint
derive(const RunResult &r)
{
    ManycorePoint p;
    const double instr = static_cast<double>(r.cpi.instructions);
    const double misses = static_cast<double>(r.cache.l2Misses());
    p.mpki = instr > 0.0
                 ? 1000.0 *
                       static_cast<double>(r.cache.dataMisses) / instr
                 : 0.0;
    p.cohShare =
        misses > 0.0
            ? static_cast<double>(r.cache.missCoherence) / misses
            : 0.0;
    const double local =
        static_cast<double>(counterOf(r, "mem.numa.local_misses"));
    const double remote =
        static_cast<double>(counterOf(r, "mem.numa.remote_misses"));
    p.remoteFrac =
        local + remote > 0.0 ? remote / (local + remote) : 0.0;
    const double hops =
        static_cast<double>(counterOf(r, "mem.numa.hops"));
    p.hopsPerMiss = misses > 0.0 ? hops / misses : 0.0;
    const double msgs = static_cast<double>(
        counterOf(r, "mem.dir.get_s") +
        counterOf(r, "mem.dir.get_m") +
        counterOf(r, "mem.dir.upgrades") +
        counterOf(r, "mem.dir.forwards") +
        counterOf(r, "mem.dir.invalidations_sent") +
        counterOf(r, "mem.dir.acks_received") +
        counterOf(r, "mem.dir.writebacks_home") +
        counterOf(r, "mem.dir.put_notices"));
    p.msgsPerMiss = misses > 0.0 ? msgs / misses : 0.0;
    return p;
}

/** mem.dir.lat.* bucket names, in ascending-edge order. */
const char *const latBucketNames[] = {
    "mem.dir.lat.le_64",   "mem.dir.lat.le_128",
    "mem.dir.lat.le_256",  "mem.dir.lat.le_512",
    "mem.dir.lat.le_1024", "mem.dir.lat.le_2048",
    "mem.dir.lat.le_4096", "mem.dir.lat.gt_4096"};
constexpr unsigned numLatBuckets = 8;

/** Table/series label of a point's interconnect configuration. */
const char *
protocolLabel(const ExperimentSpec &s)
{
    if (s.dirOccupancy == 0)
        return sim::toString(s.protocol);
    return s.topology == sim::Topology::Mesh ? "dir+mesh"
                                             : "dir+ring";
}

/** Home+link queueing delay per L2 miss of one contended point. */
double
queueDelayPerMiss(const RunResult &r)
{
    const double misses = static_cast<double>(r.cache.l2Misses());
    const double delay = static_cast<double>(
        counterOf(r, "mem.dir.occupancy_queue_delay") +
        counterOf(r, "mem.numa.link.queue_delay"));
    return misses > 0.0 ? delay / misses : 0.0;
}

/** Bucket-mass mean of the mem.dir.lat.* miss-latency CDF. */
double
meanBucketLatency(const RunResult &r)
{
    double total = 0.0, weighted = 0.0;
    for (unsigned b = 0; b < numLatBuckets; ++b) {
        const double count =
            static_cast<double>(counterOf(r, latBucketNames[b]));
        const double edge =
            b < numLatBuckets - 1
                ? static_cast<double>(mem::kDirLatEdges[b])
                : 2.0 * static_cast<double>(
                            mem::kDirLatEdges[numLatBuckets - 2]);
        total += count;
        weighted += count * edge;
    }
    return total > 0.0 ? weighted / total : 0.0;
}

} // namespace

const std::vector<unsigned> &
manycoreCpuCounts()
{
    static const std::vector<unsigned> counts = {16, 64, 128, 256,
                                                 512};
    return counts;
}

unsigned
manycoreNodesFor(unsigned cpus)
{
    return std::max(1u, cpus / 16);
}

double
manycoreTimeCompression(unsigned cpus)
{
    return std::min(1.0, 64.0 / static_cast<double>(cpus));
}

ExperimentSpec
manycoreSpec(unsigned cpus, sim::CoherenceProtocol protocol,
             const FigureOptions &opt)
{
    ExperimentSpec spec;
    spec.workload = WorkloadKind::SpecJbb;
    spec.appCpus = cpus;
    spec.totalCpus = cpus;
    spec.cpusPerL2 = 1;
    spec.protocol = protocol;
    spec.numaNodes =
        protocol == sim::CoherenceProtocol::DirectoryMesi
            ? manycoreNodesFor(cpus)
            : 1;
    spec.seed = opt.seed;
    // One warehouse (and worker thread) per processor, so the live
    // data set scales with the machine; the old generation must grow
    // past its 16-CPU default to hold it.
    const std::uint64_t live = 24ULL * (1 << 20) * cpus;
    spec.sys.jvm.heap.heapBytes =
        std::max<std::uint64_t>(spec.sys.jvm.heap.heapBytes,
                                live + (std::uint64_t{512} << 20));
    if (cpus > 16) {
        // The collector is single-threaded and stop-the-world; past the
        // bus scale its copy loop pays remote-node latency on every
        // line, so one minor pause can swallow the whole compressed
        // window (64 CPUs: gc_idle ~= 100%, zero transactions). Size
        // the nursery so allocation across warmup+measure never fills
        // it: the many-core points measure mutator memory behavior
        // between collections. GC scale-up is an explicit open item
        // (parallel/concurrent collectors, ROADMAP).
        spec.sys.jvm.heap.newGenBytes = live + (std::uint64_t{512} << 20);
        // The warehouse trees are pretenured into the old generation,
        // so it still needs the scaled live set plus headroom on top
        // of the enlarged nursery.
        spec.sys.jvm.heap.heapBytes =
            spec.sys.jvm.heap.newGenBytes + live + (std::uint64_t{1} << 30);
    }
    const double scale =
        opt.timeScale * manycoreTimeCompression(cpus);
    spec.warmup = static_cast<sim::Tick>(
        static_cast<double>(spec.warmup) * scale);
    spec.measure = static_cast<sim::Tick>(
        static_cast<double>(spec.measure) * scale);
    return spec;
}

std::vector<ExperimentSpec>
manycoreGridSpecs(const FigureOptions &opt)
{
    std::vector<ExperimentSpec> specs;
    // The matched anchor: the paper's snooping machine at 16 CPUs.
    specs.push_back(
        manycoreSpec(16, sim::CoherenceProtocol::SnoopBus, opt));
    for (unsigned cpus : manycoreCpuCounts())
        specs.push_back(manycoreSpec(
            cpus, sim::CoherenceProtocol::DirectoryMesi, opt));
    return specs;
}

unsigned
manycoreDirOccupancy()
{
    return 4;
}

const std::vector<unsigned> &
manycoreContendedCpuCounts()
{
    static const std::vector<unsigned> counts = {64, 128, 256};
    return counts;
}

ExperimentSpec
manycoreContendedSpec(unsigned cpus, sim::Topology topology,
                      const FigureOptions &opt)
{
    ExperimentSpec spec = manycoreSpec(
        cpus, sim::CoherenceProtocol::DirectoryMesi, opt);
    spec.topology = topology;
    spec.dirOccupancy = manycoreDirOccupancy();
    return spec;
}

std::vector<ExperimentSpec>
manycoreContendedGridSpecs(const FigureOptions &opt)
{
    std::vector<ExperimentSpec> specs;
    for (unsigned cpus : manycoreContendedCpuCounts()) {
        specs.push_back(
            manycoreContendedSpec(cpus, sim::Topology::Ring, opt));
        specs.push_back(
            manycoreContendedSpec(cpus, sim::Topology::Mesh, opt));
    }
    return specs;
}

FigureResult
runManycore(const FigureOptions &opt)
{
    FigureResult fig;
    fig.id = "fig_manycore";
    fig.title = "SPECjbb beyond the bus: directory MESI + NUMA at "
                "16-512 processors";

    std::vector<ExperimentSpec> specs = manycoreGridSpecs(opt);
    const std::size_t cbase = specs.size();
    const std::vector<ExperimentSpec> contended =
        manycoreContendedGridSpecs(opt);
    specs.insert(specs.end(), contended.begin(), contended.end());
    const std::vector<RunResult> results = runGrid(specs);
    for (std::size_t i = 0; i < specs.size(); ++i)
        fig.metricsByPoint.emplace(pointName(specs[i]),
                                   *results[i].metrics);

    Series mpki("data-mpki"), remote("remote-frac"),
        hops("hops-per-miss");
    Table table({"cpus", "protocol", "nodes", "compress", "tx",
                 "data-mpki", "coh%", "remote%", "hops/miss",
                 "msgs/miss"});
    std::vector<ManycorePoint> points(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const ExperimentSpec &s = specs[i];
        points[i] = derive(results[i]);
        const ManycorePoint &p = points[i];
        if (s.protocol == sim::CoherenceProtocol::DirectoryMesi &&
            s.dirOccupancy == 0) {
            mpki.add(s.totalCpus, p.mpki);
            remote.add(s.totalCpus, p.remoteFrac);
            hops.add(s.totalCpus, p.hopsPerMiss);
        }
        table.addRow(
            {fmt(s.totalCpus, 0), protocolLabel(s),
             fmt(s.numaNodes, 0),
             fmt(manycoreTimeCompression(s.totalCpus), 3),
             fmt(static_cast<double>(results[i].txTotal), 0),
             fmt(p.mpki, 2), fmt(100.0 * p.cohShare, 1),
             fmt(100.0 * p.remoteFrac, 1), fmt(p.hopsPerMiss, 2),
             fmt(p.msgsPerMiss, 2)});
    }

    // Fig 14/15-style communication-latency CDF per contended point:
    // cumulative fraction of directory misses completing within each
    // mem.dir.lat.* bucket edge.
    std::vector<Series> latCdfs;
    for (std::size_t i = cbase; i < specs.size(); ++i) {
        const ExperimentSpec &s = specs[i];
        Series cdf(std::string("lat-cdf-") + protocolLabel(s) + "-" +
                   std::to_string(s.totalCpus));
        double total = 0.0;
        for (unsigned b = 0; b < numLatBuckets; ++b)
            total += static_cast<double>(
                counterOf(results[i], latBucketNames[b]));
        double cum = 0.0;
        for (unsigned b = 0; b < numLatBuckets; ++b) {
            cum += static_cast<double>(
                counterOf(results[i], latBucketNames[b]));
            const double edge =
                b < numLatBuckets - 1
                    ? static_cast<double>(mem::kDirLatEdges[b])
                    : 2.0 * static_cast<double>(
                                mem::kDirLatEdges[numLatBuckets - 2]);
            cdf.add(edge, total > 0.0 ? cum / total : 0.0);
        }
        latCdfs.push_back(std::move(cdf));
    }

    // Index 0 is the snoop anchor; indices 1.. mirror
    // manycoreCpuCounts() (1 = dir@16, 2 = dir@64, ... 5 = dir@512).
    const RunResult &snoop16 = results[0];
    const RunResult &dir16 = results[1];
    const ManycorePoint &p16s = points[0];
    const ManycorePoint &p16d = points[1];
    const ManycorePoint &p64 = points[2];
    const ManycorePoint &p512 = points[5];

    bool all_ran = true;
    std::string ran_detail;
    for (std::size_t i = 1; i < results.size(); ++i) {
        const bool ok =
            results[i].txTotal > 0 &&
            counterOf(results[i], "mem.dir.get_s") +
                    counterOf(results[i], "mem.dir.get_m") >
                0;
        all_ran = all_ran && ok;
        if (!ok)
            ran_detail += " cpus=" +
                          std::to_string(specs[i].totalCpus);
    }
    fig.checks.push_back(check(
        "every directory point ran SPECjbb end-to-end with protocol "
        "traffic",
        all_ran,
        all_ran ? "tx>0 and dir messages>0 at 16/64/128/256/512"
                : "failed at" + ran_detail));
    fig.checks.push_back(check(
        "the single-node 16-CPU directory machine sees no remote "
        "misses",
        counterOf(dir16, "mem.numa.remote_misses") == 0,
        "remote=" + std::to_string(counterOf(
                        dir16, "mem.numa.remote_misses"))));
    fig.checks.push_back(check(
        "the matched 16-CPU directory point tracks the snooping bus",
        p16s.mpki > 0.0 && p16d.mpki > 0.5 * p16s.mpki &&
            p16d.mpki < 2.0 * p16s.mpki,
        "mpki snoop=" + fmt(p16s.mpki, 2) + " dir=" +
            fmt(p16d.mpki, 2)));
    fig.checks.push_back(check(
        "the remote-miss fraction grows with the node count",
        p512.remoteFrac > p64.remoteFrac,
        "remote-frac 64cpu=" + fmt(p64.remoteFrac, 3) + " 512cpu=" +
            fmt(p512.remoteFrac, 3)));
    fig.checks.push_back(check(
        "interconnect hops per miss grow with machine size",
        p512.hopsPerMiss > p64.hopsPerMiss,
        "hops/miss 64cpu=" + fmt(p64.hopsPerMiss, 2) + " 512cpu=" +
            fmt(p512.hopsPerMiss, 2)));
    fig.checks.push_back(check(
        "the snooping anchor carries no directory traffic",
        counterOf(snoop16, "mem.dir.get_s") == 0 &&
            counterOf(snoop16, "mem.numa.hops") == 0,
        "snoop metrics stay directory-free"));

    // Contended companion grid: ring/mesh per CPU count, in
    // manycoreContendedGridSpecs order.
    const RunResult &ring64 = results[cbase + 0];
    const RunResult &ring256 = results[cbase + 4];
    const RunResult &mesh256 = results[cbase + 5];
    const ManycorePoint &pRing256 = points[cbase + 4];
    const ManycorePoint &pMesh256 = points[cbase + 5];

    bool no_breaks = true, all_busy = true;
    std::string break_detail, busy_detail;
    for (std::size_t i = cbase; i < results.size(); ++i) {
        const std::uint64_t breaks =
            counterOf(results[i], "mem.dir.livelock_breaks");
        if (breaks != 0) {
            no_breaks = false;
            break_detail += " " + std::string(protocolLabel(specs[i])) +
                            "@" + std::to_string(specs[i].totalCpus) +
                            "=" + std::to_string(breaks);
        }
        if (counterOf(results[i], "mem.dir.occupancy_busy_cycles") ==
                0 ||
            counterOf(results[i], "mem.numa.link.busy_cycles") == 0) {
            all_busy = false;
            busy_detail += " " + std::string(protocolLabel(specs[i])) +
                           "@" + std::to_string(specs[i].totalCpus);
        }
    }
    fig.checks.push_back(check(
        "honest contended runs never break the retry bound",
        no_breaks,
        no_breaks ? "mem.dir.livelock_breaks=0 at every contended "
                    "point"
                  : "breaks at" + break_detail));
    fig.checks.push_back(check(
        "contended homes and links both measure busy occupancy",
        all_busy,
        all_busy ? "occupancy and link busy cycles > 0 everywhere"
                 : "zero busy cycles at" + busy_detail));
    fig.checks.push_back(check(
        "queuing delay per miss grows with machine size on the ring",
        queueDelayPerMiss(ring256) > queueDelayPerMiss(ring64),
        "queue-delay/miss ring 64cpu=" +
            fmt(queueDelayPerMiss(ring64), 2) + " 256cpu=" +
            fmt(queueDelayPerMiss(ring256), 2)));
    fig.checks.push_back(check(
        "the mesh needs fewer hops per miss than the ring at 256 "
        "CPUs",
        pMesh256.hopsPerMiss < pRing256.hopsPerMiss,
        "hops/miss ring=" + fmt(pRing256.hopsPerMiss, 2) + " mesh=" +
            fmt(pMesh256.hopsPerMiss, 2)));
    fig.checks.push_back(check(
        "the mesh's miss-latency distribution beats the "
        "bisection-limited ring at 256 CPUs",
        meanBucketLatency(mesh256) < meanBucketLatency(ring256) &&
            meanBucketLatency(mesh256) > 0.0,
        "bucket-mean latency ring=" +
            fmt(meanBucketLatency(ring256), 1) + " mesh=" +
            fmt(meanBucketLatency(mesh256), 1)));
    bool base_clean = true;
    for (std::size_t i = 0; i < cbase; ++i)
        base_clean = base_clean &&
                     counterOf(results[i], "mem.dir.nacks") == 0 &&
                     counterOf(results[i],
                               "mem.dir.occupancy_queue_delay") == 0;
    fig.checks.push_back(check(
        "the contention-free grid registers no contended-mode "
        "counters",
        base_clean, "occupancy=0 points carry no nack/queue metrics"));

    fig.measured = {mpki, remote, hops};
    for (Series &cdf : latCdfs)
        fig.measured.push_back(std::move(cdf));
    fig.table = table;
    return fig;
}

} // namespace middlesim::core
