#include "explore/explorer.hh"

#include <algorithm>
#include <cstdio>

#include "check/shrink.hh"
#include "explore/scheduler.hh"
#include "sim/log.hh"
#include "sim/metrics.hh"
#include "sim/threadpool.hh"

namespace middlesim::explore
{

namespace
{

/** A scheduling choice: CPU `cpu` executing its `pos`-th reference. */
struct Action
{
    unsigned cpu;
    std::uint32_t pos;
};

/** One DFS level below the root choice. */
struct Frame
{
    /** Enabled, non-sleeping actions at this node (ascending CPU). */
    std::vector<Action> options;
    /** Index of the branch currently being explored. */
    std::size_t chosen = 0;
};

/** What one root subtree produced. */
struct BranchOutcome
{
    ExploreStats stats;
    bool violated = false;
    std::string invariant;
    std::string detail;
    std::vector<trace::TraceRecord> schedule;
};

/** Sleep entries independent of `act` survive its execution. */
void
filterSleep(std::vector<Action> &sleep, const Action &act,
            const Streams &streams, const trace::TraceHeader &header)
{
    const mem::MemRef &ref = streams[act.cpu][act.pos];
    std::erase_if(sleep, [&](const Action &a) {
        return conflict(streams[a.cpu][a.pos], ref, header);
    });
}

bool
sleeping(const std::vector<Action> &sleep, unsigned cpu)
{
    for (const Action &a : sleep) {
        if (a.cpu == cpu)
            return true;
    }
    return false;
}

/**
 * Exhaust one root subtree: depth-first over scheduling choices,
 * re-executing each path from the logged prefix, stopping at the
 * subtree's first violation.
 */
BranchOutcome
runBranch(const trace::TraceHeader &header, const Streams &streams,
          const mem::FaultPlan *fault, const ExploreOptions &opts,
          const Action &root, const std::vector<Action> &rootSleep)
{
    BranchOutcome out;
    ExploreScheduler sched(header, streams, fault);
    std::vector<Frame> stack;
    std::vector<Action> sleep;

    const auto handlePath = [&](bool violated, bool complete) {
        out.stats.refsChecked += sched.refsChecked();
        if (violated) {
            out.stats.executions += 1;
            out.violated = true;
            const check::Violation &v = sched.violation();
            out.invariant = v.invariant;
            out.detail = v.detail;
            out.schedule = sched.executed();
        } else if (complete) {
            out.stats.executions += 1;
            out.stats.capacityMisses += sched.capacityMisses();
        }
    };

    for (;;) {
        if (opts.maxExecutionsPerBranch &&
            out.stats.executions >= opts.maxExecutionsPerBranch) {
            out.stats.truncated = true;
            return out;
        }

        // Re-execute the logged prefix: the root choice, then the
        // choice recorded at every frame on the stack.
        sched.reset();
        sleep = rootSleep;
        bool violated = false;
        filterSleep(sleep, root, streams, header);
        sched.step(root.cpu);
        ++out.stats.transitions;
        violated = sched.violated();
        std::size_t depth = 1;
        for (std::size_t i = 0; i < stack.size() && !violated; ++i) {
            const Frame &f = stack[i];
            const Action act = f.options[f.chosen];
            // Siblings explored before `chosen` go to sleep for the
            // whole subtree under `act` (until a conflict wakes them).
            for (std::size_t j = 0; j < f.chosen; ++j) {
                if (opts.dpor)
                    sleep.push_back(f.options[j]);
            }
            filterSleep(sleep, act, streams, header);
            sched.step(act.cpu);
            ++out.stats.transitions;
            ++depth;
            violated = sched.violated();
        }

        // Extend the path to completion with first-choice branches.
        bool complete = false;
        if (!violated) {
            complete = sched.done();
            while (!complete) {
                if (opts.depthBudget && depth >= opts.depthBudget) {
                    out.stats.truncated = true;
                    break;
                }
                Frame f;
                for (unsigned cpu = 0; cpu < streams.size(); ++cpu) {
                    if (sched.hasNext(cpu) && !sleeping(sleep, cpu))
                        f.options.push_back({cpu, sched.posOf(cpu)});
                }
                if (f.options.empty()) {
                    ++out.stats.sleepBlocked;
                    break;
                }
                const Action act = f.options[0];
                stack.push_back(std::move(f));
                filterSleep(sleep, act, streams, header);
                sched.step(act.cpu);
                ++out.stats.transitions;
                ++depth;
                if (sched.violated()) {
                    violated = true;
                    break;
                }
                complete = sched.done();
            }
        }

        handlePath(violated, complete);
        if (violated)
            return out;

        // Backtrack to the deepest frame with an unexplored branch.
        while (!stack.empty()) {
            Frame &f = stack.back();
            if (++f.chosen < f.options.size())
                break;
            stack.pop_back();
        }
        if (stack.empty())
            return out;
    }
}

void
mergeStats(ExploreStats &into, const ExploreStats &from)
{
    into.executions += from.executions;
    into.sleepBlocked += from.sleepBlocked;
    into.transitions += from.transitions;
    into.refsChecked += from.refsChecked;
    into.capacityMisses += from.capacityMisses;
    into.truncated = into.truncated || from.truncated;
}

} // namespace

ExploreResult
explore(const trace::TraceHeader &header, const Streams &streams,
        const mem::FaultPlan *fault, const ExploreOptions &opts)
{
    sim_assert(streams.size() == header.totalCpus,
               "explore: stream count != CPU count");
    ExploreResult result;
    result.naive = naiveInterleavings(streams, result.naiveSaturated);

    std::vector<Action> roots;
    for (unsigned cpu = 0; cpu < streams.size(); ++cpu) {
        if (!streams[cpu].empty())
            roots.push_back({cpu, 0});
    }
    if (roots.empty()) {
        // The empty schedule is the one (vacuously clean) execution.
        result.stats.executions = 1;
        return result;
    }

    // Every root subtree is always explored to its own completion —
    // never cancelled by a sibling's violation — so all counts (and
    // the JSON report) are byte-identical at any job count.
    std::vector<BranchOutcome> outcomes(roots.size());
    sim::ThreadPool pool(std::max(1u, opts.jobs));
    pool.parallelFor(roots.size(), [&](std::size_t b) {
        std::vector<Action> rootSleep;
        if (opts.dpor) {
            const mem::MemRef &ref =
                streams[roots[b].cpu][roots[b].pos];
            for (std::size_t j = 0; j < b; ++j) {
                const Action &prev = roots[j];
                if (!conflict(streams[prev.cpu][prev.pos], ref,
                              header))
                    rootSleep.push_back(prev);
            }
        }
        outcomes[b] = runBranch(header, streams, fault, opts,
                                roots[b], rootSleep);
    });

    for (const BranchOutcome &out : outcomes) {
        mergeStats(result.stats, out.stats);
        if (out.violated && !result.foundViolation) {
            result.foundViolation = true;
            result.invariant = out.invariant;
            result.detail = out.detail;
            result.schedule = out.schedule;
        }
    }

    if (result.foundViolation && opts.shrink) {
        check::ShrinkResult r =
            check::shrinkToMinimal(header, result.schedule, fault);
        sim_assert(r.reproduced && r.invariant == result.invariant,
                   "explore: deterministic schedule failed to "
                   "re-violate under shrinking");
        result.repro = std::move(r.records);
        result.shrinkProbes = r.probes;
    }
    return result;
}

std::string
reportJson(const ExploreResult &result, const ReportConfig &config)
{
    char buf[256];
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"middlesim-explore-v1\",\n";
    std::snprintf(buf, sizeof buf,
                  "  \"cpus\": %u,\n  \"cpus_per_l2\": %u,\n"
                  "  \"blocks\": %u,\n  \"refs\": %u,\n"
                  "  \"seed\": %llu,\n",
                  config.cpus, config.cpusPerL2, config.blocks,
                  config.refs,
                  static_cast<unsigned long long>(config.seed));
    out += buf;
    out += "  \"protocol\": \"" +
           std::string(sim::toString(config.protocol)) + "\",\n";
    std::snprintf(buf, sizeof buf, "  \"numa_nodes\": %u,\n",
                  config.numaNodes);
    out += buf;
    out += "  \"topology\": \"" +
           std::string(sim::toString(config.topology)) + "\",\n";
    std::snprintf(buf, sizeof buf, "  \"dir_occupancy\": %u,\n",
                  config.dirOccupancy);
    out += buf;
    out += "  \"inject\": \"" + sim::jsonEscape(config.inject) + "\",\n";
    std::snprintf(buf, sizeof buf,
                  "  \"depth_budget\": %u,\n  \"dpor\": %s,\n",
                  config.depthBudget, config.dpor ? "true" : "false");
    out += buf;
    std::snprintf(
        buf, sizeof buf,
        "  \"interleavings_explored\": %llu,\n"
        "  \"sleep_blocked\": %llu,\n"
        "  \"transitions\": %llu,\n"
        "  \"refs_checked\": %llu,\n"
        "  \"capacity_misses\": %llu,\n",
        static_cast<unsigned long long>(result.stats.executions),
        static_cast<unsigned long long>(result.stats.sleepBlocked),
        static_cast<unsigned long long>(result.stats.transitions),
        static_cast<unsigned long long>(result.stats.refsChecked),
        static_cast<unsigned long long>(result.stats.capacityMisses));
    out += buf;
    std::snprintf(
        buf, sizeof buf,
        "  \"naive_interleavings\": %llu,\n"
        "  \"naive_saturated\": %s,\n"
        "  \"pruning_ratio\": %.6g,\n"
        "  \"complete\": %s,\n",
        static_cast<unsigned long long>(result.naive),
        result.naiveSaturated ? "true" : "false",
        result.pruningRatio(),
        result.stats.truncated ? "false" : "true");
    out += buf;
    if (result.foundViolation) {
        out += "  \"violation\": {\n";
        out += "    \"invariant\": \"" +
               sim::jsonEscape(result.invariant) + "\",\n";
        out += "    \"detail\": \"" + sim::jsonEscape(result.detail) +
               "\",\n";
        std::snprintf(
            buf, sizeof buf,
            "    \"schedule_refs\": %zu,\n    \"repro_refs\": %zu,\n"
            "    \"shrink_probes\": %u,\n",
            result.schedule.size(), result.repro.size(),
            result.shrinkProbes);
        out += buf;
        out += "    \"repro_path\": \"" +
               sim::jsonEscape(config.reproPath) + "\"\n  },\n";
    } else {
        out += "  \"violation\": null,\n";
    }
    if (config.wallSeconds >= 0.0) {
        std::snprintf(buf, sizeof buf, "  \"wall_s\": %.3f,\n",
                      config.wallSeconds);
        out += buf;
    }
    out += "  \"version\": 1\n}\n";
    return out;
}

} // namespace middlesim::explore
