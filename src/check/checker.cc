#include "check/checker.hh"

#include "check/jvm_checker.hh"
#include "check/mem_checker.hh"
#include "check/sched_checker.hh"

namespace middlesim::check
{

Checker::Checker(mem::Hierarchy &hierarchy, os::Scheduler &sched,
                 jvm::Jvm &jvm, unsigned gc_cpu,
                 const CheckOptions &opts)
    : hierarchy_(hierarchy), sched_(sched), jvm_(jvm), report_(opts)
{
    mem_ = std::make_unique<MemChecker>(hierarchy, report_);
    schedCk_ = std::make_unique<SchedChecker>(sched, report_);
    jvmCk_ = std::make_unique<JvmChecker>(jvm, gc_cpu, report_,
                                          mem_.get());
    hierarchy_.setAccessObserver(mem_.get());
    sched_.setObserver(schedCk_.get());
    jvm_.setObserver(jvmCk_.get());
}

Checker::~Checker()
{
    hierarchy_.setAccessObserver(nullptr);
    sched_.setObserver(nullptr);
    jvm_.setObserver(nullptr);
}

void
Checker::finalize(sim::Tick now)
{
    mem_->auditFull(now);
}

namespace
{

bool gCheckingEnabled = false;

} // namespace

bool
checkingEnabled()
{
    return gCheckingEnabled;
}

void
setCheckingEnabled(bool on)
{
    gCheckingEnabled = on;
}

CheckOptions &
defaultCheckOptions()
{
    static CheckOptions opts;
    return opts;
}

} // namespace middlesim::check
