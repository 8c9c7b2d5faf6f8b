#include "observers.hh"

#include <algorithm>

namespace perfbench
{

std::uint32_t
SpanLog::open(const char *name, std::uint32_t parent)
{
    const std::int64_t t = nowNs();
    spans_.push_back({name, parent, t, t});
    return static_cast<std::uint32_t>(spans_.size());
}

double
SpanLog::close(std::uint32_t id)
{
    Span &s = spans_.at(id - 1);
    s.end = nowNs();
    return static_cast<double>(s.end - s.start) * 1e-9;
}

void
SpanLog::add(const char *name, std::uint32_t parent, std::int64_t start,
             std::int64_t end)
{
    spans_.push_back({name, parent, start, end});
}

void
SpanLog::writeJson(std::ostream &os) const
{
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start;
    os << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\": " << i + 1
           << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << s.start - base
           << ", \"end_ns\": " << s.end - base << "}";
    }
    os << "\n]}\n";
}

Tracer::Tracer(SpanLog &spans, unsigned sample_every)
    : spans_(spans), sampleEvery_(std::max(1u, sample_every))
{
}

Tracer::~Tracer()
{
    detach();
}

void
Tracer::attach(middlesim::core::System &system, std::uint32_t phase)
{
    detach();
    system_ = &system;
    phase_ = phase;
    accessSpans_ = 0;
    system.memory().setAccessObserver(this);
    system.scheduler().setObserver(this);
    system.vm().setObserver(this);
}

void
Tracer::detach()
{
    if (!system_)
        return;
    system_->memory().setAccessObserver(nullptr);
    system_->scheduler().setObserver(nullptr);
    system_->vm().setObserver(nullptr);
    system_ = nullptr;
}

void
Tracer::preAccess(const middlesim::mem::MemRef &, middlesim::sim::Tick)
{
    if (++counts_.refs % sampleEvery_ != 0)
        return;
    sampling_ = true;
    // An empty clock pair read in the same place, so its cost can be
    // subtracted from the bracketed access.
    const std::int64_t empty = nowNs();
    sampleStart_ = nowNs();
    counts_.emptyPairNs += static_cast<double>(sampleStart_ - empty);
}

void
Tracer::postAccess(const middlesim::mem::MemRef &,
                   const middlesim::mem::AccessResult &res,
                   middlesim::sim::Tick)
{
    if (!sampling_)
        return;
    const std::int64_t end = nowNs();
    sampling_ = false;
    const auto bucket = static_cast<std::size_t>(res.servedBy);
    ++counts_.samples[bucket];
    counts_.sampleNs[bucket] += static_cast<double>(end - sampleStart_);
    if (accessSpans_ < accessSpanCap) {
        ++accessSpans_;
        spans_.add("access", gcSpan_ ? gcSpan_ : phase_, sampleStart_,
                   end);
    }
}

void
Tracer::onDispatch(unsigned, const middlesim::os::SimThread &, bool,
                   middlesim::sim::Tick)
{
    ++counts_.dispatches;
}

void
Tracer::onAllocate(unsigned, middlesim::mem::Addr, std::uint64_t)
{
    ++counts_.allocations;
}

void
Tracer::onCollectionBegin(const middlesim::jvm::GcWork &)
{
    gcSpan_ = spans_.open("gc", phase_);
    accessSpans_ = 0;
}

void
Tracer::onCollectionEnd(bool)
{
    if (!gcSpan_)
        return;
    counts_.gcSeconds += spans_.close(gcSpan_);
    gcSpan_ = SpanLog::noParent;
    accessSpans_ = 0;
}

} // namespace perfbench
