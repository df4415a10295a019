#include "profiler/op_profiler.h"

#include "common/log.h"

namespace mapp::profiler {

namespace {

thread_local ProfilerSession* gActiveSession = nullptr;
thread_local isa::WorkloadTrace* gActiveTrace = nullptr;
thread_local std::size_t gRecorded = 0;

}  // namespace

ProfilerSession::ProfilerSession(std::string app, int batch_size)
    : trace_(std::move(app), batch_size)
{
    if (gActiveSession != nullptr)
        fatal("ProfilerSession: sessions may not be nested on a thread");
    gActiveSession = this;
    gActiveTrace = &trace_;
}

ProfilerSession::~ProfilerSession()
{
    if (gActiveSession == this) {
        gActiveSession = nullptr;
        gActiveTrace = nullptr;
    }
}

isa::WorkloadTrace
ProfilerSession::take()
{
    if (gActiveSession == this) {
        gActiveSession = nullptr;
        gActiveTrace = nullptr;
    }
    return std::move(trace_);
}

bool
sessionActive()
{
    return gActiveSession != nullptr;
}

const isa::WorkloadTrace*
activeTrace()
{
    return gActiveTrace;
}

void
record(isa::KernelPhase phase)
{
    phase.validate();
    ++gRecorded;
    if (gActiveTrace != nullptr)
        gActiveTrace->append(std::move(phase));
}

std::size_t
recordedPhaseCount()
{
    return gRecorded;
}

}  // namespace mapp::profiler
