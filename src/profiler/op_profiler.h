/**
 * @file
 * The op-level profiler the instrumented vision primitives report into.
 *
 * This is MAPP's stand-in for PIN: while a vision kernel executes its real
 * computation, each primitive op tallies the dynamic instructions, memory
 * traffic and behavioural attributes of the work it just performed and
 * records them as a KernelPhase. A ProfilerSession binds a trace under
 * construction to the current thread; with no active session recording is
 * a no-op, so the kernels run unperturbed when only their functional
 * output is wanted.
 */

#ifndef MAPP_PROFILER_OP_PROFILER_H
#define MAPP_PROFILER_OP_PROFILER_H

#include <string>

#include "isa/kernel_phase.h"
#include "isa/trace.h"

namespace mapp::profiler {

/**
 * RAII scope that makes a WorkloadTrace the recording target for the
 * current thread. Sessions may not be nested on one thread.
 */
class ProfilerSession
{
  public:
    /**
     * Begin recording into a fresh trace.
     * @param app workload name stored in the trace
     * @param batch_size input batch size stored in the trace
     * @throws FatalError if a session is already active on this thread
     */
    ProfilerSession(std::string app, int batch_size);

    /** Ends the session; the trace remains retrievable via take(). */
    ~ProfilerSession();

    ProfilerSession(const ProfilerSession&) = delete;
    ProfilerSession& operator=(const ProfilerSession&) = delete;

    /** Move the completed trace out of the session. */
    isa::WorkloadTrace take();

    /** The trace built so far (for inspection mid-session). */
    const isa::WorkloadTrace& trace() const { return trace_; }

  private:
    isa::WorkloadTrace trace_;
};

/** True if a session is active on this thread. */
bool sessionActive();

/** The trace the active session on this thread records into, or null. */
const isa::WorkloadTrace* activeTrace();

/**
 * Record one phase into the active session; silently ignored if no
 * session is active (validates the phase either way so instrumentation
 * bugs surface in tests).
 */
void record(isa::KernelPhase phase);

/** Total phases recorded on this thread since process start (test aid). */
std::size_t recordedPhaseCount();

}  // namespace mapp::profiler

#endif  // MAPP_PROFILER_OP_PROFILER_H
