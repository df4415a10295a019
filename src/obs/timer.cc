#include "obs/timer.h"

#include <atomic>
#include <cstdio>

#include "common/log.h"
#include "obs/trace.h"

namespace mapp::obs {

PhaseProfiler::Node*&
PhaseProfiler::cursorLocked()
{
    const auto id = std::this_thread::get_id();
    auto it = cursors_.find(id);
    if (it == cursors_.end())
        it = cursors_.emplace(id, &root_).first;
    return it->second;
}

void
PhaseProfiler::enter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Node*& current = cursorLocked();
    auto it = current->children.find(name);
    if (it == current->children.end()) {
        auto node = std::make_unique<Node>();
        node->name = std::string(name);
        node->parent = current;
        it = current->children.emplace(node->name, std::move(node))
                 .first;
    }
    current = it->second.get();
}

void
PhaseProfiler::exit(double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Node*& current = cursorLocked();
    if (current == &root_)
        panic("PhaseProfiler::exit: no phase entered");
    current->seconds += seconds;
    current->count += 1;
    current = current->parent;
}

void
PhaseProfiler::copyTree(const Node& from, PhaseReport& to)
{
    to.name = from.name;
    to.seconds = from.seconds;
    to.count = from.count;
    to.children.reserve(from.children.size());
    for (const auto& [name, child] : from.children) {
        to.children.emplace_back();
        copyTree(*child, to.children.back());
    }
}

PhaseProfiler::PhaseReport
PhaseProfiler::report() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PhaseReport out;
    copyTree(root_, out);
    return out;
}

namespace {

void
renderReport(const PhaseProfiler::PhaseReport& node, int depth,
             std::string& out)
{
    if (depth >= 0) {  // skip the unnamed root
        char line[160];
        std::snprintf(line, sizeof(line), "%*s%-32s %12.6f s  x%llu\n",
                      depth * 2, "", node.name.c_str(), node.seconds,
                      static_cast<unsigned long long>(node.count));
        out += line;
    }
    for (const auto& child : node.children)
        renderReport(child, depth + 1, out);
}

}  // namespace

std::string
PhaseProfiler::toText() const
{
    std::string out;
    renderReport(report(), -1, out);
    return out;
}

void
PhaseProfiler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    root_.children.clear();
    root_.seconds = 0.0;
    root_.count = 0;
    cursors_.clear();
}

PhaseProfiler&
pipelineProfiler()
{
    static PhaseProfiler instance;
    return instance;
}

namespace {

/**
 * This thread's tid on the pipeline track: a small stable number handed
 * out in order of first use, so spans from different threads land on
 * different tracks instead of all claiming tid 0. The first span a
 * thread emits also names its track.
 */
int
pipelineTid(Tracer& tr)
{
    static std::atomic<int> next{0};
    thread_local const int tid = [&] {
        const int id = next.fetch_add(1, std::memory_order_relaxed);
        tr.nameThread(kPipelineTrackPid, id,
                      id == 0 ? "pipeline" : "worker " + std::to_string(id));
        return id;
    }();
    return tid;
}

}  // namespace

ScopedPhase::ScopedPhase(PhaseProfiler& profiler, std::string_view name,
                         std::vector<TraceArg> args)
    : profiler_(profiler), name_(name), args_(std::move(args))
{
    profiler_.enter(name_);
    if (tracer().enabled())
        startUs_ = tracer().wallTimeUs();
}

ScopedPhase::~ScopedPhase()
{
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    profiler_.exit(seconds);
    Tracer& tr = tracer();
    if (tr.enabled()) {
        tr.completeEvent(name_, "pipeline", startUs_, seconds * 1e6,
                         kPipelineTrackPid, pipelineTid(tr),
                         std::move(args_));
    }
}

}  // namespace mapp::obs
