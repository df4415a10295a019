#include "predictor/data_collection.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>

#include "cache/artifact_cache.h"
#include "cache/binary_io.h"
#include "common/error.h"
#include "common/log.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "profiler/mica.h"

namespace mapp::predictor {

bool
BagMember::operator<(const BagMember& rhs) const
{
    if (id != rhs.id)
        return static_cast<int>(id) < static_cast<int>(rhs.id);
    return batchSize < rhs.batchSize;
}

bool
BagSpec::operator<(const BagSpec& rhs) const
{
    if (a != rhs.a)
        return a < rhs.a;
    return b < rhs.b;
}

BagSpec
BagSpec::canonical() const
{
    BagSpec out = *this;
    if (out.b < out.a)
        std::swap(out.a, out.b);
    return out;
}

std::string
BagMember::label() const
{
    return vision::benchmarkName(id) + '@' + std::to_string(batchSize);
}

std::string
BagSpec::label() const
{
    return a.label() + '+' + b.label();
}

std::string
BagSpec::groupLabel() const
{
    return vision::benchmarkName(a.id) + "+" + vision::benchmarkName(b.id);
}

namespace {

// -------------------------------------------------------------------
// Artifact-cache keys. Every key folds in the workload identity plus
// every simulator knob the measurement depends on, so changing any
// config field (or the code salt) lands on a fresh key and a clean
// recompute — a stale hit is structurally impossible short of a hash
// collision.
// -------------------------------------------------------------------

constexpr std::string_view kMemberMagic = "MMBR";
constexpr std::string_view kCpuRunMagic = "MCPR";
constexpr std::string_view kGpuRunMagic = "MGPR";
constexpr std::string_view kCampaignMagic = "MCMP";
constexpr std::uint32_t kRecordVersion = 1;

void
hashConfig(cache::Hasher& h, const cpusim::CpuConfig& c)
{
    h.add(c.physicalCores);
    h.add(c.smtWays);
    h.add(c.frequency);
    h.add(std::span<const double>(c.cpi));
    h.add(c.llcSize);
    h.add(c.memLatencyCycles);
    h.add(c.mlpOverlap);
    h.add(c.memBandwidth);
    h.add(c.branchPenaltyCycles);
    h.add(c.baseMispredictRate);
    h.add(c.divergenceMispredictRate);
    h.add(c.smtYield);
    h.add(c.oversubscriptionPenalty);
    h.add(c.threadSpawnCycles);
}

void
hashConfig(cache::Hasher& h, const gpusim::GpuConfig& c)
{
    h.add(c.numSms);
    h.add(c.coresPerSm);
    h.add(c.frequency);
    h.add(c.warpSize);
    h.add(c.maxThreadsPerSm);
    h.add(std::span<const double>(c.throughputPerSm));
    h.add(c.l2Size);
    h.add(c.memBandwidth);
    h.add(c.serialIpc);
    h.add(c.launchOverhead);
    h.add(c.mpsSchedulingOverhead);
    h.add(c.pcieBandwidth);
    h.add(c.stagingLatency);
    h.add(c.divergenceLoss);
    h.add(c.tlbEntries);
    h.add(c.pageSize);
    h.add(c.tlbMissPenaltyCycles);
    h.add(c.tlbHiding);
    h.add(c.tlbMultiAppPressure);
    h.add(c.dramInterferenceLoss);
}

void
hashMember(cache::Hasher& h, const BagMember& m)
{
    h.add(vision::benchmarkName(m.id));
    h.add(m.batchSize);
}

std::uint64_t
memberKey(const BagMember& member, const cpusim::CpuConfig& cpu,
          const gpusim::GpuConfig& gpu, int forced_threads)
{
    cache::Hasher h = cache::keyHasher("member");
    hashMember(h, member);
    hashConfig(h, cpu);
    hashConfig(h, gpu);
    h.add(forced_threads);
    return h.digest();
}

std::uint64_t
cpuRunKey(const BagSpec& spec, const cpusim::CpuConfig& cpu,
          int forced_threads)
{
    cache::Hasher h = cache::keyHasher("cpurun");
    hashMember(h, spec.a);
    hashMember(h, spec.b);
    hashConfig(h, cpu);
    h.add(forced_threads);
    return h.digest();
}

std::uint64_t
gpuRunKey(const BagSpec& spec, const gpusim::GpuConfig& gpu)
{
    cache::Hasher h = cache::keyHasher("gpurun");
    hashMember(h, spec.a);
    hashMember(h, spec.b);
    hashConfig(h, gpu);
    return h.digest();
}

std::uint64_t
campaignKey(const std::vector<BagSpec>& specs,
            const cpusim::CpuConfig& cpu, const gpusim::GpuConfig& gpu,
            const CollectorParams& params)
{
    cache::Hasher h = cache::keyHasher("campaign");
    h.add(static_cast<std::uint64_t>(specs.size()));
    for (const auto& spec : specs) {
        const BagSpec canon = spec.canonical();
        hashMember(h, canon.a);
        hashMember(h, canon.b);
    }
    hashConfig(h, cpu);
    hashConfig(h, gpu);
    h.add(static_cast<int>(params.fairnessVariant));
    h.add(params.forcedThreads);
    return h.digest();
}

// -------------------------------------------------------------------
// Binary record formats. Readers re-validate semantic invariants after
// the frame checksum, so a corrupt-but-checksummed blob still cannot
// enter the pipeline — any violation raises and the artifact cache
// evicts the entry and recomputes.
// -------------------------------------------------------------------

void
writeAppFeatures(cache::BinaryWriter& w, const AppFeatures& f)
{
    w.str(f.app);
    w.i32(f.batchSize);
    w.f64(f.cpuTime);
    w.f64(f.gpuTime);
    w.u32(static_cast<std::uint32_t>(isa::kNumInstClasses));
    for (double v : f.mixPercent)
        w.f64(v);
}

/** Bytes one writeAppFeatures record encodes in at the least. */
constexpr std::size_t kMinAppFeatureBytes =
    cache::kMinStrBytes + 4 + 8 + 8 + 4 + 8 * isa::kNumInstClasses;

/** Bytes one campaign point encodes in at the least: two member names
 * and batches, two feature records and three doubles. */
constexpr std::size_t kMinPointBytes =
    2 * (cache::kMinStrBytes + 4) + 2 * kMinAppFeatureBytes + 3 * 8;

AppFeatures
readAppFeatures(cache::BinaryReader& r, const std::string& source)
{
    AppFeatures f;
    f.app = r.str();
    f.batchSize = r.i32();
    f.cpuTime = r.f64();
    f.gpuTime = r.f64();
    const std::uint32_t classes = r.u32();
    if (classes != isa::kNumInstClasses)
        raise({ErrorCode::Schema,
               "instruction-class count mismatch (expected " +
                   std::to_string(isa::kNumInstClasses) + ", found " +
                   std::to_string(classes) + ")",
               {source, 0, ""}});
    for (double& v : f.mixPercent)
        v = r.f64();
    return f;
}

std::string
memberToBinary(const MemberRecord& rec)
{
    cache::BinaryWriter w(kMemberMagic, kRecordVersion);
    writeAppFeatures(w, rec.features);
    w.i32(rec.threads);
    w.f64(rec.ipcAlone);
    return std::move(w).finish();
}

MemberRecord
memberFromBinary(const std::string& blob, const std::string& source)
{
    cache::BinaryReader r(blob, source, kMemberMagic, kRecordVersion);
    MemberRecord rec;
    rec.features = readAppFeatures(r, source);
    rec.threads = r.i32();
    rec.ipcAlone = r.f64();
    r.expectEnd();
    if (rec.threads < 1)
        raise({ErrorCode::Range, "thread count must be positive",
               {source, 0, ""}});
    return rec;
}

std::string
campaignToBinary(const std::vector<DataPoint>& points)
{
    cache::BinaryWriter w(kCampaignMagic, kRecordVersion);
    w.u64(points.size());
    for (const auto& p : points) {
        w.str(vision::benchmarkName(p.spec.a.id));
        w.i32(p.spec.a.batchSize);
        w.str(vision::benchmarkName(p.spec.b.id));
        w.i32(p.spec.b.batchSize);
        writeAppFeatures(w, p.a);
        writeAppFeatures(w, p.b);
        w.f64(p.fairness);
        w.f64(p.cpuSharedMakespan);
        w.f64(p.gpuBagTime);
    }
    return std::move(w).finish();
}

std::vector<DataPoint>
campaignFromBinary(const std::string& blob, const std::string& source)
{
    cache::BinaryReader r(blob, source, kCampaignMagic, kRecordVersion);
    const std::uint64_t n = r.count(kMinPointBytes);
    std::vector<DataPoint> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        DataPoint p;
        // benchmarkFromName rejects unknown names (FatalError), which
        // the artifact cache maps to evict-and-recompute like any
        // other corruption.
        p.spec.a.id = vision::benchmarkFromName(r.str());
        p.spec.a.batchSize = r.i32();
        p.spec.b.id = vision::benchmarkFromName(r.str());
        p.spec.b.batchSize = r.i32();
        p.a = readAppFeatures(r, source);
        p.b = readAppFeatures(r, source);
        p.fairness = r.f64();
        p.cpuSharedMakespan = r.f64();
        p.gpuBagTime = r.f64();
        out.push_back(std::move(p));
    }
    r.expectEnd();
    return out;
}

}  // namespace

DataCollector::DataCollector(cpusim::CpuConfig cpu_config,
                             gpusim::GpuConfig gpu_config,
                             CollectorParams params)
    : cpu_(cpu_config), gpu_(gpu_config), params_(params)
{
}

const MemberRecord&
DataCollector::memberRecord(const BagMember& member)
{
    return members_.get(member, [&] {
        return cache::defaultArtifactCache().loadOrCompute(
            "member",
            memberKey(member, cpu_.config(), gpu_.config(),
                      params_.forcedThreads),
            memberFromBinary,
            [&] {
                const obs::ScopedPhase phase(
                    "feature-extraction",
                    {obs::TraceArg::str("member", member.label())});
                const auto& trace =
                    vision::cachedTrace(member.id, member.batchSize);
                MemberRecord rec;
                rec.threads = params_.forcedThreads > 0
                                  ? params_.forcedThreads
                                  : cpu_.bestThreadCount(trace);
                // One alone run yields both the CPU-time feature and
                // the alone IPC the fairness metric divides by.
                const auto alone = cpu_.runAlone(trace, rec.threads);
                const auto mica = profiler::characterize(trace);
                rec.features.app = vision::benchmarkName(member.id);
                rec.features.batchSize = member.batchSize;
                rec.features.cpuTime = alone.time;
                rec.features.gpuTime = gpu_.runAlone(trace).time;
                rec.features.mixPercent = mica.mixPercent;
                rec.ipcAlone = alone.ipc;
                return rec;
            },
            memberToBinary);
    });
}

int
DataCollector::bestThreads(const BagMember& member)
{
    if (params_.forcedThreads > 0)
        return params_.forcedThreads;
    return memberRecord(member).threads;
}

double
DataCollector::ipcAlone(const BagMember& member)
{
    return memberRecord(member).ipcAlone;
}

const AppFeatures&
DataCollector::appFeatures(const BagMember& member)
{
    return memberRecord(member).features;
}

const DataCollector::SharedCpuRun&
DataCollector::sharedCpuRun(const BagSpec& spec)
{
    return sharedCpuRuns_.get(spec, [&] {
        return cache::defaultArtifactCache().loadOrCompute(
            "cpurun", cpuRunKey(spec, cpu_.config(), params_.forcedThreads),
            [](const std::string& blob, const std::string& path) {
                cache::BinaryReader r(blob, path, kCpuRunMagic,
                                      kRecordVersion);
                SharedCpuRun run;
                const std::uint64_t apps = r.u64();
                if (apps != 2)
                    raise({ErrorCode::Schema,
                           "shared-CPU record must hold two apps",
                           {path, 0, ""}});
                for (std::uint64_t i = 0; i < apps; ++i)
                    run.ipcShared.push_back(r.f64());
                run.makespan = r.f64();
                r.expectEnd();
                return run;
            },
            [&] {
                // Fairness input: the bag's CPU co-run IPCs (Equation 2).
                const obs::ScopedPhase phase("fairness-measurement");
                const auto& traceA =
                    vision::cachedTrace(spec.a.id, spec.a.batchSize);
                const auto& traceB =
                    vision::cachedTrace(spec.b.id, spec.b.batchSize);
                const auto cpuBag = cpu_.runShared(
                    {&traceA, &traceB},
                    {bestThreads(spec.a), bestThreads(spec.b)});
                return SharedCpuRun{
                    {cpuBag.apps[0].ipc, cpuBag.apps[1].ipc},
                    cpuBag.makespan};
            },
            [](const SharedCpuRun& run) {
                cache::BinaryWriter w(kCpuRunMagic, kRecordVersion);
                w.u64(run.ipcShared.size());
                for (double ipc : run.ipcShared)
                    w.f64(ipc);
                w.f64(run.makespan);
                return std::move(w).finish();
            });
    });
}

Seconds
DataCollector::gpuBagMakespan(const BagSpec& spec)
{
    return gpuRuns_.get(spec, [&] {
        return cache::defaultArtifactCache().loadOrCompute(
            "gpurun", gpuRunKey(spec, gpu_.config()),
            [](const std::string& blob, const std::string& path) {
                cache::BinaryReader r(blob, path, kGpuRunMagic,
                                      kRecordVersion);
                const Seconds makespan = r.f64();
                r.expectEnd();
                return makespan;
            },
            [&] {
                // The target: the bag's GPU execution time under MPS.
                const obs::ScopedPhase phase("gpu-bag-measurement");
                const auto& traceA =
                    vision::cachedTrace(spec.a.id, spec.a.batchSize);
                const auto& traceB =
                    vision::cachedTrace(spec.b.id, spec.b.batchSize);
                return gpu_.runShared({&traceA, &traceB}).makespan;
            },
            [](Seconds makespan) {
                cache::BinaryWriter w(kGpuRunMagic, kRecordVersion);
                w.f64(makespan);
                return std::move(w).finish();
            });
    });
}

void
DataCollector::simulateBags(std::span<const BagSpec> specs,
                            BagSimRequest want)
{
    // Distinct canonical bags whose co-runs the memos are still
    // missing; everything else is a lookup away already.
    std::set<BagSpec> cpuTodo;
    std::set<BagSpec> gpuTodo;
    for (const auto& raw : specs) {
        const BagSpec spec = raw.canonical();
        if (want.cpu && !sharedCpuRuns_.contains(spec))
            cpuTodo.insert(spec);
        if (want.gpu && !gpuRuns_.contains(spec))
            gpuTodo.insert(spec);
    }
    if (cpuTodo.empty() && gpuTodo.empty())
        return;

    // CPU co-runs read each member's best-alone thread count; warm the
    // member records first, one task per *distinct* member, so no two
    // bag workers wait on the same alone-run ladder.
    if (!cpuTodo.empty()) {
        std::set<BagMember> memberSet;
        for (const auto& spec : cpuTodo) {
            memberSet.insert(spec.a);
            memberSet.insert(spec.b);
        }
        const std::vector<BagMember> members(memberSet.begin(),
                                             memberSet.end());
        parallel::parallelFor(members.size(), [&](std::size_t i) {
            memberRecord(members[i]);
        });
    }

    // One unit per uncached (bag, simulator) co-run, fanned across the
    // pool lanes in a single batch. CPU and GPU runs of the same bag
    // are independent, so they ride as separate units.
    struct Unit
    {
        BagSpec spec;
        bool gpu = false;
    };
    std::vector<Unit> units;
    units.reserve(cpuTodo.size() + gpuTodo.size());
    for (const auto& spec : cpuTodo)
        units.push_back({spec, false});
    for (const auto& spec : gpuTodo)
        units.push_back({spec, true});
    obs::defaultRegistry()
        .counter("collector.batch_units")
        .add(units.size());
    parallel::parallelFor(units.size(), [&](std::size_t i) {
        if (units[i].gpu)
            gpuBagMakespan(units[i].spec);
        else
            sharedCpuRun(units[i].spec);
    });
}

std::vector<double>
DataCollector::measureFairnessBatch(std::span<const BagSpec> specs)
{
    simulateBags(specs, {.cpu = true, .gpu = false});
    std::vector<double> out;
    out.reserve(specs.size());
    for (const auto& spec : specs)
        out.push_back(measureFairness(spec));
    return out;
}

double
DataCollector::measureFairness(const BagSpec& raw_spec)
{
    const BagSpec spec = raw_spec.canonical();
    const auto& shared = sharedCpuRun(spec);
    const std::vector<double> alone{ipcAlone(spec.a), ipcAlone(spec.b)};
    return fairness(shared.ipcShared, alone, params_.fairnessVariant);
}

DataPoint
DataCollector::collect(const BagSpec& raw_spec)
{
    const BagSpec spec = raw_spec.canonical();

    DataPoint point;
    point.spec = spec;
    point.a = appFeatures(spec.a);
    point.b = appFeatures(spec.b);

    const auto& shared = sharedCpuRun(spec);
    point.cpuSharedMakespan = shared.makespan;
    const std::vector<double> alone{ipcAlone(spec.a), ipcAlone(spec.b)};
    point.fairness =
        fairness(shared.ipcShared, alone, params_.fairnessVariant);

    point.gpuBagTime = gpuBagMakespan(spec);
    obs::defaultRegistry().counter("collector.bags_collected").add(1);
    return point;
}

std::vector<DataPoint>
DataCollector::collectAll(const std::vector<BagSpec>& specs)
{
    const obs::ScopedPhase phase("campaign-collection");

    // Whole-campaign artifact: a warm second process loads every
    // DataPoint from one binary record and runs zero simulation (and
    // zero profiling — traces are only fetched on the compute path).
    return cache::defaultArtifactCache().loadOrCompute(
        "campaign", campaignKey(specs, cpu_.config(), gpu_.config(), params_),
        campaignFromBinary,
        [&] {
            obs::defaultRegistry()
                .gauge("collector.parallel_threads")
                .set(static_cast<double>(parallel::maxThreads()));
            // One batch: simulateBags() warms the member records (one
            // task per distinct member) and then fans every uncached
            // bag co-run — CPU fairness runs and GPU targets alike —
            // across the pool. Assembly below is then pure memo hits,
            // so a serial loop keeps the output order trivially
            // identical to the serial path.
            simulateBags(specs);
            std::vector<DataPoint> out;
            out.reserve(specs.size());
            for (const auto& spec : specs)
                out.push_back(collect(spec));
            return out;
        },
        campaignToBinary);
}

std::vector<BagSpec>
DataCollector::campaign91()
{
    std::vector<BagSpec> specs;

    // 45 homogeneous bags: every benchmark at every batch size.
    for (vision::BenchmarkId id : vision::kAllBenchmarks) {
        for (int batch : vision::kBatchSizes) {
            BagMember m{id, batch};
            specs.push_back(BagSpec{m, m});
        }
    }

    // 36 heterogeneous pairs at the standard batch of 20.
    for (std::size_t i = 0; i < vision::kAllBenchmarks.size(); ++i) {
        for (std::size_t j = i + 1; j < vision::kAllBenchmarks.size();
             ++j) {
            specs.push_back(
                BagSpec{{vision::kAllBenchmarks[i], 20},
                        {vision::kAllBenchmarks[j], 20}});
        }
    }

    // 10 heterogeneous pairs with mixed batch sizes (deterministic
    // stride-3 pairing; the second lap uses larger batches).
    for (int k = 0; k < 10; ++k) {
        const auto i = static_cast<std::size_t>(k) % 9;
        const auto j = (i + 3) % 9;
        const int batchA = k < 9 ? 40 : 80;
        const int batchB = k < 9 ? 160 : 320;
        specs.push_back(BagSpec{{vision::kAllBenchmarks[i], batchA},
                                {vision::kAllBenchmarks[j], batchB}});
    }

    if (specs.size() != 91)
        panic("campaign91: expected 91 bags");
    return specs;
}

std::vector<Seconds>
DataCollector::cpuHomogeneousScaling(const BagMember& member,
                                     int max_instances)
{
    const auto& trace = vision::cachedTrace(member.id, member.batchSize);
    const int threads = bestThreads(member);

    std::vector<Seconds> out;
    out.reserve(static_cast<std::size_t>(max_instances));
    for (int k = 1; k <= max_instances; ++k) {
        std::vector<const isa::WorkloadTrace*> traces(
            static_cast<std::size_t>(k), &trace);
        std::vector<int> teams(static_cast<std::size_t>(k), threads);
        out.push_back(cpu_.runShared(traces, teams).makespan);
    }
    return out;
}

std::vector<Seconds>
DataCollector::gpuHomogeneousScaling(const BagMember& member,
                                     int max_instances)
{
    const auto& trace = vision::cachedTrace(member.id, member.batchSize);

    std::vector<Seconds> out;
    out.reserve(static_cast<std::size_t>(max_instances));
    for (int k = 1; k <= max_instances; ++k) {
        std::vector<const isa::WorkloadTrace*> traces(
            static_cast<std::size_t>(k), &trace);
        out.push_back(gpu_.runShared(traces).makespan);
    }
    return out;
}

ml::Dataset
toDataset(const std::vector<DataPoint>& points)
{
    ml::Dataset data(bagFeatureNames());
    for (const auto& p : points) {
        data.addRow(buildBagVector(p.a, p.b, p.fairness), p.gpuBagTime,
                    p.spec.groupLabel());
    }
    return data;
}

std::pair<ml::Dataset, ml::Dataset>
splitOutBenchmark(const ml::Dataset& data, const std::string& benchmark)
{
    auto containsToken = [&](const std::string& group) {
        std::size_t start = 0;
        while (start <= group.size()) {
            const std::size_t end = group.find('+', start);
            const std::string token =
                group.substr(start, end == std::string::npos
                                        ? std::string::npos
                                        : end - start);
            if (token == benchmark)
                return true;
            if (end == std::string::npos)
                break;
            start = end + 1;
        }
        return false;
    };

    std::vector<std::size_t> trainIdx;
    std::vector<std::size_t> testIdx;
    for (std::size_t i = 0; i < data.size(); ++i) {
        if (containsToken(data.group(i)))
            testIdx.push_back(i);
        else
            trainIdx.push_back(i);
    }
    return {data.subset(trainIdx), data.subset(testIdx)};
}

}  // namespace mapp::predictor
