/**
 * @file
 * The data-collection pipeline of Section V-B/V-C: enumerate the bag
 * campaign (91 runs: homogeneous and heterogeneous bags over the five
 * batch sizes), measure every app's single-instance features (CPU time
 * at its best thread count, GPU time, instruction mix), measure each
 * bag's fairness on the multicore and its execution time on the GPU
 * under MPS (the target), and assemble everything into an ml::Dataset.
 */

#ifndef MAPP_PREDICTOR_DATA_COLLECTION_H
#define MAPP_PREDICTOR_DATA_COLLECTION_H

#include <span>
#include <string>
#include <vector>

#include "cache/memo.h"
#include "cpusim/multicore_sim.h"
#include "gpusim/mps_sim.h"
#include "ml/dataset.h"
#include "predictor/fairness.h"
#include "predictor/features.h"
#include "vision/registry.h"

namespace mapp::predictor {

/** One member of a bag: a benchmark at a batch size. */
struct BagMember
{
    vision::BenchmarkId id = vision::BenchmarkId::Fast;
    int batchSize = 20;

    /** "FAST@20" style label. */
    std::string label() const;

    bool operator<(const BagMember& rhs) const;
    bool operator==(const BagMember& rhs) const = default;
};

/** A two-app bag (the paper's concurrency level). */
struct BagSpec
{
    BagMember a;
    BagMember b;

    /** Same benchmark and batch in both slots? */
    bool homogeneous() const { return a == b; }

    /** Canonical ordering: sort the two members. */
    BagSpec canonical() const;

    /** "FAST@20+SIFT@80" style label. */
    std::string label() const;

    /** "FAST+SIFT" — the benchmarks only (the LOOCV group tokens). */
    std::string groupLabel() const;

    /** Lexicographic member order (keys the shared-run caches). */
    bool operator<(const BagSpec& rhs) const;

    bool operator==(const BagSpec& rhs) const = default;
};

/** A complete measured data point (input features + target). */
struct DataPoint
{
    BagSpec spec;
    AppFeatures a;       ///< features of spec.a (single instance)
    AppFeatures b;       ///< features of spec.b
    double fairness = 0.0;
    Seconds cpuSharedMakespan = 0.0;  ///< diagnostic, not a feature
    Seconds gpuBagTime = 0.0;         ///< the prediction target
};

/** Which co-run measurements a simulateBags() batch should warm. */
struct BagSimRequest
{
    bool cpu = true;  ///< shared-CPU co-runs (fairness inputs)
    bool gpu = true;  ///< GPU bag runs under MPS (the target)
};

/** Extra knobs of the collection pipeline. */
struct CollectorParams
{
    FairnessVariant fairnessVariant = FairnessVariant::MinOverPairs;

    /**
     * Force every app to this thread count instead of its best-alone
     * configuration (0 = auto, the paper's setup). Lets the
     * thread-count ablation probe the paper's second open problem.
     */
    int forcedThreads = 0;
};

/** One member's single-instance measurements ("member" artifacts). */
struct MemberRecord
{
    AppFeatures features;
    int threads = 1;        ///< best-alone (or forced) thread count
    double ipcAlone = 0.0;  ///< alone-run CPU IPC at `threads`
};

/**
 * Runs the measurement pipeline over bags, caching per-app results.
 *
 * Memoization: one cache::Memo per layer — member records, shared-CPU
 * co-runs and GPU bag runs — each single-flight per key, so every
 * public method may be called concurrently from pool workers, a member
 * or bag is simulated at most once per collector, and the returned
 * references stay valid for the collector's lifetime. collectAll()
 * builds on this: simulateBags() warms the members (one task per
 * distinct member) and then the bag co-runs in parallel, after which
 * assembly in spec order is pure memo hits, so the output is identical
 * to the serial loop.
 *
 * Persistence: every layer is additionally backed by the process-wide
 * artifact cache (cache::defaultArtifactCache()) — per-member records
 * ("member"), shared-CPU co-runs ("cpurun"), GPU bag runs ("gpurun")
 * and whole campaigns ("campaign") — keyed on the workload identity
 * plus every simulator config knob, so a warm second process reloads
 * binary records instead of simulating (and a config change forces a
 * clean recompute). Corrupt entries fall back to simulation
 * transparently.
 */
class DataCollector
{
  public:
    DataCollector(cpusim::CpuConfig cpu_config = {},
                  gpusim::GpuConfig gpu_config = {},
                  CollectorParams params = {});

    const cpusim::MulticoreSim& cpuSim() const { return cpu_; }
    const gpusim::MpsSim& gpuSim() const { return gpu_; }

    /**
     * Single-instance features of one app (cached): CPU time at the
     * best thread count, GPU time alone, MICA mix percentages.
     */
    const AppFeatures& appFeatures(const BagMember& member);

    /** The best-alone thread count chosen for the app (cached). */
    int bestThreads(const BagMember& member);

    /** Alone-run CPU IPC at the best thread count (cached). */
    double ipcAlone(const BagMember& member);

    /** Measure one bag end to end. */
    DataPoint collect(const BagSpec& spec);

    /**
     * Measure only the bag's CPU-side fairness (Equation 2) — the cheap
     * pre-GPU measurement a scheduler may use without running the bag
     * on the GPU.
     */
    double measureFairness(const BagSpec& spec);

    /**
     * Simulate every not-yet-cached bag co-run in @p specs in one
     * batch, fanning the uncached (bag, simulator) units across the
     * global thread pool. Duplicate and already-warm bags cost a cache
     * lookup only; after return, measureFairness()/collect() on any of
     * the specs is a pure cache hit. @p want narrows the batch to one
     * simulator (a scheduler scoring candidates only needs the CPU
     * side).
     */
    void simulateBags(std::span<const BagSpec> specs,
                      BagSimRequest want = {});

    /**
     * Fairness for every bag in @p specs, in order: one simulateBags()
     * batch over the uncached CPU co-runs, then cache-hit assembly.
     */
    std::vector<double> measureFairnessBatch(
        std::span<const BagSpec> specs);

    /**
     * Measure a whole campaign. Fans the member and bag simulations
     * across the global thread pool via simulateBags() when the
     * parallel layer is enabled; the returned points are in @p specs
     * order and bit-identical to a serial run.
     */
    std::vector<DataPoint> collectAll(const std::vector<BagSpec>& specs);

    /**
     * The paper's 91-run campaign: 45 homogeneous bags (9 benchmarks x
     * 5 batch sizes), 36 heterogeneous pairs at the standard batch, and
     * 10 heterogeneous pairs with mixed batch sizes.
     */
    static std::vector<BagSpec> campaign91();

    /**
     * Per-instance-count CPU times for a homogeneous bag of 1..max
     * instances (Figure 1's series; performance = 1 / time).
     */
    std::vector<Seconds> cpuHomogeneousScaling(const BagMember& member,
                                               int max_instances);

    /** Same on the GPU (Figure 2's series). */
    std::vector<Seconds> gpuHomogeneousScaling(const BagMember& member,
                                               int max_instances);

  private:
    /** Memoized result of one canonical bag's shared-CPU co-run. */
    struct SharedCpuRun
    {
        std::vector<double> ipcShared;  ///< per-app shared IPCs
        Seconds makespan = 0.0;
    };

    /**
     * The member's record, memoized and disk-backed: loaded from the
     * artifact cache or simulated (and stored) on a miss.
     */
    const MemberRecord& memberRecord(const BagMember& member);

    /**
     * The bag's shared-CPU co-run, memoized per canonical spec (both
     * collect() and measureFairness() need it) and disk-backed.
     * @p spec must already be canonical.
     */
    const SharedCpuRun& sharedCpuRun(const BagSpec& spec);

    /**
     * The bag's GPU makespan under MPS, memoized per canonical spec
     * and disk-backed. @p spec must already be canonical.
     */
    Seconds gpuBagMakespan(const BagSpec& spec);

    cpusim::MulticoreSim cpu_;
    gpusim::MpsSim gpu_;
    CollectorParams params_;

    cache::Memo<BagMember, MemberRecord> members_{
        "collector.feature_cache"};
    cache::Memo<BagSpec, SharedCpuRun> sharedCpuRuns_{
        "collector.shared_cache"};
    cache::Memo<BagSpec, Seconds> gpuRuns_{"collector.gpu_cache"};
};

/**
 * Assemble data points into a raw (unnormalized) dataset with the full
 * bag feature layout; group labels are the bags' benchmark tokens.
 */
ml::Dataset toDataset(const std::vector<DataPoint>& points);

/**
 * Group-aware LOOCV split helper: rows whose group contains @p benchmark
 * as a '+'-separated token go to the test set (the paper holds out all
 * data points that involve the benchmark).
 */
std::pair<ml::Dataset, ml::Dataset> splitOutBenchmark(
    const ml::Dataset& data, const std::string& benchmark);

}  // namespace mapp::predictor

#endif  // MAPP_PREDICTOR_DATA_COLLECTION_H
