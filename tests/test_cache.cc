/**
 * @file
 * The persistent artifact cache and its binary serialization formats:
 * frame validation (magic/version/checksum/truncation), bit-identical
 * round-trips for traces, datasets and models, corrupt-entry fallback
 * (evict + recompute, never a crash or a stale hit), key invalidation
 * on config/salt changes, cross-collector warm loads, the single-flight
 * in-process memo (one compute per key under racing callers, nothing
 * memoized on a throw), and concurrent multi-thread access with
 * corruption injected (run under TSan via `ctest -L parallel` and ASan
 * via `ctest -L robustness`).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <latch>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/binary_io.h"
#include "cache/hash.h"
#include "cache/memo.h"
#include "common/error.h"
#include "isa/inst_class.h"
#include "isa/trace_binary.h"
#include "ml/dataset_binary.h"
#include "ml/decision_tree.h"
#include "ml/model_binary.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"

namespace {

using namespace mapp;

namespace fs = std::filesystem;

/** A fresh empty directory under the test temp root. */
std::string
freshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "mapp_cache_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * Point the process-wide artifact cache at a fresh temp directory for
 * one test; restores it to disabled on destruction so other tests in
 * the binary stay hermetic.
 */
class ScopedDefaultCache
{
  public:
    explicit ScopedDefaultCache(const std::string& name)
        : dir_(freshDir(name))
    {
        cache::defaultArtifactCache().setDirectory(dir_);
    }

    ~ScopedDefaultCache()
    {
        cache::defaultArtifactCache().setDirectory("");
        fs::remove_all(dir_);
    }

    const std::string& dir() const { return dir_; }

  private:
    std::string dir_;
};

/**
 * Disable the process-wide artifact cache for one test, so every
 * collector lookup below the memo is a real computation.
 */
class ScopedNoCache
{
  public:
    ScopedNoCache() : was_(cache::defaultArtifactCache().enabled())
    {
        cache::defaultArtifactCache().setEnabled(false);
    }

    ~ScopedNoCache() { cache::defaultArtifactCache().setEnabled(was_); }

  private:
    bool was_;
};

std::uint64_t
counterValue(const char* name)
{
    return obs::defaultRegistry().counter(name).value();
}

// ---------------------------------------------------------------------------
// Hashing

TEST(CacheHash, FieldBoundariesMatter)
{
    cache::Hasher a;
    a.add(std::string_view("ab"));
    a.add(std::string_view("c"));
    cache::Hasher b;
    b.add(std::string_view("a"));
    b.add(std::string_view("bc"));
    EXPECT_NE(a.digest(), b.digest());
}

TEST(CacheHash, DeterministicAcrossInstances)
{
    cache::Hasher a;
    a.add(42);
    a.add(3.25);
    a.add(std::string_view("SIFT"));
    cache::Hasher b;
    b.add(42);
    b.add(3.25);
    b.add(std::string_view("SIFT"));
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.hex().size(), 16u);
}

TEST(CacheHash, DoublesHashedByBitPattern)
{
    cache::Hasher a;
    a.add(0.0);
    cache::Hasher b;
    b.add(-0.0);
    EXPECT_NE(a.digest(), b.digest());  // 0.0 == -0.0 but distinct bits
}

TEST(CacheHash, KindAndSaltChangeTheKey)
{
    const std::uint64_t trace = cache::keyHasher("trace").digest();
    const std::uint64_t model = cache::keyHasher("model").digest();
    EXPECT_NE(trace, model);

    ::setenv("MAPP_CACHE_SALT", "test-salt-x", 1);
    const std::uint64_t salted = cache::keyHasher("trace").digest();
    ::unsetenv("MAPP_CACHE_SALT");
    EXPECT_NE(trace, salted);
    EXPECT_EQ(trace, cache::keyHasher("trace").digest());
}

// ---------------------------------------------------------------------------
// Binary frame

TEST(BinaryIo, RoundTripsEveryFieldType)
{
    cache::BinaryWriter w("TSTF", 3);
    w.u8(200);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-42);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.str("length-prefixed \0 binary");  // embedded NUL survives
    const std::string blob = std::move(w).finish();

    cache::BinaryReader r(blob, "test", "TSTF", 3);
    EXPECT_EQ(r.u8(), 200);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(r.str(), "length-prefixed ");  // string_view stops at NUL
    r.expectEnd();
}

TEST(BinaryIo, RejectsWrongMagic)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    const std::string blob = std::move(w).finish();
    EXPECT_THROW(cache::BinaryReader(blob, "t", "BBBB", 1), InputError);
}

TEST(BinaryIo, RejectsWrongVersion)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    const std::string blob = std::move(w).finish();
    EXPECT_THROW(cache::BinaryReader(blob, "t", "AAAA", 2), InputError);
}

TEST(BinaryIo, RejectsTruncationAtEveryLength)
{
    cache::BinaryWriter w("AAAA", 1);
    w.str("payload");
    w.f64(1.5);
    const std::string blob = std::move(w).finish();
    for (std::size_t n = 0; n < blob.size(); ++n) {
        EXPECT_THROW(cache::BinaryReader(blob.substr(0, n), "t", "AAAA", 1),
                     InputError)
            << "length " << n;
    }
}

TEST(BinaryIo, RejectsEverySingleBitFlip)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u64(0x1122334455667788ull);
    const std::string blob = std::move(w).finish();
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::string bad = blob;
        bad[i] = static_cast<char>(bad[i] ^ 0x10);
        EXPECT_THROW(cache::BinaryReader(bad, "t", "AAAA", 1), InputError)
            << "byte " << i;
    }
}

TEST(BinaryIo, RejectsOverRead)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    const std::string blob = std::move(w).finish();
    cache::BinaryReader r(blob, "t", "AAAA", 1);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u32(), InputError);  // past the payload
}

TEST(BinaryIo, ExpectEndRejectsTrailingPayload)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    w.u32(8);
    const std::string blob = std::move(w).finish();
    cache::BinaryReader r(blob, "t", "AAAA", 1);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.expectEnd(), InputError);
}

// ---------------------------------------------------------------------------
// Artifact formats round-trip bit-identically

isa::WorkloadTrace
sampleTrace()
{
    isa::WorkloadTrace trace("SIFT", 40);
    isa::KernelPhase p;
    p.name = "dog-pyramid";
    p.mix.add(isa::InstClass::IntAlu, 1000);
    p.mix.add(isa::InstClass::MemRead, 500);
    p.mix.add(isa::InstClass::FpAlu, 250);
    p.bytesRead = 1 << 20;
    p.bytesWritten = 1 << 18;
    p.footprint = 1 << 21;
    p.parallelFraction = 0.875;
    p.workItems = 4096;
    p.locality = 0.625;
    p.branchDivergence = 0.125;
    p.launches = 3;
    p.hostStaged = true;
    trace.append(p);
    isa::KernelPhase q = p;
    q.name = "orientation";
    q.hostStaged = false;
    q.parallelFraction = 0.5;
    trace.append(q);
    return trace;
}

TEST(ArtifactFormats, TraceRoundTripsBitIdentically)
{
    const auto trace = sampleTrace();
    const std::string blob = isa::traceToBinary(trace);
    const auto back = isa::traceFromBinary(blob, "blob");
    EXPECT_EQ(back.app(), trace.app());
    EXPECT_EQ(back.batchSize(), trace.batchSize());
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& a = trace.phases()[i];
        const auto& b = back.phases()[i];
        EXPECT_EQ(a.name, b.name);
        for (isa::InstClass c : isa::kAllInstClasses)
            EXPECT_EQ(a.mix.count(c), b.mix.count(c));
        EXPECT_EQ(a.bytesRead, b.bytesRead);
        EXPECT_EQ(a.bytesWritten, b.bytesWritten);
        EXPECT_EQ(a.footprint, b.footprint);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.parallelFraction),
                  std::bit_cast<std::uint64_t>(b.parallelFraction));
        EXPECT_EQ(a.workItems, b.workItems);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.locality),
                  std::bit_cast<std::uint64_t>(b.locality));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.branchDivergence),
                  std::bit_cast<std::uint64_t>(b.branchDivergence));
        EXPECT_EQ(a.launches, b.launches);
        EXPECT_EQ(a.hostStaged, b.hostStaged);
    }
    // Serialization is deterministic, so blobs are byte-stable too.
    EXPECT_EQ(blob, isa::traceToBinary(back));
}

TEST(ArtifactFormats, TraceBinaryRejectsCorruption)
{
    const std::string blob = isa::traceToBinary(sampleTrace());
    EXPECT_THROW(isa::traceFromBinary(blob.substr(0, blob.size() / 2), "t"),
                 InputError);
    std::string bad = blob;
    bad[blob.size() / 2] ^= 0x01;
    EXPECT_THROW(isa::traceFromBinary(bad, "t"), InputError);
    EXPECT_THROW(isa::traceFromBinary("", "t"), InputError);
}

ml::Dataset
sampleDataset()
{
    ml::Dataset data({"a0_cpu_time", "a0_gpu_time", "fairness"});
    data.addRow({1.5, 0.25, 0.9}, 2.75, "FAST+SIFT");
    data.addRow({3.0, 0.125, 0.7}, 1.5, "HoG+HoG");
    data.addRow({0.75, 2.5, 0.85}, 4.25, "SVM+KNN");
    data.addRow({2.25, 1.75, 0.95}, 3.5, "FAST+FAST");
    return data;
}

TEST(ArtifactFormats, DatasetRoundTripsBitIdentically)
{
    const auto data = sampleDataset();
    const auto back = ml::datasetFromBinary(ml::datasetToBinary(data), "b");
    ASSERT_EQ(back.size(), data.size());
    EXPECT_EQ(back.featureNames(), data.featureNames());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(back.row(i), data.row(i));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.target(i)),
                  std::bit_cast<std::uint64_t>(data.target(i)));
        EXPECT_EQ(back.group(i), data.group(i));
    }
}

TEST(ArtifactFormats, DatasetHashCoversContent)
{
    auto digestOf = [](const ml::Dataset& d) {
        cache::Hasher h;
        ml::hashDataset(h, d);
        return h.digest();
    };
    const auto data = sampleDataset();
    EXPECT_EQ(digestOf(data), digestOf(sampleDataset()));

    ml::Dataset tweakedTarget = sampleDataset();
    ml::Dataset tweakedGroup({"a0_cpu_time", "a0_gpu_time", "fairness"});
    for (std::size_t i = 0; i < data.size(); ++i)
        tweakedGroup.addRow(data.row(i), data.target(i),
                            i == 0 ? "OTHER" : data.group(i));
    EXPECT_NE(digestOf(data), digestOf(tweakedGroup));
}

TEST(ArtifactFormats, TreeRoundTripPredictsIdentically)
{
    const auto data = sampleDataset();
    ml::DecisionTreeParams params;
    params.maxDepth = 4;
    params.minSamplesLeaf = 1;
    params.minSamplesSplit = 2;
    ml::DecisionTreeRegressor tree(params);
    tree.fit(data);

    const auto back =
        ml::treeFromBinary(ml::treeToBinary(tree), "model-blob");
    ASSERT_EQ(back.nodeCount(), tree.nodeCount());
    for (const auto& row : data.rows()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.predict(row)),
                  std::bit_cast<std::uint64_t>(tree.predict(row)));
    }
    // Node-for-node identity, not just behavioral equivalence.
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const auto a = tree.nodeView(i);
        const auto b = back.nodeView(i);
        EXPECT_EQ(a.leaf, b.leaf);
        EXPECT_EQ(a.feature, b.feature);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
                  std::bit_cast<std::uint64_t>(b.threshold));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
                  std::bit_cast<std::uint64_t>(b.value));
        EXPECT_EQ(a.samples, b.samples);
        EXPECT_EQ(a.left, b.left);
        EXPECT_EQ(a.right, b.right);
    }
}

TEST(ArtifactFormats, ModelBinaryRejectsGarbledNodes)
{
    const auto data = sampleDataset();
    ml::DecisionTreeRegressor tree;
    tree.fit(data);
    const std::string blob = ml::treeToBinary(tree);
    for (std::size_t i = 8; i < blob.size(); i += 7) {
        std::string bad = blob;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        // Checksum catches the flip; anything that (hypothetically)
        // slipped through would still die in fromNodes validation.
        EXPECT_THROW(ml::treeFromBinary(bad, "t"), FatalError);
    }
}

/**
 * Well-framed blobs (valid checksum) whose element count is 2^k but
 * whose payload holds almost nothing. Each reader must reject the
 * count against the payload before it sizes any allocation: a located
 * InputError, never std::bad_alloc or std::length_error.
 */
TEST(ArtifactFormats, CraftedCountsRaiseLocatedInputErrors)
{
    using Parse = std::function<void(const std::string&)>;
    struct Case
    {
        const char* what;
        std::function<std::string(std::uint64_t)> blob;
        Parse parse;
    };
    const Parse dataset = [](const std::string& b) {
        (void)ml::datasetFromBinary(b, "crafted");
    };
    const Parse model = [](const std::string& b) {
        (void)ml::treeFromBinary(b, "crafted");
    };
    const auto treeHeader = [](cache::BinaryWriter& w) {
        w.i32(8);    // maxDepth
        w.i32(2);    // minSamplesSplit
        w.i32(1);    // minSamplesLeaf
        w.f64(0.0);  // minImpurityDecrease
    };
    const Case cases[] = {
        {"MDST feature names",
         [](std::uint64_t n) {
             cache::BinaryWriter w("MDST", 1);
             w.u64(n);
             w.u64(0);
             return std::move(w).finish();
         },
         dataset},
        {"MDST rows",
         [](std::uint64_t n) {
             cache::BinaryWriter w("MDST", 1);
             w.u64(1);
             w.str("x");
             w.u64(n);
             return std::move(w).finish();
         },
         dataset},
        {"MMDL feature names",
         [&](std::uint64_t n) {
             cache::BinaryWriter w("MMDL", 1);
             treeHeader(w);
             w.u64(n);
             return std::move(w).finish();
         },
         model},
        {"MMDL nodes",
         [&](std::uint64_t n) {
             cache::BinaryWriter w("MMDL", 1);
             treeHeader(w);
             w.u64(0);
             w.u64(n);
             return std::move(w).finish();
         },
         model},
        {"MTRC phases",
         [](std::uint64_t n) {
             cache::BinaryWriter w("MTRC", 1);
             w.str("SIFT");
             w.i32(4);
             w.u32(static_cast<std::uint32_t>(isa::kNumInstClasses));
             w.u64(n);
             return std::move(w).finish();
         },
         [](const std::string& b) {
             (void)isa::traceFromBinary(b, "crafted");
         }},
    };
    for (const auto& c : cases) {
        for (const int k : {24, 28, 63}) {
            const std::string blob = c.blob(std::uint64_t{1} << k);
            SCOPED_TRACE(std::string(c.what) + ", count 2^" +
                         std::to_string(k));
            try {
                c.parse(blob);
                ADD_FAILURE() << "crafted count was accepted";
            } catch (const InputError& e) {
                EXPECT_EQ("crafted", e.error().context().file);
                EXPECT_NE(std::string(e.what()).find("exceeds the payload"),
                          std::string::npos)
                    << e.what();
            } catch (const std::exception& e) {
                ADD_FAILURE() << "threw " << typeid(e).name() << ": "
                              << e.what();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ArtifactCache behavior

std::string
testBlob(std::uint64_t key)
{
    cache::BinaryWriter w("TSTC", 1);
    w.u64(key * 3 + 1);
    return std::move(w).finish();
}

std::uint64_t
parseTestBlob(const std::string& blob, const std::string& path)
{
    cache::BinaryReader r(blob, path, "TSTC", 1);
    const std::uint64_t v = r.u64();
    r.expectEnd();
    return v;
}

TEST(ArtifactCache, StoreThenLoadHits)
{
    cache::ArtifactCache store(freshDir("store_load"));
    const std::uint64_t hits0 = counterValue("cache.hits");
    const std::uint64_t misses0 = counterValue("cache.misses");

    EXPECT_FALSE(
        store.loadAndParse("kind", 7, parseTestBlob).has_value());
    EXPECT_EQ(counterValue("cache.misses"), misses0 + 1);

    EXPECT_TRUE(store.store("kind", 7, testBlob(7)));
    const auto hit = store.loadAndParse("kind", 7, parseTestBlob);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 7u * 3 + 1);
    EXPECT_EQ(counterValue("cache.hits"), hits0 + 1);
}

TEST(ArtifactCache, DisabledCacheDoesNothing)
{
    cache::ArtifactCache store;  // no directory -> disabled
    EXPECT_FALSE(store.enabled());
    EXPECT_FALSE(store.store("kind", 1, testBlob(1)));
    const std::uint64_t misses0 = counterValue("cache.misses");
    EXPECT_FALSE(store.loadAndParse("kind", 1, parseTestBlob).has_value());
    EXPECT_EQ(counterValue("cache.misses"), misses0);  // not counted

    cache::ArtifactCache rooted(freshDir("disabled"));
    rooted.setEnabled(false);
    EXPECT_FALSE(rooted.store("kind", 1, testBlob(1)));
    EXPECT_FALSE(
        rooted.loadAndParse("kind", 1, parseTestBlob).has_value());
}

TEST(ArtifactCache, CorruptEntryIsEvictedAndRecomputed)
{
    cache::ArtifactCache store(freshDir("corrupt"));
    ASSERT_TRUE(store.store("kind", 9, testBlob(9)));

    // Garble the file on disk behind the cache's back.
    const std::string path = store.entryPath("kind", 9);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a valid frame";
    }
    const std::uint64_t evictions0 = counterValue("cache.evictions");
    EXPECT_FALSE(
        store.loadAndParse("kind", 9, parseTestBlob).has_value());
    EXPECT_EQ(counterValue("cache.evictions"), evictions0 + 1);
    EXPECT_FALSE(fs::exists(path));  // corrupt file removed

    // The recompute-and-store path leaves the cache healthy again.
    ASSERT_TRUE(store.store("kind", 9, testBlob(9)));
    const auto hit = store.loadAndParse("kind", 9, parseTestBlob);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 9u * 3 + 1);
}

TEST(ArtifactCache, TruncatedEntryFallsBack)
{
    cache::ArtifactCache store(freshDir("truncated"));
    ASSERT_TRUE(store.store("kind", 11, testBlob(11)));
    const std::string path = store.entryPath("kind", 11);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);
    EXPECT_FALSE(
        store.loadAndParse("kind", 11, parseTestBlob).has_value());
    EXPECT_FALSE(fs::exists(path));
}

TEST(ArtifactCache, ScanAndClear)
{
    cache::ArtifactCache store(freshDir("scan"));
    store.store("alpha", 1, testBlob(1));
    store.store("alpha", 2, testBlob(2));
    store.store("beta", 3, testBlob(3));

    const auto stats = store.scan();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].kind, "alpha");
    EXPECT_EQ(stats[0].entries, 2u);
    EXPECT_EQ(stats[1].kind, "beta");
    EXPECT_EQ(stats[1].entries, 1u);
    EXPECT_GT(stats[0].bytes, 0u);

    EXPECT_EQ(store.clear(), 3u);
    EXPECT_TRUE(store.scan().empty() ||
                store.scan()[0].entries + store.scan()[1].entries == 0);
}

// ---------------------------------------------------------------------------
// Pipeline integration: warm loads across collector instances

predictor::BagSpec
smallSpec()
{
    predictor::BagMember m{vision::BenchmarkId::Fast, 20};
    return predictor::BagSpec{m, m};
}

TEST(CacheIntegration, SecondCollectorLoadsIdenticalPointFromDisk)
{
    ScopedDefaultCache scoped("collector");

    predictor::DataCollector first;
    const auto cold = first.collect(smallSpec());

    const std::uint64_t hits0 = counterValue("cache.hits");
    predictor::DataCollector second;
    const auto warm = second.collect(smallSpec());
    // member + cpurun + gpurun records all hit.
    EXPECT_GE(counterValue("cache.hits"), hits0 + 3);

    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.fairness),
              std::bit_cast<std::uint64_t>(cold.fairness));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.cpuSharedMakespan),
              std::bit_cast<std::uint64_t>(cold.cpuSharedMakespan));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.gpuBagTime),
              std::bit_cast<std::uint64_t>(cold.gpuBagTime));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.a.cpuTime),
              std::bit_cast<std::uint64_t>(cold.a.cpuTime));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.a.gpuTime),
              std::bit_cast<std::uint64_t>(cold.a.gpuTime));
    EXPECT_EQ(warm.a.mixPercent, cold.a.mixPercent);
}

TEST(CacheIntegration, SharedCpuCoRunIsMemoizedWithinACollector)
{
    ScopedDefaultCache scoped("shared_memo");

    predictor::DataCollector collector;
    const auto point = collector.collect(smallSpec());
    const std::uint64_t hits0 =
        counterValue("collector.shared_cache_hits");
    const std::uint64_t misses0 =
        counterValue("collector.shared_cache_misses");

    // measureFairness() reuses collect()'s co-run: a memo hit, no new
    // miss, and the identical fairness value.
    const double fair = collector.measureFairness(smallSpec());
    EXPECT_EQ(counterValue("collector.shared_cache_hits"), hits0 + 1);
    EXPECT_EQ(counterValue("collector.shared_cache_misses"), misses0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fair),
              std::bit_cast<std::uint64_t>(point.fairness));
}

TEST(CacheIntegration, CorruptMemberRecordFallsBackToSimulation)
{
    ScopedDefaultCache scoped("corrupt_member");

    predictor::DataCollector first;
    const auto cold = first.collect(smallSpec());

    // Garble every member record on disk.
    const std::string memberDir = scoped.dir() + "/member";
    ASSERT_TRUE(fs::exists(memberDir));
    for (const auto& entry : fs::directory_iterator(memberDir)) {
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        out << "garbage";
    }

    predictor::DataCollector second;
    const auto recomputed = second.collect(smallSpec());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recomputed.gpuBagTime),
              std::bit_cast<std::uint64_t>(cold.gpuBagTime));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recomputed.a.cpuTime),
              std::bit_cast<std::uint64_t>(cold.a.cpuTime));
}

TEST(CacheIntegration, TrainedModelReloadsBitIdentically)
{
    ScopedDefaultCache scoped("model");

    predictor::PredictorParams params;
    params.scheme = predictor::FeatureScheme{};
    params.scheme.name = "times+fairness";
    params.scheme.cpuTime = true;
    params.scheme.gpuTime = true;
    params.scheme.fairness = true;

    // A small raw dataset carrying exactly the scheme's columns.
    ml::Dataset data(params.scheme.featureNames());
    const std::size_t nF = data.numFeatures();
    for (int r = 0; r < 12; ++r) {
        std::vector<double> row(nF);
        for (std::size_t k = 0; k < nF; ++k)
            row[k] = 0.25 * static_cast<double>((r * 7 + k * 3) % 11);
        data.addRow(std::move(row),
                    1.0 + 0.5 * static_cast<double>(r % 5), "G");
    }

    predictor::MultiAppPredictor cold(params);
    cold.train(data);
    const std::uint64_t hits0 = counterValue("cache.hits");

    predictor::MultiAppPredictor warm(params);
    warm.train(data);
    EXPECT_GE(counterValue("cache.hits"), hits0 + 1);

    const auto coldPred = cold.predictDataset(data);
    const auto warmPred = warm.predictDataset(data);
    ASSERT_EQ(coldPred.size(), warmPred.size());
    for (std::size_t i = 0; i < coldPred.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(coldPred[i]),
                  std::bit_cast<std::uint64_t>(warmPred[i]));
    }
}

// ---------------------------------------------------------------------------
// The single-flight memo

constexpr int kRacers = 8;

/** Run @p body on kRacers threads released together by one latch. */
template <typename Body>
void
race(Body body)
{
    std::latch start(kRacers);
    std::vector<std::thread> threads;
    threads.reserve(kRacers);
    for (int t = 0; t < kRacers; ++t) {
        threads.emplace_back([&start, &body, t] {
            start.arrive_and_wait();
            body(t);
        });
    }
    for (auto& thread : threads)
        thread.join();
}

TEST(Memo, RacersOnOneKeyRunTheComputeOnce)
{
    cache::Memo<int, std::vector<int>> memo("test.memo_race");
    const std::uint64_t hits0 = counterValue("test.memo_race_hits");
    const std::uint64_t misses0 = counterValue("test.memo_race_misses");
    std::atomic<int> runs{0};
    std::vector<const std::vector<int>*> seen(kRacers);

    race([&](int t) {
        seen[static_cast<std::size_t>(t)] = &memo.get(7, [&] {
            runs.fetch_add(1);
            // Long enough that every racer arrives while in flight.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return std::vector<int>{1, 2, 3};
        });
    });

    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(counterValue("test.memo_race_misses"), misses0 + 1);
    EXPECT_EQ(counterValue("test.memo_race_hits"), hits0 + kRacers - 1);
    for (const auto* value : seen) {
        EXPECT_EQ(value, seen[0]);  // one slot, one stable reference
        EXPECT_EQ(*value, (std::vector<int>{1, 2, 3}));
    }
}

TEST(Memo, ThrowingComputeMemoizesNothing)
{
    cache::Memo<int, int> memo("test.memo_throw");
    int runs = 0;
    const auto failing = [&]() -> int {
        ++runs;
        throw std::runtime_error("compute failed");
    };

    EXPECT_THROW(memo.get(1, failing), std::runtime_error);
    EXPECT_FALSE(memo.contains(1));

    // The next get() runs the compute again, and its value sticks.
    EXPECT_EQ(memo.get(1, [&] { return ++runs * 10; }), 20);
    EXPECT_TRUE(memo.contains(1));
    EXPECT_EQ(memo.get(1, failing), 20);
    EXPECT_EQ(runs, 2);
}

TEST(Memo, WaitersRetryAfterTheComputeThrows)
{
    cache::Memo<int, int> memo("test.memo_retry");
    std::atomic<int> runs{0};
    std::atomic<int> thrown{0};
    std::atomic<int> values{0};

    race([&](int) {
        try {
            const int value = memo.get(3, [&] {
                const int run = runs.fetch_add(1) + 1;
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                if (run == 1)
                    throw std::runtime_error("first compute fails");
                return 42;
            });
            if (value == 42)
                values.fetch_add(1);
        } catch (const std::runtime_error&) {
            thrown.fetch_add(1);
        }
    });

    // Only the failing caller sees the exception; one retry serves
    // everyone else.
    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(thrown.load(), 1);
    EXPECT_EQ(values.load(), kRacers - 1);
}

TEST(CollectorMemo, RacingFairnessLookupsSimulateTheBagOnce)
{
    const ScopedNoCache noCache;
    predictor::DataCollector collector;
    const predictor::BagSpec spec{{vision::BenchmarkId::Hog, 20},
                                  {vision::BenchmarkId::Orb, 20}};
    const std::uint64_t misses0 =
        counterValue("collector.shared_cache_misses");
    std::vector<double> fairness(kRacers);

    race([&](int t) {
        fairness[static_cast<std::size_t>(t)] =
            collector.measureFairness(spec);
    });

    EXPECT_EQ(counterValue("collector.shared_cache_misses"), misses0 + 1);
    for (double value : fairness) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
                  std::bit_cast<std::uint64_t>(fairness[0]));
    }
}

TEST(CollectorMemo, ColdCampaignCountsOneMissPerDistinctMember)
{
    const ScopedNoCache noCache;
    predictor::DataCollector collector;
    const predictor::BagMember fast{vision::BenchmarkId::Fast, 20};
    const predictor::BagMember hog{vision::BenchmarkId::Hog, 20};
    const predictor::BagMember hog40{vision::BenchmarkId::Hog, 40};
    const predictor::BagMember orb{vision::BenchmarkId::Orb, 20};
    const std::vector<predictor::BagSpec> specs{
        {fast, fast}, {fast, hog}, {hog40, orb}, {orb, fast}};
    const std::set<predictor::BagMember> distinct{fast, hog, hog40, orb};

    const std::uint64_t misses0 =
        counterValue("collector.feature_cache_misses");
    const std::uint64_t hits0 = counterValue("collector.feature_cache_hits");
    collector.collectAll(specs);

    EXPECT_EQ(counterValue("collector.feature_cache_misses"),
              misses0 + distinct.size());
    // Assembly reads every member through the memo again.
    EXPECT_GE(counterValue("collector.feature_cache_hits"),
              hits0 + 2 * specs.size());
}

// ---------------------------------------------------------------------------
// Concurrency: many threads over one store, corruption injected

TEST(CacheConcurrency, ParallelLoadStoreWithCorruptionIsSafe)
{
    cache::ArtifactCache store(freshDir("concurrent"));
    constexpr int kKeys = 16;
    constexpr int kThreads = 8;

    // Pre-corrupt the even keys: those files must be evicted and
    // recomputed by whichever thread touches them first.
    for (std::uint64_t key = 0; key < kKeys; key += 2) {
        store.store("kind", key, testBlob(key));
        std::ofstream out(store.entryPath("kind", key),
                          std::ios::binary | std::ios::trunc);
        out << "corrupt";
    }

    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &wrong] {
            for (std::uint64_t key = 0; key < kKeys; ++key) {
                auto value =
                    store.loadAndParse("kind", key, parseTestBlob);
                if (!value) {
                    store.store("kind", key, testBlob(key));
                    value =
                        store.loadAndParse("kind", key, parseTestBlob);
                }
                if (!value || *value != key * 3 + 1)
                    wrong.fetch_add(1);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(wrong.load(), 0);

    // Every key ends healthy.
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        const auto value =
            store.loadAndParse("kind", key, parseTestBlob);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_EQ(*value, key * 3 + 1);
    }
}

}  // namespace
