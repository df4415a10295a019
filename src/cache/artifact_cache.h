/**
 * @file
 * The persistent content-addressed artifact cache.
 *
 * Expensive pipeline artifacts — profiled workload traces, simulator
 * alone/shared run results, collected campaigns, trained models — are
 * memoized on disk across processes. Every artifact is addressed by a
 * 64-bit key hashed over (artifact kind, identity fields, the full
 * producing configuration, and a code-version salt), so any config or
 * code-semantics change invalidates cleanly by landing on a new key;
 * stale entries are never read, only orphaned. Values are the compact
 * binary blobs of cache/binary_io.h; a corrupt, truncated or
 * version-mismatched entry is detected by the reader, evicted, and the
 * caller recomputes and rewrites — never a crash, never a stale hit.
 *
 * Layout: `<dir>/<kind>/<16-hex-digest>.bin`, one file per artifact.
 * The directory defaults to $MAPP_CACHE_DIR, else $XDG_CACHE_HOME/mapp,
 * else ~/.cache/mapp; `mapp_cli --cache-dir=`/`--no-cache` override it.
 * Stores write to a temp file and rename() into place, so concurrent
 * processes and threads never observe partial entries.
 *
 * Observability: cache.{hits,misses,bytes_read,bytes_written,evictions}
 * counters in the default metrics registry, and `cache-load` /
 * `cache-store` phases on the pipeline profiler.
 */

#ifndef MAPP_CACHE_ARTIFACT_CACHE_H
#define MAPP_CACHE_ARTIFACT_CACHE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hash.h"
#include "common/log.h"

namespace mapp::cache {

/**
 * The code-version salt folded into every key by keyHasher(). Bump it
 * whenever a serialization format or the semantics of a cached
 * computation (profiler, simulators, collector, tree fit) change, so
 * old entries become unreachable instead of wrong. The MAPP_CACHE_SALT
 * env var appends to it (tests use this to force clean misses).
 */
inline constexpr std::string_view kCacheCodeSalt = "mapp-artifacts-v1";

/**
 * A Hasher seeded with the artifact kind and the code-version salt
 * (plus any MAPP_CACHE_SALT override). Call sites fold in their
 * identity and configuration fields and pass digest() as the key.
 */
Hasher keyHasher(std::string_view kind);

/** On-disk footprint of one artifact kind (for `mapp_cli cache stats`). */
struct KindStats
{
    std::string kind;
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
};

/** A content-addressed blob store rooted at one directory. */
class ArtifactCache
{
  public:
    /** Disabled until a directory is set. */
    ArtifactCache() = default;

    /** Rooted at @p dir (enabled if non-empty). */
    explicit ArtifactCache(std::string dir);

    /** Point at a new root; non-empty enables, empty disables. */
    void setDirectory(std::string dir);

    std::string directory() const;

    /** Master switch; load/store are no-ops while disabled. */
    void setEnabled(bool on);

    bool enabled() const;

    /** Path an entry would live at (whether or not it exists). */
    std::string entryPath(std::string_view kind, std::uint64_t key) const;

    /**
     * Store a finished blob under (kind, key): write-to-temp + atomic
     * rename. Counts cache.bytes_written. @return false when disabled
     * or on I/O failure (a cache store failure is never fatal — the
     * value was just computed and the caller proceeds with it).
     */
    bool store(std::string_view kind, std::uint64_t key,
               std::string_view blob);

    /**
     * Load-and-parse with corruption fallback. @p parse is invoked as
     * `parse(blob, path)` and must throw mapp::FatalError (typically
     * the binary reader's InputError) on any malformed input. Returns
     * the parsed artifact on a clean hit; nullopt when the cache is
     * disabled, the entry is absent (cache.misses), or the entry fails
     * to parse — in which case the corrupt file is evicted
     * (cache.evictions) so the caller's recompute-and-store leaves the
     * cache healthy.
     */
    template <typename Parser>
    auto loadAndParse(std::string_view kind, std::uint64_t key,
                      Parser&& parse)
        -> std::optional<decltype(parse(std::string(), std::string()))>
    {
        std::string path;
        const auto blob = readEntry(kind, key, path);
        if (!blob)
            return std::nullopt;
        try {
            auto value = parse(*blob, path);
            countHit(blob->size());
            return value;
        } catch (const FatalError& e) {
            evictCorrupt(kind, key, *blob, e.what());
            return std::nullopt;
        }
    }

    /**
     * The one load-or-compute path of every disk-backed layer: the
     * artifact parsed from (kind, key) on a clean hit (see
     * loadAndParse), else `compute()`, which is then stored as
     * `serialize(value)` while the cache is enabled.
     */
    template <typename Parser, typename Compute, typename Serializer>
    auto loadOrCompute(std::string_view kind, std::uint64_t key,
                       Parser&& parse, Compute&& compute,
                       Serializer&& serialize) -> decltype(compute())
    {
        if (auto loaded = loadAndParse(kind, key, parse))
            return std::move(*loaded);
        auto value = compute();
        if (enabled())
            store(kind, key, serialize(value));
        return value;
    }

    /** Remove one entry, counting cache.evictions. */
    void evict(std::string_view kind, std::uint64_t key,
               std::string_view reason = {});

    /** Per-kind entry counts and bytes on disk (kind-name sorted). */
    std::vector<KindStats> scan() const;

    /** Remove every entry; @return entries removed. */
    std::size_t clear();

  private:
    /**
     * Raw entry read; fills @p path with the entry location. Counts a
     * miss when enabled and absent. No hit accounting (loadAndParse
     * counts a hit only after a successful parse).
     */
    std::optional<std::string> readEntry(std::string_view kind,
                                         std::uint64_t key,
                                         std::string& path) const;

    void countHit(std::size_t bytes) const;

    /**
     * Evict an entry whose bytes @p bad failed to parse, unless a
     * concurrent store has replaced them since they were read: removing
     * the path then would delete a good entry another thread just wrote.
     */
    void evictCorrupt(std::string_view kind, std::uint64_t key,
                      std::string_view bad, std::string_view reason);

    mutable std::mutex mutex_;  ///< guards dir_/enabled_ only
    /** Serializes this process's entry writes with corrupt-entry
     * evictions (see evictCorrupt). */
    std::mutex writeMutex_;
    std::string dir_;
    bool enabled_ = false;
};

/**
 * The process-wide cache behind every loadOrCompute() site
 * (vision::cachedTrace, DataCollector, MultiAppPredictor::train). Its
 * root is resolved from the environment on first use; resolving to no
 * usable directory leaves it disabled.
 */
ArtifactCache& defaultArtifactCache();

}  // namespace mapp::cache

#endif  // MAPP_CACHE_ARTIFACT_CACHE_H
