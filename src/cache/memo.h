/**
 * @file
 * The in-process memo behind every artifact layer: one value per key,
 * computed at most once at a time, with stable references.
 *
 * Single-flight: the first caller of an absent key runs the compute
 * outside the lock; concurrent callers of that key wait for it, while
 * callers of other keys proceed. A compute that throws memoizes
 * nothing: its exception reaches its own caller, the key stays absent,
 * and the next caller (a waiter included) runs the compute again.
 * (std::call_once cannot express that last rule portably: a throwing
 * once-body leaves a TSan-instrumented once_flag deadlocked.)
 *
 * Accounting: every get() counts exactly once, under
 * `<prefix>_misses` when it ran the compute and `<prefix>_hits`
 * otherwise, so a caller that waited on another's compute is a hit.
 */

#ifndef MAPP_CACHE_MEMO_H
#define MAPP_CACHE_MEMO_H

#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "obs/metrics.h"

namespace mapp::cache {

template <typename Key, typename Value>
class Memo
{
    // Publishing a computed value must not throw, or its waiters would
    // wait forever.
    static_assert(std::is_nothrow_move_assignable_v<std::optional<Value>>);

  public:
    /** Counts lookups under `<counter_prefix>_{hits,misses}`. */
    explicit Memo(std::string_view counter_prefix)
        : hits_(obs::defaultRegistry().counter(
              std::string(counter_prefix) + "_hits")),
          misses_(obs::defaultRegistry().counter(
              std::string(counter_prefix) + "_misses"))
    {
    }

    Memo(const Memo&) = delete;
    Memo& operator=(const Memo&) = delete;

    /**
     * The value memoized under @p key, running `compute()` to produce
     * it if absent. The reference stays valid for the memo's lifetime
     * (std::map nodes never move).
     */
    template <typename Compute>
    const Value& get(const Key& key, Compute&& compute)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto slot = slots_.end();
        // Wait out another thread's compute of this key. It may fail and
        // erase the slot, so the key is looked up afresh on every wake.
        ready_.wait(lock, [&] {
            slot = slots_.find(key);
            return slot == slots_.end() || slot->second.has_value();
        });
        if (slot != slots_.end()) {
            hits_.add(1);
            return *slot->second;
        }
        slot = slots_.emplace(key, std::nullopt).first;
        misses_.add(1);
        lock.unlock();

        std::optional<Value> value;
        try {
            value.emplace(compute());
        } catch (...) {
            lock.lock();
            slots_.erase(slot);
            lock.unlock();
            ready_.notify_all();
            throw;
        }
        lock.lock();
        slot->second = std::move(value);
        lock.unlock();
        ready_.notify_all();
        return *slot->second;
    }

    /** Whether @p key holds a finished value (not merely in flight). */
    bool contains(const Key& key) const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto slot = slots_.find(key);
        return slot != slots_.end() && slot->second.has_value();
    }

  private:
    mutable std::mutex mutex_;
    std::condition_variable ready_;
    /** nullopt while the key's compute is in flight. */
    std::map<Key, std::optional<Value>> slots_;
    obs::Counter& hits_;
    obs::Counter& misses_;
};

}  // namespace mapp::cache

#endif  // MAPP_CACHE_MEMO_H
