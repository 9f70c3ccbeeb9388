// LruCache: the one bounded, string-keyed cache of the service layer (the
// registry's calibrated cells, the server's populations and replayable
// lots), with single-flight builds.
//
// Contracts and semantics:
//   * find() returns the cached value and marks it most recently used, or
//     null; it never builds. put() inserts or replaces, so a key has one
//     entry; past capacity the least recently used entry is dropped.
//   * get_or_build() runs build() for a missing key OUTSIDE the cache lock,
//     once per key however many callers race: a caller that finds the key
//     being built waits for that build (and counts as a hit), while callers
//     of other keys never wait on it. A throwing build reaches every waiter,
//     caches nothing, and the next caller builds again. build() must not
//     look up the same key in the same cache (it would wait on itself).
//   * Values are shared_ptrs, so an evicted value stays alive for whoever
//     still holds it (a lot running on an evicted runtime finishes on it).
//   * Every get_or_build() counts one hit or one miss into the telemetry
//     counters the caller names (null names count nothing).
//
// Lookups scan the recency list: every cache built on this holds at most a
// few dozen entries.
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/annotations.hpp"
#include "core/contracts.hpp"
#include "core/telemetry.hpp"

namespace stf::core {

template <class V>
class LruCache {
 public:
  using Value = std::shared_ptr<V>;

  /// `hit_counter` / `miss_counter` name telemetry counters and must
  /// outlive the cache (string literals); null counts nothing.
  explicit LruCache(std::size_t capacity, const char* hit_counter = nullptr,
                    const char* miss_counter = nullptr)
      : capacity_(capacity),
        hit_counter_(hit_counter),
        miss_counter_(miss_counter) {
    STF_REQUIRE(capacity >= 1, "LruCache: capacity < 1");
  }

  /// The cached value, now most recently used, or null. Never builds and
  /// counts nothing.
  Value find(const std::string& key) STF_EXCLUDES(mutex_) {
    const LockGuard lock(mutex_);
    return touch_locked(key);
  }

  /// Insert `value` under `key`, replacing any entry the key has, as the
  /// most recently used; evicts the least recently used past capacity.
  void put(const std::string& key, Value value) STF_EXCLUDES(mutex_) {
    STF_REQUIRE(value != nullptr, "LruCache::put: null value");
    const LockGuard lock(mutex_);
    insert_locked(key, std::move(value));
  }

  /// The cached value, the value another caller is building, or the value
  /// `build()` returns, built here outside the lock and cached.
  template <class Build>
  Value get_or_build(const std::string& key, Build&& build)
      STF_EXCLUDES(mutex_) {
    Value value;
    std::shared_future<Value> pending;
    std::optional<std::promise<Value>> promise;  // set: this call builds
    {
      const LockGuard lock(mutex_);
      value = touch_locked(key);
      if (value == nullptr) {
        const auto flight = building_.find(key);
        if (flight != building_.end()) {
          pending = flight->second;
        } else {
          promise.emplace();
          building_.emplace(key, promise->get_future().share());
        }
      }
    }
    if (!promise) {
      count(hit_counter_);
      // A waiter's get() rethrows the builder's exception.
      return value != nullptr ? value : pending.get();
    }
    count(miss_counter_);
    try {
      value = build();
      STF_REQUIRE(value != nullptr, "LruCache::get_or_build: null value");
    } catch (...) {
      {
        const LockGuard lock(mutex_);
        building_.erase(key);
      }
      promise->set_exception(std::current_exception());
      throw;
    }
    {
      const LockGuard lock(mutex_);
      building_.erase(key);
      insert_locked(key, value);
    }
    promise->set_value(value);
    return value;
  }

  /// Cached entries (builds in flight are not counted).
  std::size_t size() const STF_EXCLUDES(mutex_) {
    const LockGuard lock(mutex_);
    return entries_.size();
  }

 private:
  using Entry = std::pair<std::string, Value>;

  static void count(const char* counter) {
    if (counter != nullptr) STF_COUNT(counter);
  }

  /// The entry's value moved to the front, or null.
  Value touch_locked(const std::string& key) STF_REQUIRES(mutex_) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first != key) continue;
      entries_.splice(entries_.begin(), entries_, it);
      return it->second;  // splice keeps the iterator valid
    }
    return nullptr;
  }

  void insert_locked(const std::string& key, Value value)
      STF_REQUIRES(mutex_) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first != key) continue;
      it->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it);
      return;
    }
    entries_.emplace_front(key, std::move(value));
    while (entries_.size() > capacity_) entries_.pop_back();
  }

  const std::size_t capacity_;
  const char* const hit_counter_;
  const char* const miss_counter_;
  mutable Mutex mutex_;
  /// Most recently used at the front.
  std::list<Entry> entries_ STF_GUARDED_BY(mutex_);
  /// Keys whose build is running, with the future their waiters share.
  std::map<std::string, std::shared_future<Value>> building_
      STF_GUARDED_BY(mutex_);
};

}  // namespace stf::core
