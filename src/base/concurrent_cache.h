// Sharded, thread-safe, single-flight memoization cache.
//
// The design-space explorer fans many partitioning runs across threads;
// most of their cost-model and estimator work repeats (the same mapping is
// scored under several objectives, the same kernel is estimated for every
// configuration variant), and the service answers repeated requests.
// ConcurrentCache is the one memo behind all of them: keys are hashed onto
// independently locked shards so concurrent lookups of unrelated keys
// never contend.
//
// Single flight: the first caller that misses on a key computes its value
// *outside* the shard lock; every caller that misses on the same key while
// that computation runs waits for its value instead of computing it again.
// So misses() counts computations and hits() counts every other call,
// exactly, at any thread count. Each call reports whether it hit, waited
// or computed.
//
// A per-call keep predicate decides whether a computed value is stored.
// A value that is not kept still reaches the callers waiting on it, and
// the next call computes it afresh. A compute() that throws stores
// nothing, its exception goes to its own caller, and the callers waiting
// on it retry (one of them computes). compute() must not look up its own
// key: it would wait on itself.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/error.h"

namespace mhs {

/// Mixes `value` into `seed` (boost-style hash combiner).
inline void hash_combine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// How one ConcurrentCache::get_or_compute call was served.
enum class CacheLookup {
  kHit,       ///< the value was stored
  kWaited,    ///< another caller was computing it; this one waited
  kComputed,  ///< this call ran compute()
};

template <typename Value>
struct CacheResult {
  Value value;
  CacheLookup lookup;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ConcurrentCache {
  // Handing a value to waiters must not throw once it is computed.
  static_assert(std::is_nothrow_copy_constructible_v<Value>);

 public:
  static constexpr std::size_t kShards = 32;

  /// Default keep predicate: store every computed value.
  struct KeepAll {
    bool operator()(const Value&) const { return true; }
  };

  ConcurrentCache() = default;
  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  /// Returns the value for `key`: the stored one, the one a concurrent
  /// caller is computing, or `compute()`'s, which is stored iff
  /// `keep(value)`. `compute` must be a pure function of `key`.
  template <typename Compute, typename Keep = KeepAll>
  CacheResult<Value> get_or_compute(const Key& key, Compute&& compute,
                                    Keep keep = {}) {
    Shard& shard = shards_[Hash{}(key) % kShards];
    std::unique_lock<std::mutex> lock(shard.mutex);
    for (;;) {
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return {it->second, CacheLookup::kHit};
      }
      const auto flying =
          std::find_if(shard.flights.begin(), shard.flights.end(),
                       [&key](const Flight* f) { return *f->key == key; });
      if (flying == shard.flights.end()) break;
      Flight& flight = **flying;
      if (flight.landing == nullptr) {
        flight.landing = std::make_shared<Landing>();
      }
      const std::shared_ptr<Landing> landing = flight.landing;
      shard.landed.wait(lock, [&landing] { return landing->done; });
      if (landing->value.has_value()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return {*landing->value, CacheLookup::kWaited};
      }
      // The computing caller threw: look again, and compute if nobody is.
    }

    Flight flight{&key, nullptr};
    shard.flights.push_back(&flight);
    misses_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    std::optional<Value> value;
    try {
      value.emplace(compute());
      const bool kept = keep(std::as_const(*value));
      lock.lock();
      if (kept) shard.map.emplace(key, *value);
    } catch (...) {
      if (!lock.owns_lock()) lock.lock();
      land(shard, flight, nullptr);
      throw;
    }
    land(shard, flight, &*value);
    return {std::move(*value), CacheLookup::kComputed};
  }

  /// Number of stored values.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.map.size();
    }
    return total;
  }

  /// Calls that ran compute().
  std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Calls served without computing: stored values and waits.
  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }

 private:
  /// What the callers waiting on one computation share. The first of
  /// them creates it, so a computation nobody waits on allocates nothing,
  /// and it outlives the computing caller's frame until they have read it.
  struct Landing {
    std::optional<Value> value;  ///< empty if compute() threw
    bool done = false;
  };

  /// One computation in progress, on the computing caller's stack.
  struct Flight {
    const Key* key;
    std::shared_ptr<Landing> landing;  ///< null while nobody waits
  };

  struct Shard {
    mutable std::mutex mutex;
    /// Signalled when a flight with waiters lands.
    std::condition_variable landed;
    std::unordered_map<Key, Value, Hash> map;
    std::vector<Flight*> flights;
  };

  /// Ends `flight` under the shard lock and hands `value` (null if
  /// compute() threw) to its waiters.
  static void land(Shard& shard, Flight& flight, const Value* value) {
    std::erase(shard.flights, &flight);
    if (flight.landing == nullptr) return;
    if (value != nullptr) flight.landing->value.emplace(*value);
    flight.landing->done = true;
    shard.landed.notify_all();
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
};

}  // namespace mhs
