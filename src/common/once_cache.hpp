#pragma once
// OnceCache<V>: the one compute-once, content-keyed memo behind every cache
// in the repo (DESIGN.md §12) — NetworkEvaluator's NoC evaluations,
// PlatformCache's platforms and each platform's analytical-model memo.
//
// A lookup resolves through up to three tiers, in order: memory (the entry
// already holds a value), an optional `load` callable (the disk tier), and
// `compute`, whose result is handed to an optional `save` callable.  The
// registry mutex guards only find-or-create of the per-key entry; the tiers
// run under the entry's own mutex, so misses on different keys resolve in
// parallel while a second request for a key being resolved blocks until it
// is ready and is then served from memory.  The caller learns which tier
// served it and keeps its own counters, so `kCompute` counts computations
// actually run.  A throwing load/compute leaves the entry empty; the next
// request retries.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace vfimr {

enum class CacheTier : std::uint8_t { kMemory, kDisk, kCompute };

template <typename V>
class OnceCache {
 public:
  struct Lookup {
    V value;
    CacheTier tier;
  };

  /// `load()` returns std::optional<V> (nullopt = disk miss), `compute()`
  /// returns V, `save(const V&)` persists a computed value.
  template <typename Load, typename Compute, typename Save>
  Lookup get(const std::string& key, Load&& load, Compute&& compute,
             Save&& save) {
    const std::shared_ptr<Entry> entry = find_or_create(key);
    std::lock_guard<std::mutex> lock{entry->mutex};
    if (entry->value) return {*entry->value, CacheTier::kMemory};
    if (std::optional<V> loaded = load()) {
      entry->value = std::move(loaded);
      return {*entry->value, CacheTier::kDisk};
    }
    entry->value.emplace(compute());
    save(*entry->value);
    return {*entry->value, CacheTier::kCompute};
  }

  /// Memory -> compute, without a disk tier.
  template <typename Compute>
  Lookup get(const std::string& key, Compute&& compute) {
    return get(
        key, [] { return std::optional<V>{}; },
        std::forward<Compute>(compute), [](const V&) {});
  }

  /// Number of keys requested so far (entries outlive a failed compute).
  std::size_t size() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return entries_.size();
  }

  /// Drop every entry; lookups in flight keep theirs alive until done.
  void clear() {
    std::lock_guard<std::mutex> lock{mutex_};
    entries_.clear();
  }

 private:
  struct Entry {
    std::mutex mutex;
    std::optional<V> value;
  };

  std::shared_ptr<Entry> find_or_create(const std::string& key) {
    std::lock_guard<std::mutex> lock{mutex_};
    auto [it, fresh] = entries_.try_emplace(key);
    if (fresh) it->second = std::make_shared<Entry>();
    return it->second;
  }

  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
};

}  // namespace vfimr
