#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "disk/page.h"

/// \file object_cache.h
/// The assembled-object cache tier above the page-level buffer pool.
///
/// Every Get against a complex-object store pays two costs: the physical
/// page I/Os the paper measures, and the *transformation* cost of
/// re-assembling an NF² tuple out of its page-resident regions (record
/// reads across pages, per-relation lookups, region framing). The buffer
/// pool removes the first cost for hot pages; this cache removes most of
/// the second for hot *objects* — a hit decodes one contiguous image
/// without touching a single page. The ROADMAP names this second-layer
/// cache the biggest single lever for serve-heavy traffic, and it is the
/// object-granular counterpart of the paper's page-granular Fig. 6 buffer
/// study.
///
/// Shape: a sharded, size-capped map from ObjectRef to an immutable cache
/// entry holding the object's image — its DASDBS flat images in DFS
/// order, one string (nf2/serializer.h defines the format and decodes it;
/// this layer never looks inside) — plus the set of buffer pages that
/// backed the assembly. Entries are handed out as
/// shared_ptr<const Entry> — the object-level analog of a PageGuard pin:
/// an invalidation drops the cache's reference immediately, while a reader
/// that already holds the entry keeps a consistent (pre-write) image alive
/// until it lets go. No image or page list is ever mutated in place, so a
/// reader can never observe a half-invalidated entry. Eviction is CLOCK: a hit sets
/// the entry's reference bit (a store only when it is clear), and Insert's
/// sweep gives a set bit one second chance before evicting.
///
/// Invalidation protocol (see docs/OBJCACHE.md):
///   * Write path — the store calls InvalidatePages(dirtied) +
///     InvalidateRef(ref) after every applied write op, before the op is
///     acknowledged. Page-based invalidation is the conservative net wired
///     into the WAL write-capture machinery; ref-based invalidation is the
///     logical backbone (every store write op targets exactly one object).
///   * In-flight assemblies — a miss samples the shard's *epoch* before it
///     reads any page; Insert discards the assembly when the epoch moved.
///     Every invalidation bumps the epochs, so an assembly that overlapped
///     a write can never be published, even though it raced the writer.
///   * Crash / reopen — the cache lives and dies with the in-memory store:
///     ComplexObjectStore::Open creates it empty AFTER WAL replay or the
///     fallback scrub ran, so recovery structurally cannot resurrect a
///     pre-crash assembly.
///
/// Thread safety: all public methods are safe from any thread. Each shard
/// has a reader/writer lock built from per-thread reader slots: Lookup
/// only increments and decrements its own slot's count (and that slot's
/// hit or miss counter), so concurrent hits write no cache line another
/// thread also writes. Every other method takes the writer side, which
/// waits for the slots to drain. The cache imposes no ordering of its own
/// — the store's single-writer/multi-reader contract still governs who may
/// touch the pages underneath.

namespace starfish {

/// Logical object identity — mirrors models/storage_model.h. Redeclared
/// here (identical alias) so this layer stays below the model layer.
using ObjectRef = uint64_t;

/// Object-cache configuration (StoreOptions::objcache).
struct ObjCacheOptions {
  /// Master switch. Off by default: the paper benches measure the physical
  /// I/O of *every* access, and a disabled cache keeps them byte-identical.
  bool enabled = false;

  /// Total budget for cached entries (image, page list and the cache's own
  /// bookkeeping; see object_cache.cc), split evenly across shards. Entries
  /// larger than one shard's slice are simply not cached.
  size_t capacity_bytes = 64ull << 20;

  /// Number of independent shards. 0 (default) derives a power of two from
  /// the hardware concurrency; other values are rounded up to a power of
  /// two. Hits take no shard-wide lock, so shards spread writers (inserts,
  /// invalidations) rather than readers; each shard runs its own CLOCK
  /// over its slice of the capacity.
  uint32_t shard_count = 0;

  /// Total bound on negative entries (refs known NOT to exist), split
  /// evenly across shards. A repeated Get probe for a missing object is
  /// answered from this side table without touching a single page; any
  /// write invalidates the negative knowledge (epoch-guarded, see
  /// LookupNegative). 0 disables negative caching.
  uint32_t negative_capacity = 4096;
};

/// Counter snapshot (assembly-level; page-level counters live in
/// BufferStats). Plain value type — snapshot-and-subtract like IoStats.
struct ObjCacheStats {
  uint64_t hits = 0;           ///< Lookups served from the cache
  uint64_t misses = 0;         ///< Lookups that fell through to assembly
  uint64_t inserts = 0;        ///< assemblies published into the cache
  uint64_t evictions = 0;      ///< entries dropped for capacity
  uint64_t invalidations = 0;  ///< entries dropped by writes / Clear
  uint64_t stale_drops = 0;    ///< assemblies discarded by the epoch guard
  uint64_t negative_hits = 0;     ///< not-found probes served by the side table
  uint64_t negative_inserts = 0;  ///< not-found verdicts recorded
  uint64_t bytes = 0;          ///< resident bytes (gauge, not a counter)
  uint64_t entries = 0;        ///< resident entries (gauge, not a counter)
  uint64_t negative_entries = 0;  ///< resident negative entries (gauge)

  /// Assembly-hit ratio over the snapshot window (0 when idle) — the
  /// object-level analog of the page-level hits/fixes ratio.
  double HitRatio() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  /// Component-wise difference of the monotonic counters (this - earlier).
  /// The gauges (bytes, entries) are carried over from `this` unchanged.
  ObjCacheStats Since(const ObjCacheStats& earlier) const {
    ObjCacheStats d = *this;
    d.hits -= earlier.hits;
    d.misses -= earlier.misses;
    d.inserts -= earlier.inserts;
    d.evictions -= earlier.evictions;
    d.invalidations -= earlier.invalidations;
    d.stale_drops -= earlier.stale_drops;
    d.negative_hits -= earlier.negative_hits;
    d.negative_inserts -= earlier.negative_inserts;
    return d;
  }

  std::string ToString() const;
};

/// One cached assembly. The image and page list are immutable after
/// construction; the entry is shared between the cache and any readers
/// still holding it (the pin).
struct ObjCacheEntry {
  std::string image;          ///< the full object's image (all paths)
  std::vector<PageId> pages;  ///< buffer pages observed while assembling
  /// Capacity charge (see object_cache.cc). An object charged 4 GiB or
  /// more is not cached.
  uint32_t bytes = 0;
  /// The cache's CLOCK reference bit: set by a hit, cleared by the
  /// eviction sweep. Bookkeeping of the cache, not part of the object;
  /// it sits beside `bytes` so the entry's size, and its charge, stay put.
  std::atomic<bool> referenced{false};
};

/// A pinned reference to a cached assembly. Holding it keeps the (already
/// consistent) entry alive across invalidation, like a PageGuard keeps a
/// frame across eviction pressure.
using ObjCacheEntryRef = std::shared_ptr<const ObjCacheEntry>;

/// The sharded assembled-object cache. See the file comment for the model.
class ObjectCache {
 public:
  explicit ObjectCache(const ObjCacheOptions& options);
  ~ObjectCache();  // out of line: Shard is incomplete here

  /// Probes for `ref`. On a hit the entry's CLOCK reference bit is set and
  /// a pinned reference is returned. On a miss returns null and,
  /// when `epoch_out` is non-null, stores the shard's current invalidation
  /// epoch — sample it BEFORE reading any page, and pass it to Insert so
  /// an assembly that overlapped an invalidation is discarded.
  ObjCacheEntryRef Lookup(ObjectRef ref, uint64_t* epoch_out = nullptr);

  /// Publishes the image of an assembly produced after a Lookup miss
  /// returned `epoch`. Discarded (counted as a stale drop) when the shard's
  /// epoch has moved since — the write that moved it may have made this
  /// assembly stale. Replaces an existing entry for `ref`; evicts entries
  /// to fit, by CLOCK (an entry hit since the sweep last passed it gets a
  /// second chance); silently skips objects larger than one shard's
  /// capacity slice.
  void Insert(ObjectRef ref, std::string image, std::vector<PageId> pages,
              uint64_t epoch);

  /// True when `ref` is recorded as NOT existing and that knowledge is
  /// still current (the recording shard's epoch has not moved since the
  /// verdict was cached — every write bumps the epochs, so any write
  /// anywhere conservatively voids all negative knowledge). A true return
  /// means the caller can answer NotFound without reading a page.
  bool LookupNegative(ObjectRef ref);

  /// Records that a lookup of `ref` fell through to the model and came
  /// back NotFound. `epoch` is the value Lookup handed out before the
  /// model probe; the verdict is discarded when the shard's epoch has
  /// moved since (a concurrent Put may have created the object mid-probe).
  /// Bounded LRU per shard; no-op when negative caching is disabled.
  void InsertNegative(ObjectRef ref, uint64_t epoch);

  /// Drops the entry for `ref` (if any) and bumps the shard's epoch —
  /// unconditionally, so in-flight assemblies of `ref` cannot publish.
  /// Also erases any negative entry for `ref` (the usual caller is a Put,
  /// after which the object exists).
  void InvalidateRef(ObjectRef ref);

  /// Drops every entry whose recorded backing-page set intersects `pages`,
  /// and bumps EVERY shard's epoch (a write is in flight; any concurrent
  /// assembly may have observed half-applied pages). The conservative net
  /// fed from the WAL write capture's dirtied-page list.
  void InvalidatePages(const std::vector<PageId>& pages);

  /// Drops everything and bumps every epoch (wholesale invalidation).
  void Clear();

  /// Sums every shard's counters and gauges.
  ObjCacheStats stats() const;
  /// Zeroes the monotonic counters; the gauges describe what is resident.
  void ResetStats();

  size_t capacity_bytes() const { return options_.capacity_bytes; }
  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }

  /// Resident bytes across all shards (same number as stats().bytes).
  size_t TotalBytes() const;

 private:
  struct Shard;

  Shard& ShardOf(ObjectRef ref) {
    // Fibonacci hash, top byte — the buffer pool's shard-selection scheme.
    // Masking (not shifting) keeps the single-shard case well-defined.
    return *shards_[((ref * 0x9E3779B97F4A7C15ull) >> 56) & mask_];
  }

  /// Unlinks `ref` from the shard's map/CLOCK list/page index and releases
  /// its capacity charge. Writer side held. Returns false when absent.
  bool EraseLocked(Shard& shard, ObjectRef ref);

  ObjCacheOptions options_;
  size_t shard_capacity_ = 0;  ///< capacity_bytes / shard count
  size_t negative_capacity_ = 0;  ///< negative entries per shard (0 = off)
  uint64_t mask_ = 0;          ///< shard count - 1 (count is a power of two)
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace starfish
