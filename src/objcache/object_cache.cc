#include "objcache/object_cache.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>

namespace starfish {

namespace {

uint32_t PickShardCount(uint32_t requested) {
  uint32_t n = requested;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 8;
  }
  uint32_t pow2 = 1;
  while (pow2 < n && pow2 < 256) pow2 <<= 1;
  return pow2;
}

}  // namespace

std::string ObjCacheStats::ToString() const {
  char buf[352];
  snprintf(buf, sizeof(buf),
           "objcache: hits=%llu misses=%llu (ratio %.3f) inserts=%llu "
           "evictions=%llu invalidations=%llu stale_drops=%llu "
           "neg_hits=%llu neg_inserts=%llu entries=%llu bytes=%llu "
           "neg_entries=%llu",
           static_cast<unsigned long long>(hits),
           static_cast<unsigned long long>(misses), HitRatio(),
           static_cast<unsigned long long>(inserts),
           static_cast<unsigned long long>(evictions),
           static_cast<unsigned long long>(invalidations),
           static_cast<unsigned long long>(stale_drops),
           static_cast<unsigned long long>(negative_hits),
           static_cast<unsigned long long>(negative_inserts),
           static_cast<unsigned long long>(entries),
           static_cast<unsigned long long>(bytes),
           static_cast<unsigned long long>(negative_entries));
  return buf;
}

/// One independent slice of the cache. Everything here is guarded by `mu`;
/// shard locks are never nested (InvalidatePages/Clear visit shards one at
/// a time).
struct ObjectCache::Shard {
  std::mutex mu;

  /// LRU order, front = coldest. Stores the keys; the map holds the
  /// iterator for O(1) touch/erase.
  std::list<ObjectRef> lru;

  struct Slot {
    ObjCacheEntryRef entry;
    std::list<ObjectRef>::iterator lru_it;
  };
  std::unordered_map<ObjectRef, Slot> map;

  /// Backing page -> refs of entries assembled from it (this shard only).
  /// Conservative: pages recorded at assembly time, entries dropped when
  /// any of them is dirtied by a write.
  std::unordered_map<PageId, std::vector<ObjectRef>> page_index;

  // ---- capacity charge -------------------------------------------------
  // An entry is charged the bytes of every structure it owns or adds to
  // the shard, at their sizeof (64-bit libstdc++ sizes in the comments):
  //   * the make_shared block: control header (vtable pointer + two 32-bit
  //     counts = 16 B) + ObjCacheEntry (string 32 + vector 24 + size_t 8
  //     = 64 B) = 80 B;
  //   * the image's heap buffer once it outgrows the string's inline (SSO)
  //     capacity: capacity + NUL (Insert trims capacity to size);
  //   * the page list's buffer: sizeof(PageId) per page (trimmed too);
  //   * the map node: next pointer + key + Slot (shared_ptr 16 + LRU
  //     iterator 8) = 40 B, plus its bucket pointer (max load factor 1);
  //   * the LRU node: 2 links + key = 24 B;
  //   * one ObjectRef per page in the page index's per-page vectors.
  // A typical hot object (173 B image, 3 pages) is charged 80 + 174 + 12
  // + 48 + 24 + 24 = 362 B. A page-index node (next pointer + PageId +
  // vector = 40 B, plus its bucket pointer) is shared by every entry on
  // that page, so the shard is charged kPageNodeCharge for as long as the
  // node exists rather than any one entry. Not charged: allocator headers
  // and size-class rounding, and container growth slack (vector capacity
  // beyond size, spare buckets) — properties of the allocator and growth
  // policy, not of the entry. With glibc's 8 B headers and 16 B size
  // classes, and that slack, the typical entry below takes about 464 B.
  static size_t EntryCharge(const ObjCacheEntry& entry) {
    static const size_t kInlineCapacity = std::string().capacity();
    constexpr size_t kControlHeader = sizeof(void*) + 2 * sizeof(int32_t);
    constexpr size_t kMapNode =
        sizeof(void*) + sizeof(ObjectRef) + sizeof(Slot) + sizeof(void*);
    constexpr size_t kLruNode = 2 * sizeof(void*) + sizeof(ObjectRef);
    const size_t image_heap = entry.image.capacity() > kInlineCapacity
                                  ? entry.image.capacity() + 1
                                  : 0;
    return kControlHeader + sizeof(ObjCacheEntry) + image_heap +
           entry.pages.capacity() * sizeof(PageId) + kMapNode + kLruNode +
           entry.pages.size() * sizeof(ObjectRef);
  }
  static constexpr size_t kPageNodeCharge =
      sizeof(void*) + sizeof(std::pair<const PageId, std::vector<ObjectRef>>) +
      sizeof(void*);

  /// Invalidation epoch: bumped by every invalidation that could concern
  /// this shard. Lookup misses sample it; Insert refuses when it moved.
  uint64_t epoch = 0;

  /// Resident bytes charged against this shard's capacity slice: every
  /// entry's EntryCharge plus kPageNodeCharge per page-index node.
  size_t bytes = 0;

  void Charge(size_t n, AtomicObjCacheStats* stats) {
    bytes += n;
    stats->bytes.fetch_add(n, std::memory_order_relaxed);
  }
  void Release(size_t n, AtomicObjCacheStats* stats) {
    bytes -= n;
    stats->bytes.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Negative side table: refs whose last model probe came back NotFound,
  /// stamped with the epoch at probe time. An entry is only believed while
  /// its stamp equals the current epoch — every write bumps the epochs, so
  /// stale verdicts die passively; they are reaped when touched or when
  /// the LRU bound pushes them out.
  std::list<ObjectRef> neg_lru;  ///< front = coldest
  struct NegSlot {
    uint64_t epoch = 0;
    std::list<ObjectRef>::iterator lru_it;
  };
  std::unordered_map<ObjectRef, NegSlot> neg_map;
};

ObjectCache::ObjectCache(const ObjCacheOptions& options) : options_(options) {
  const uint32_t n = PickShardCount(options.shard_count);
  mask_ = n - 1;
  shards_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_capacity_ = std::max<size_t>(options.capacity_bytes / n, 1);
  negative_capacity_ =
      options.negative_capacity == 0
          ? 0
          : std::max<size_t>(options.negative_capacity / n, 1);
}

ObjectCache::~ObjectCache() = default;

ObjCacheEntryRef ObjectCache::Lookup(ObjectRef ref, uint64_t* epoch_out) {
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(ref);
  if (it == shard.map.end()) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    if (epoch_out != nullptr) *epoch_out = shard.epoch;
    return nullptr;
  }
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  // Touch: splice the key to the MRU end without invalidating iterators.
  shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
  return it->second.entry;
}

bool ObjectCache::EraseLocked(Shard& shard, ObjectRef ref) {
  auto it = shard.map.find(ref);
  if (it == shard.map.end()) return false;
  const ObjCacheEntryRef& entry = it->second.entry;
  for (PageId page : entry->pages) {
    auto page_it = shard.page_index.find(page);
    if (page_it == shard.page_index.end()) continue;
    std::vector<ObjectRef>& refs = page_it->second;
    refs.erase(std::remove(refs.begin(), refs.end(), ref), refs.end());
    if (refs.empty()) {
      shard.page_index.erase(page_it);
      shard.Release(Shard::kPageNodeCharge, &stats_);
    }
  }
  shard.Release(entry->bytes, &stats_);
  stats_.entries.fetch_sub(1, std::memory_order_relaxed);
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
  return true;
}

void ObjectCache::Insert(ObjectRef ref, std::string image,
                         std::vector<PageId> pages, uint64_t epoch) {
  // Dedup the page list once, outside the lock (Fix capture records every
  // fix, and an assembly fixes header pages repeatedly). Both buffers are
  // trimmed to size: the charge is what they hold.
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  pages.shrink_to_fit();
  image.shrink_to_fit();

  auto entry = std::make_shared<ObjCacheEntry>();
  entry->image = std::move(image);
  entry->pages = std::move(pages);
  entry->bytes = Shard::EntryCharge(*entry);
  // Room for the entry and, at worst, a new page-index node per page.
  const size_t need =
      entry->bytes + entry->pages.size() * Shard::kPageNodeCharge;

  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.epoch != epoch) {
    // An invalidation ran after this assembly sampled the epoch: the pages
    // it read may have been mid-write. Never publish it.
    stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  EraseLocked(shard, ref);
  if (need > shard_capacity_) return;  // would evict everything
  while (shard.bytes + need > shard_capacity_ && !shard.lru.empty()) {
    const ObjectRef victim = shard.lru.front();
    EraseLocked(shard, victim);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
  auto lru_it = shard.lru.insert(shard.lru.end(), ref);
  for (PageId page : entry->pages) {
    auto [it, fresh] = shard.page_index.try_emplace(page);
    if (fresh) shard.Charge(Shard::kPageNodeCharge, &stats_);
    it->second.push_back(ref);
  }
  shard.Charge(entry->bytes, &stats_);
  stats_.entries.fetch_add(1, std::memory_order_relaxed);
  stats_.inserts.fetch_add(1, std::memory_order_relaxed);
  shard.map.emplace(ref, Shard::Slot{std::move(entry), lru_it});
}

bool ObjectCache::LookupNegative(ObjectRef ref) {
  if (negative_capacity_ == 0) return false;
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.neg_map.find(ref);
  if (it == shard.neg_map.end()) return false;
  if (it->second.epoch != shard.epoch) {
    // A write ran since the verdict was recorded: the object may exist
    // now. Reap the stale entry instead of letting the LRU carry it.
    shard.neg_lru.erase(it->second.lru_it);
    shard.neg_map.erase(it);
    stats_.negative_entries.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  shard.neg_lru.splice(shard.neg_lru.end(), shard.neg_lru, it->second.lru_it);
  stats_.negative_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ObjectCache::InsertNegative(ObjectRef ref, uint64_t epoch) {
  if (negative_capacity_ == 0) return;
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.epoch != epoch) {
    // A write overlapped the model probe; its NotFound verdict may already
    // be wrong (a concurrent Put can have created the object).
    stats_.stale_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto it = shard.neg_map.find(ref);
  if (it != shard.neg_map.end()) {
    it->second.epoch = epoch;
    shard.neg_lru.splice(shard.neg_lru.end(), shard.neg_lru,
                         it->second.lru_it);
    return;
  }
  while (shard.neg_map.size() >= negative_capacity_ &&
         !shard.neg_lru.empty()) {
    shard.neg_map.erase(shard.neg_lru.front());
    shard.neg_lru.pop_front();
    stats_.negative_entries.fetch_sub(1, std::memory_order_relaxed);
  }
  auto lru_it = shard.neg_lru.insert(shard.neg_lru.end(), ref);
  shard.neg_map.emplace(ref, Shard::NegSlot{epoch, lru_it});
  stats_.negative_inserts.fetch_add(1, std::memory_order_relaxed);
  stats_.negative_entries.fetch_add(1, std::memory_order_relaxed);
}

void ObjectCache::InvalidateRef(ObjectRef ref) {
  Shard& shard = ShardOf(ref);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Bump even when absent: an in-flight assembly of `ref` may be about to
  // publish a pre-write snapshot, and the epoch is what stops it.
  ++shard.epoch;
  if (EraseLocked(shard, ref)) {
    stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  // The usual caller is a write to `ref` itself — after a Put the object
  // exists, so the negative verdict must go at once (the epoch bump alone
  // would only neutralize it).
  auto neg_it = shard.neg_map.find(ref);
  if (neg_it != shard.neg_map.end()) {
    shard.neg_lru.erase(neg_it->second.lru_it);
    shard.neg_map.erase(neg_it);
    stats_.negative_entries.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ObjectCache::InvalidatePages(const std::vector<PageId>& pages) {
  if (pages.empty()) return;
  std::vector<ObjectRef> victims;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    // Every shard's epoch moves: a write is in flight, and any concurrent
    // assembly (whatever its ref) may have read a half-applied page.
    ++shard.epoch;
    victims.clear();
    for (PageId page : pages) {
      auto it = shard.page_index.find(page);
      if (it == shard.page_index.end()) continue;
      victims.insert(victims.end(), it->second.begin(), it->second.end());
    }
    for (ObjectRef ref : victims) {
      if (EraseLocked(shard, ref)) {
        stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ObjectCache::Clear() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    ++shard.epoch;
    stats_.invalidations.fetch_add(shard.map.size(),
                                   std::memory_order_relaxed);
    stats_.entries.fetch_sub(shard.map.size(), std::memory_order_relaxed);
    stats_.bytes.fetch_sub(shard.bytes, std::memory_order_relaxed);
    shard.map.clear();
    shard.lru.clear();
    shard.page_index.clear();
    shard.bytes = 0;
    stats_.negative_entries.fetch_sub(shard.neg_map.size(),
                                      std::memory_order_relaxed);
    shard.neg_map.clear();
    shard.neg_lru.clear();
  }
}

size_t ObjectCache::TotalBytes() const {
  return stats_.bytes.load(std::memory_order_relaxed);
}

}  // namespace starfish
