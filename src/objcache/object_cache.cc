#include "objcache/object_cache.h"

#include <algorithm>
#include <array>
#include <atomic>
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

namespace {

/// Reader slots per shard; a power of two near the core counts this runs on.
constexpr size_t kReaderSlots = 16;

/// This thread's reader slot, assigned once from a global counter. Two
/// threads that share an index share a cache line, nothing more — a
/// slot's `active` is a count, not a flag.
size_t ThreadSlotIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kReaderSlots;
  return index;
}

/// Spins on `done` a bounded number of times, then yields between probes.
template <typename Done>
void WaitUntil(Done done) {
  constexpr int kSpins = 64;
  for (int spins = 0; !done(); ++spins) {
    if (spins >= kSpins) std::this_thread::yield();
  }
}

/// One cache line of a shard's read side. Lookup's hit and miss counters
/// live beside the count, so counting writes no other line.
struct alignas(64) ReaderSlot {
  std::atomic<uint32_t> active{0};  ///< readers inside, via this slot
  std::atomic<uint64_t> hits{0};    ///< Lookup hits through this slot
  std::atomic<uint64_t> misses{0};  ///< Lookup misses through this slot
};

/// A shard's reader/writer lock. A reader writes only its own slot's line;
/// writers serialise on a mutex, raise `writer_` and wait until every
/// slot's count drains. The reader's add-then-load and the writer's
/// store-then-load are a Dekker pair, so both sides use seq_cst there
/// (an acquire load may be ordered before the preceding store on weakly
/// ordered CPUs): a reader that saw no writer is counted before the writer
/// checks its slot.
class ReaderSlotLock {
 public:
  /// Read side; returns the caller's slot, to be passed to unlock_shared.
  ReaderSlot& lock_shared() {
    ReaderSlot& slot = slots_[ThreadSlotIndex()];
    for (;;) {
      slot.active.fetch_add(1, std::memory_order_seq_cst);
      if (!writer_.load(std::memory_order_seq_cst)) return slot;
      slot.active.fetch_sub(1, std::memory_order_release);
      WaitUntil([&] { return !writer_.load(std::memory_order_acquire); });
    }
  }
  static void unlock_shared(ReaderSlot& slot) {
    slot.active.fetch_sub(1, std::memory_order_release);
  }

  /// Writer side (BasicLockable, for std::lock_guard).
  void lock() {
    mu_.lock();
    writer_.store(true, std::memory_order_seq_cst);
    for (const ReaderSlot& slot : slots_) {
      WaitUntil([&] {
        return slot.active.load(std::memory_order_seq_cst) == 0;
      });
    }
  }
  void unlock() {
    writer_.store(false, std::memory_order_release);
    mu_.unlock();
  }

  /// Excludes writers only — enough to read what only writers write.
  std::mutex& writer_mutex() const { return mu_; }

  const std::array<ReaderSlot, kReaderSlots>& slots() const { return slots_; }
  std::array<ReaderSlot, kReaderSlots>& slots() { return slots_; }

 private:
  std::array<ReaderSlot, kReaderSlots> slots_;
  std::atomic<bool> writer_{false};
  mutable std::mutex mu_;
};

/// The read side held for one scope.
class ReadGuard {
 public:
  explicit ReadGuard(ReaderSlotLock& lock) : slot_(lock.lock_shared()) {}
  ~ReadGuard() { ReaderSlotLock::unlock_shared(slot_); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;
  ReaderSlot& slot() { return slot_; }

 private:
  ReaderSlot& slot_;
};

}  // namespace

/// One independent slice of the cache. Lookup holds the read side of
/// `lock`; every other operation holds its writer side, and everything
/// below is written only there. Shard locks are never nested
/// (InvalidatePages/Clear visit shards one at a time).
struct ObjectCache::Shard {
  ReaderSlotLock lock;

  /// CLOCK order, front = next to be examined. Stores the keys; the map
  /// holds the iterator for O(1) second-chance splice and erase. A hit
  /// only sets its entry's `referenced` bit; Insert's eviction sweep
  /// clears a set bit and moves that key to the back instead of evicting.
  std::list<ObjectRef> clock;

  struct Slot {
    std::shared_ptr<ObjCacheEntry> entry;
    std::list<ObjectRef>::iterator clock_it;
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
  //     counts = 16 B) + ObjCacheEntry (string 32 + vector 24 + 32-bit
  //     charge and reference bit 8 = 64 B) = 80 B;
  //   * the image's heap buffer once it outgrows the string's inline (SSO)
  //     capacity: capacity + NUL (Insert trims capacity to size);
  //   * the page list's buffer: sizeof(PageId) per page (trimmed too);
  //   * the map node: next pointer + key + Slot (shared_ptr 16 + list
  //     iterator 8) = 40 B, plus its bucket pointer (max load factor 1);
  //   * the CLOCK list node: 2 links + key = 24 B;
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

  /// Writer-side counters (ObjCacheStats' fields of the same names). Hits
  /// and misses live in the reader slots; the entry gauges are the
  /// containers' sizes.
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;
  uint64_t stale_drops = 0;
  uint64_t negative_hits = 0;
  uint64_t negative_inserts = 0;

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

  /// Adds this shard's counters and gauges to `out`.
  void AddTo(ObjCacheStats* out) const {
    std::lock_guard<std::mutex> guard(lock.writer_mutex());
    for (const ReaderSlot& slot : lock.slots()) {
      out->hits += slot.hits.load(std::memory_order_relaxed);
      out->misses += slot.misses.load(std::memory_order_relaxed);
    }
    out->inserts += inserts;
    out->evictions += evictions;
    out->invalidations += invalidations;
    out->stale_drops += stale_drops;
    out->negative_hits += negative_hits;
    out->negative_inserts += negative_inserts;
    out->bytes += bytes;
    out->entries += map.size();
    out->negative_entries += neg_map.size();
  }
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
  ReadGuard read(shard.lock);
  auto it = shard.map.find(ref);
  if (it == shard.map.end()) {
    read.slot().misses.fetch_add(1, std::memory_order_relaxed);
    if (epoch_out != nullptr) *epoch_out = shard.epoch;
    return nullptr;
  }
  read.slot().hits.fetch_add(1, std::memory_order_relaxed);
  // CLOCK touch: store only when the bit is clear, so a hot entry's line
  // stays shared between the threads that hit it.
  std::atomic<bool>& referenced = it->second.entry->referenced;
  if (!referenced.load(std::memory_order_relaxed)) {
    referenced.store(true, std::memory_order_relaxed);
  }
  return it->second.entry;
}

bool ObjectCache::EraseLocked(Shard& shard, ObjectRef ref) {
  auto it = shard.map.find(ref);
  if (it == shard.map.end()) return false;
  const ObjCacheEntry& entry = *it->second.entry;
  for (PageId page : entry.pages) {
    auto page_it = shard.page_index.find(page);
    if (page_it == shard.page_index.end()) continue;
    std::vector<ObjectRef>& refs = page_it->second;
    refs.erase(std::remove(refs.begin(), refs.end(), ref), refs.end());
    if (refs.empty()) {
      shard.page_index.erase(page_it);
      shard.bytes -= Shard::kPageNodeCharge;
    }
  }
  shard.bytes -= entry.bytes;
  shard.clock.erase(it->second.clock_it);
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
  const size_t charge = Shard::EntryCharge(*entry);
  entry->bytes = static_cast<uint32_t>(charge);
  // Room for the entry and, at worst, a new page-index node per page.
  const size_t need = charge + entry->pages.size() * Shard::kPageNodeCharge;

  Shard& shard = ShardOf(ref);
  std::lock_guard<ReaderSlotLock> lock(shard.lock);
  if (shard.epoch != epoch) {
    // An invalidation ran after this assembly sampled the epoch: the pages
    // it read may have been mid-write. Never publish it.
    ++shard.stale_drops;
    return;
  }
  EraseLocked(shard, ref);
  // Would evict everything, or overflow the entry's 32-bit charge.
  if (need > shard_capacity_ || charge != entry->bytes) return;
  while (shard.bytes + need > shard_capacity_ && !shard.clock.empty()) {
    const ObjectRef victim = shard.clock.front();
    Shard::Slot& slot = shard.map.find(victim)->second;
    if (slot.entry->referenced.exchange(false, std::memory_order_relaxed)) {
      // Second chance: hit since the sweep last passed it.
      shard.clock.splice(shard.clock.end(), shard.clock, slot.clock_it);
      continue;
    }
    EraseLocked(shard, victim);
    ++shard.evictions;
  }
  auto clock_it = shard.clock.insert(shard.clock.end(), ref);
  for (PageId page : entry->pages) {
    auto [it, fresh] = shard.page_index.try_emplace(page);
    if (fresh) shard.bytes += Shard::kPageNodeCharge;
    it->second.push_back(ref);
  }
  shard.bytes += charge;
  ++shard.inserts;
  shard.map.emplace(ref, Shard::Slot{std::move(entry), clock_it});
}

bool ObjectCache::LookupNegative(ObjectRef ref) {
  if (negative_capacity_ == 0) return false;
  Shard& shard = ShardOf(ref);
  // Writer side: a hit splices the negative LRU and a stale verdict is
  // reaped. Only Get misses come here.
  std::lock_guard<ReaderSlotLock> lock(shard.lock);
  auto it = shard.neg_map.find(ref);
  if (it == shard.neg_map.end()) return false;
  if (it->second.epoch != shard.epoch) {
    // A write ran since the verdict was recorded: the object may exist
    // now. Reap the stale entry instead of letting the LRU carry it.
    shard.neg_lru.erase(it->second.lru_it);
    shard.neg_map.erase(it);
    return false;
  }
  shard.neg_lru.splice(shard.neg_lru.end(), shard.neg_lru, it->second.lru_it);
  ++shard.negative_hits;
  return true;
}

void ObjectCache::InsertNegative(ObjectRef ref, uint64_t epoch) {
  if (negative_capacity_ == 0) return;
  Shard& shard = ShardOf(ref);
  std::lock_guard<ReaderSlotLock> lock(shard.lock);
  if (shard.epoch != epoch) {
    // A write overlapped the model probe; its NotFound verdict may already
    // be wrong (a concurrent Put can have created the object).
    ++shard.stale_drops;
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
  }
  auto lru_it = shard.neg_lru.insert(shard.neg_lru.end(), ref);
  shard.neg_map.emplace(ref, Shard::NegSlot{epoch, lru_it});
  ++shard.negative_inserts;
}

void ObjectCache::InvalidateRef(ObjectRef ref) {
  Shard& shard = ShardOf(ref);
  std::lock_guard<ReaderSlotLock> lock(shard.lock);
  // Bump even when absent: an in-flight assembly of `ref` may be about to
  // publish a pre-write snapshot, and the epoch is what stops it.
  ++shard.epoch;
  if (EraseLocked(shard, ref)) ++shard.invalidations;
  // The usual caller is a write to `ref` itself — after a Put the object
  // exists, so the negative verdict must go at once (the epoch bump alone
  // would only neutralize it).
  auto neg_it = shard.neg_map.find(ref);
  if (neg_it != shard.neg_map.end()) {
    shard.neg_lru.erase(neg_it->second.lru_it);
    shard.neg_map.erase(neg_it);
  }
}

void ObjectCache::InvalidatePages(const std::vector<PageId>& pages) {
  if (pages.empty()) return;
  std::vector<ObjectRef> victims;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<ReaderSlotLock> lock(shard.lock);
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
      if (EraseLocked(shard, ref)) ++shard.invalidations;
    }
  }
}

void ObjectCache::Clear() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<ReaderSlotLock> lock(shard.lock);
    ++shard.epoch;
    shard.invalidations += shard.map.size();
    shard.map.clear();
    shard.clock.clear();
    shard.page_index.clear();
    shard.bytes = 0;
    shard.neg_map.clear();
    shard.neg_lru.clear();
  }
}

ObjCacheStats ObjectCache::stats() const {
  ObjCacheStats total;
  for (const auto& shard : shards_) shard->AddTo(&total);
  return total;
}

void ObjectCache::ResetStats() {
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> guard(shard.lock.writer_mutex());
    for (ReaderSlot& slot : shard.lock.slots()) {
      slot.hits.store(0, std::memory_order_relaxed);
      slot.misses.store(0, std::memory_order_relaxed);
    }
    shard.inserts = shard.evictions = shard.invalidations = 0;
    shard.stale_drops = shard.negative_hits = shard.negative_inserts = 0;
  }
}

size_t ObjectCache::TotalBytes() const { return stats().bytes; }

}  // namespace starfish
