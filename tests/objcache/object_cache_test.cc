// Unit tests of the raw ObjectCache (CLOCK eviction, capacity, epochs, page
// index)
// plus store-level correctness of the cached read paths: every cached
// answer must be byte-equal to what the uncached store returns, across all
// models, projections and write ops.

#include "objcache/object_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "../support/env_seed.h"
#include "../support/param_name.h"
#include "../support/random_schema.h"
#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "nf2/serializer.h"
#include "util/random.h"

namespace starfish {
namespace {

/// The cache is format-agnostic: any byte string stands in for an image.
/// Every image is 40 bytes (past any inline string buffer), so entries
/// without pages are all charged the same.
std::string SmallImage(int32_t v) {
  std::string image(40, '.');
  const std::string digits = std::to_string(v);
  image.replace(0, digits.size(), digits);
  return image;
}

ObjCacheOptions TinyOptions(size_t capacity = 1 << 20, uint32_t shards = 1) {
  ObjCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = capacity;
  options.shard_count = shards;
  return options;
}

TEST(ObjectCacheTest, MissThenInsertThenHit) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = ~0ull;
  EXPECT_EQ(cache.Lookup(7, &epoch), nullptr);
  cache.Insert(7, SmallImage(7), {1, 2, 2, 1}, epoch);
  ObjCacheEntryRef entry = cache.Lookup(7);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->image, SmallImage(7));
  // The page list was deduped and sorted.
  EXPECT_EQ(entry->pages, (std::vector<PageId>{1, 2}));
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(stats.bytes, cache.TotalBytes());
}

/// One page-less SmallImage entry's charge (every SmallImage is the same
/// size, so every such entry is charged the same).
size_t SmallEntryCharge() {
  ObjectCache probe(TinyOptions());
  uint64_t epoch = 0;
  probe.Lookup(0, &epoch);
  probe.Insert(0, SmallImage(0), {}, epoch);
  return probe.stats().bytes;
}

void InsertSmall(ObjectCache* cache, ObjectRef ref) {
  uint64_t epoch = 0;
  cache->Lookup(ref, &epoch);
  cache->Insert(ref, SmallImage(static_cast<int32_t>(ref)), {}, epoch);
}

TEST(ObjectCacheTest, CapacityEvictsLruFirst) {
  // A single shard sized to hold exactly three entries.
  const size_t charge = SmallEntryCharge();
  ASSERT_GT(charge, 0u);
  ObjectCache cache(TinyOptions(3 * charge, 1));
  for (ObjectRef ref = 0; ref < 3; ++ref) InsertSmall(&cache, ref);
  ASSERT_EQ(cache.stats().entries, 3u);
  // Touch 0: the sweep gives it a second chance, so 1 is the victim.
  EXPECT_NE(cache.Lookup(0), nullptr);
  InsertSmall(&cache, 99);
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_NE(cache.Lookup(0), nullptr) << "recently touched entry evicted";
  EXPECT_EQ(cache.Lookup(1), nullptr) << "LRU entry survived";
  EXPECT_NE(cache.Lookup(99), nullptr);
}

TEST(ObjectCacheTest, ClockSweepGivesHitEntriesOneSecondChance) {
  const size_t charge = SmallEntryCharge();
  ASSERT_GT(charge, 0u);
  ObjectCache cache(TinyOptions(3 * charge, 1));
  for (ObjectRef ref = 0; ref < 3; ++ref) InsertSmall(&cache, ref);
  // Hit all three, newest first. Recency would now make 2 the victim;
  // CLOCK clears every bit in one pass and then evicts in insertion
  // order, so 0 goes. (A miss sets no bit, so probing for a victim with
  // Lookup does not disturb the sweep.)
  for (ObjectRef ref : {2, 1, 0}) ASSERT_NE(cache.Lookup(ref), nullptr);
  InsertSmall(&cache, 3);
  EXPECT_EQ(cache.Lookup(0), nullptr) << "CLOCK keeps insertion order";
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The sweep left 1, 2 and 3 unreferenced, 1 at the front. Hitting 1 now
  // earns it a second chance, so 2 goes instead (FIFO would evict 1).
  ASSERT_NE(cache.Lookup(1), nullptr);
  InsertSmall(&cache, 4);
  EXPECT_EQ(cache.Lookup(2), nullptr) << "unreferenced entry survived";
  EXPECT_NE(cache.Lookup(1), nullptr) << "entry hit after the sweep evicted";
  EXPECT_NE(cache.Lookup(3), nullptr);
  EXPECT_NE(cache.Lookup(4), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ObjectCacheTest, OversizeEntryIsNotCached) {
  ObjectCache cache(TinyOptions(64, 1));  // smaller than any entry charge
  uint64_t epoch = 0;
  cache.Lookup(1, &epoch);
  cache.Insert(1, SmallImage(1), {}, epoch);
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ObjectCacheTest, InvalidateRefDropsEntryAndBlocksStaleInsert) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(5, &epoch);  // miss: sample the pre-assembly epoch
  // A write races the assembly and invalidates before the insert.
  cache.InvalidateRef(5);
  cache.Insert(5, SmallImage(5), {}, epoch);
  EXPECT_EQ(cache.Lookup(5), nullptr) << "stale assembly was published";
  EXPECT_EQ(cache.stats().stale_drops, 1u);
  EXPECT_EQ(cache.stats().inserts, 0u);

  // The non-racing sequence publishes fine...
  uint64_t fresh_epoch = 0;
  cache.Lookup(5, &fresh_epoch);
  cache.Insert(5, SmallImage(5), {}, fresh_epoch);
  ASSERT_NE(cache.Lookup(5), nullptr);
  // ...and a later invalidation drops the resident entry.
  cache.InvalidateRef(5);
  EXPECT_EQ(cache.Lookup(5), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ObjectCacheTest, InvalidatePagesDropsEveryBackedEntry) {
  ObjectCache cache(TinyOptions(1 << 20, 4));
  for (ObjectRef ref = 0; ref < 8; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    // Even refs share page 100; odd refs live on their own page.
    std::vector<PageId> pages =
        (ref % 2 == 0) ? std::vector<PageId>{100, static_cast<PageId>(ref)}
                       : std::vector<PageId>{static_cast<PageId>(200 + ref)};
    cache.Insert(ref, SmallImage(static_cast<int32_t>(ref)), pages, epoch);
  }
  ASSERT_EQ(cache.stats().entries, 8u);
  cache.InvalidatePages({100});
  for (ObjectRef ref = 0; ref < 8; ++ref) {
    if (ref % 2 == 0) {
      EXPECT_EQ(cache.Lookup(ref), nullptr) << "ref " << ref;
    } else {
      EXPECT_NE(cache.Lookup(ref), nullptr) << "ref " << ref;
    }
  }
  EXPECT_EQ(cache.stats().invalidations, 4u);

  // InvalidatePages bumps EVERY shard's epoch: an insert with any
  // pre-invalidation epoch must be refused, whatever its shard.
  uint64_t epoch = 0;
  cache.Lookup(1000, &epoch);
  cache.InvalidatePages({42});
  cache.Insert(1000, SmallImage(1000), {}, epoch);
  EXPECT_EQ(cache.Lookup(1000), nullptr);
}

TEST(ObjectCacheTest, ClearDropsEverythingAndKeepsGaugesConsistent) {
  ObjectCache cache(TinyOptions(1 << 20, 4));
  for (ObjectRef ref = 0; ref < 16; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    cache.Insert(ref, SmallImage(static_cast<int32_t>(ref)),
                 {static_cast<PageId>(ref)}, epoch);
  }
  ASSERT_EQ(cache.stats().entries, 16u);
  cache.Clear();
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidations, 16u);
  for (ObjectRef ref = 0; ref < 16; ++ref) {
    EXPECT_EQ(cache.Lookup(ref), nullptr);
  }
}

TEST(ObjectCacheTest, PinnedEntrySurvivesInvalidation) {
  // The PageGuard analogy: invalidation unshares, it does not destroy.
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(3, &epoch);
  cache.Insert(3, SmallImage(3), {}, epoch);
  ObjCacheEntryRef pinned = cache.Lookup(3);
  ASSERT_NE(pinned, nullptr);
  cache.InvalidateRef(3);
  EXPECT_EQ(cache.Lookup(3), nullptr);
  EXPECT_EQ(pinned->image, SmallImage(3)) << "pinned entry mutated";
}

TEST(ObjectCacheTest, ResetStatsKeepsGauges) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(1, &epoch);
  cache.Insert(1, SmallImage(1), {}, epoch);
  const uint64_t resident = cache.stats().bytes;
  cache.ResetStats();
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts, 0u);
  EXPECT_EQ(stats.bytes, resident) << "reset destroyed the resident gauge";
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ObjectCacheTest, NegativeMissInsertHit) {
  ObjectCache cache(TinyOptions());
  EXPECT_FALSE(cache.LookupNegative(7));
  uint64_t epoch = ~0ull;
  EXPECT_EQ(cache.Lookup(7, &epoch), nullptr);
  cache.InsertNegative(7, epoch);
  EXPECT_TRUE(cache.LookupNegative(7));
  const ObjCacheStats stats = cache.stats();
  EXPECT_EQ(stats.negative_inserts, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
}

TEST(ObjectCacheTest, NegativeInsertBlockedByEpochMove) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(7, &epoch);
  // A write (any write) runs between the probe and the verdict: the
  // NotFound may already be wrong.
  cache.InvalidateRef(7);
  cache.InsertNegative(7, epoch);
  EXPECT_FALSE(cache.LookupNegative(7));
  EXPECT_EQ(cache.stats().negative_inserts, 0u);
  EXPECT_EQ(cache.stats().stale_drops, 1u);
}

TEST(ObjectCacheTest, NegativeVoidedByAnyWrite) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(7, &epoch);
  cache.InsertNegative(7, epoch);
  ASSERT_TRUE(cache.LookupNegative(7));
  // A page-based invalidation (fired by every store write) bumps all
  // epochs, so the verdict dies even though ref 7 was never touched.
  cache.InvalidatePages({55});
  EXPECT_FALSE(cache.LookupNegative(7));
  EXPECT_EQ(cache.stats().negative_entries, 0u) << "stale entry not reaped";
}

TEST(ObjectCacheTest, NegativeErasedByInvalidateRef) {
  ObjectCache cache(TinyOptions());
  uint64_t epoch = 0;
  cache.Lookup(9, &epoch);
  cache.InsertNegative(9, epoch);
  cache.InvalidateRef(9);  // the object was just Put
  EXPECT_FALSE(cache.LookupNegative(9));
  EXPECT_EQ(cache.stats().negative_entries, 0u);
}

TEST(ObjectCacheTest, NegativeTableIsBounded) {
  ObjCacheOptions options = TinyOptions();
  options.negative_capacity = 4;
  ObjectCache cache(options);
  for (ObjectRef ref = 0; ref < 16; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    cache.InsertNegative(ref, epoch);
  }
  EXPECT_LE(cache.stats().negative_entries, 4u);
  EXPECT_TRUE(cache.LookupNegative(15)) << "most recent verdict evicted";
  EXPECT_FALSE(cache.LookupNegative(0)) << "oldest verdict survived the bound";
}

TEST(ObjectCacheTest, NegativeCachingDisabledByZeroCapacity) {
  ObjCacheOptions options = TinyOptions();
  options.negative_capacity = 0;
  ObjectCache cache(options);
  uint64_t epoch = 0;
  cache.Lookup(3, &epoch);
  cache.InsertNegative(3, epoch);
  EXPECT_FALSE(cache.LookupNegative(3));
  EXPECT_EQ(cache.stats().negative_inserts, 0u);
}

TEST(ObjectCacheTest, ChargeCoversEveryEntryAndFillStaysWithinCapacity) {
  // Fill well past capacity with images of mixed sizes and page counts,
  // some pages shared between entries; the resident charge must never
  // exceed the budget, and every entry must be charged at least the bytes
  // it holds.
  constexpr size_t kCapacity = 64 << 10;
  ObjectCache cache(TinyOptions(kCapacity, 4));
  Rng rng(5);
  for (ObjectRef ref = 0; ref < 2000; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    std::vector<PageId> pages;
    for (uint64_t p = rng.Uniform(6); p > 0; --p) {
      pages.push_back(rng.Uniform(300));
    }
    cache.Insert(ref, std::string(rng.Uniform(400), 'x'), pages, epoch);
    ASSERT_LE(cache.stats().bytes, kCapacity) << "after ref " << ref;
  }
  const ObjCacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u) << "the fill never reached capacity";
  EXPECT_GT(stats.bytes, kCapacity / 2) << "capacity mostly unused";
  size_t resident = 0;
  for (ObjectRef ref = 0; ref < 2000; ++ref) {
    ObjCacheEntryRef entry = cache.Lookup(ref);
    if (entry == nullptr) continue;
    ++resident;
    EXPECT_GE(entry->bytes,
              entry->image.size() + entry->pages.size() * sizeof(PageId))
        << "ref " << ref;
  }
  EXPECT_EQ(resident, stats.entries);

  // A longer image is charged more than a short one.
  ObjectCache sizes(TinyOptions());
  uint64_t epoch = 0;
  sizes.Lookup(1, &epoch);
  sizes.Insert(1, std::string(20, 'a'), {}, epoch);
  sizes.Lookup(2, &epoch);
  sizes.Insert(2, std::string(300, 'b'), {}, epoch);
  EXPECT_GE(sizes.Lookup(2)->bytes, sizes.Lookup(1)->bytes + 280);
}

// ----------------------------------------------------------------- store --

class ObjCacheStoreTest : public ::testing::TestWithParam<StorageModelKind> {
 protected:
  void SetUp() override {
    bench::GeneratorConfig config;
    config.n_objects = 24;
    config.seed = 43;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());

    cached_ = OpenStore(/*enabled=*/true);
    plain_ = OpenStore(/*enabled=*/false);
  }

  std::unique_ptr<ComplexObjectStore> OpenStore(bool enabled) {
    StoreOptions options;
    options.model = GetParam();
    options.objcache.enabled = enabled;
    options.objcache.capacity_bytes = 8 << 20;
    auto store = ComplexObjectStore::Open(db_->schema(), options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    auto owned = std::move(store).value();
    for (const auto& object : db_->objects()) {
      EXPECT_TRUE(owned->Put(object.ref, object.tuple).ok());
    }
    return owned;
  }

  bool ByRef() const { return GetParam() != StorageModelKind::kNsm; }

  std::unique_ptr<bench::BenchmarkDatabase> db_;
  std::unique_ptr<ComplexObjectStore> cached_;
  std::unique_ptr<ComplexObjectStore> plain_;
};

TEST_P(ObjCacheStoreTest, SecondGetIsAHitAndByteEqual) {
  if (!ByRef()) {
    // Plain NSM has no by-ref access: the tier stays off even when asked.
    EXPECT_EQ(cached_->object_cache(), nullptr);
    return;
  }
  ASSERT_NE(cached_->object_cache(), nullptr);
  for (const auto& object : db_->objects()) {
    auto first = cached_->Get(object.ref);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first.value(), object.tuple);
  }
  const ObjCacheStats cold = cached_->objcache_stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.misses, db_->objects().size());
  EXPECT_EQ(cold.entries, db_->objects().size());
  for (const auto& object : db_->objects()) {
    auto again = cached_->Get(object.ref);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), object.tuple);
  }
  const ObjCacheStats warm = cached_->objcache_stats();
  EXPECT_EQ(warm.hits, db_->objects().size());
  EXPECT_GT(warm.HitRatio(), 0.0);
}

TEST_P(ObjCacheStoreTest, HitsCauseNoPageFixes) {
  if (!ByRef()) GTEST_SKIP();
  (void)cached_->Get(3);  // populate
  cached_->ResetStats();
  auto got = cached_->Get(3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(cached_->stats().buffer.fixes, 0u)
      << "a cache hit touched the page pool";
  EXPECT_EQ(cached_->objcache_stats().hits, 1u);
}

TEST_P(ObjCacheStoreTest, ProjectedGetsMatchUncachedStore) {
  if (!ByRef()) GTEST_SKIP();
  const Schema& schema = *db_->schema();
  std::vector<Projection> projections = {Projection::All(schema),
                                         Projection::RootOnly(schema)};
  // Every ancestor-closed single-branch subset.
  for (PathId p = 0; p < schema.path_count(); ++p) {
    std::vector<PathId> paths;
    PathId cur = p;
    for (;;) {
      paths.push_back(cur);
      if (cur == kRootPath) break;
      cur = schema.path(cur).parent;
    }
    auto proj = Projection::OfPaths(schema, paths);
    ASSERT_TRUE(proj.ok());
    projections.push_back(proj.value());
  }
  for (const auto& object : db_->objects()) {
    for (const Projection& proj : projections) {
      auto from_plain = plain_->Get(object.ref, proj);
      // Twice through the cached store: the first call may assemble (miss),
      // the second must serve the projection from the cached entry.
      auto from_miss = cached_->Get(object.ref, proj);
      auto from_hit = cached_->Get(object.ref, proj);
      ASSERT_TRUE(from_plain.ok());
      ASSERT_TRUE(from_miss.ok());
      ASSERT_TRUE(from_hit.ok());
      EXPECT_EQ(from_miss.value(), from_plain.value())
          << "miss path diverged, projection " << proj.ToString();
      EXPECT_EQ(from_hit.value(), from_plain.value())
          << "hit path diverged, projection " << proj.ToString();
    }
  }
}

TEST_P(ObjCacheStoreTest, ChildrenAndRootRecordMatchUncachedStore) {
  if (!ByRef()) GTEST_SKIP();
  for (const auto& object : db_->objects()) {
    (void)cached_->Get(object.ref);  // make the next reads cache hits
    auto cached_children = cached_->Children(object.ref);
    auto plain_children = plain_->Children(object.ref);
    ASSERT_TRUE(cached_children.ok());
    ASSERT_TRUE(plain_children.ok());
    EXPECT_EQ(cached_children.value(), plain_children.value());
    auto cached_root = cached_->RootRecord(object.ref);
    auto plain_root = plain_->RootRecord(object.ref);
    ASSERT_TRUE(cached_root.ok());
    ASSERT_TRUE(plain_root.ok());
    EXPECT_EQ(cached_root.value(), plain_root.value());
  }
}

TEST_P(ObjCacheStoreTest, NavigationMissesDoNotPopulate) {
  if (!ByRef()) GTEST_SKIP();
  (void)cached_->Children(2);
  (void)cached_->RootRecord(2);
  EXPECT_EQ(cached_->objcache_stats().entries, 0u)
      << "a navigation miss assembled a whole object";
}

TEST_P(ObjCacheStoreTest, ReplaceInvalidatesBeforeAck) {
  if (!ByRef()) GTEST_SKIP();
  ASSERT_TRUE(cached_->Get(5).ok());  // cached
  Tuple replacement = db_->objects()[5].tuple;
  replacement.values[1] = Value::Int32(424242);
  ASSERT_TRUE(cached_->Replace(5, replacement).ok());
  EXPECT_GT(cached_->objcache_stats().invalidations, 0u);
  auto after = cached_->Get(5);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), replacement) << "stale assembly served after write";
}

TEST_P(ObjCacheStoreTest, UpdateRootRecordInvalidates) {
  if (!ByRef()) GTEST_SKIP();
  ASSERT_TRUE(cached_->Get(4).ok());
  auto root = cached_->RootRecord(4);
  ASSERT_TRUE(root.ok());
  Tuple updated = root.value();
  updated.values[1] = Value::Int32(999);
  ASSERT_TRUE(cached_->UpdateRootRecord(4, updated).ok());
  auto after = cached_->RootRecord(4);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->values[1].as_int32(), 999);
  auto full = cached_->Get(4);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->values[1].as_int32(), 999);
}

TEST_P(ObjCacheStoreTest, RemoveInvalidates) {
  if (!ByRef()) GTEST_SKIP();
  ASSERT_TRUE(cached_->Get(6).ok());
  ASSERT_TRUE(cached_->Remove(6).ok());
  EXPECT_TRUE(cached_->Get(6).status().IsNotFound())
      << "cache resurrected a removed object";
}

TEST_P(ObjCacheStoreTest, RepeatedMissingGetIsNegativelyCachedAndByteEqual) {
  if (!ByRef()) GTEST_SKIP();
  const ObjectRef absent = 9000;  // far outside the generated refs
  auto from_plain = plain_->Get(absent);
  auto first = cached_->Get(absent);   // model probe, verdict recorded
  auto second = cached_->Get(absent);  // served by the negative table
  ASSERT_FALSE(from_plain.ok());
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(first.status().IsNotFound());
  EXPECT_TRUE(second.status().IsNotFound());
  // The cache-served answer is indistinguishable from the model's.
  EXPECT_EQ(first.status().ToString(), from_plain.status().ToString());
  EXPECT_EQ(second.status().ToString(), from_plain.status().ToString());
  EXPECT_EQ(cached_->objcache_stats().negative_hits, 1u);
}

TEST_P(ObjCacheStoreTest, NegativeHitCausesNoPageFixes) {
  if (!ByRef()) GTEST_SKIP();
  const ObjectRef absent = 9001;
  ASSERT_TRUE(cached_->Get(absent).status().IsNotFound());  // record verdict
  cached_->ResetStats();
  ASSERT_TRUE(cached_->Get(absent).status().IsNotFound());
  EXPECT_EQ(cached_->stats().buffer.fixes, 0u)
      << "a negative hit touched the page pool";
  EXPECT_EQ(cached_->objcache_stats().negative_hits, 1u);
}

TEST_P(ObjCacheStoreTest, PutAfterNegativeProbeIsVisible) {
  if (!ByRef()) GTEST_SKIP();
  const ObjectRef fresh = 9002;
  // Probe twice so the second answer provably came from the side table.
  ASSERT_TRUE(cached_->Get(fresh).status().IsNotFound());
  ASSERT_TRUE(cached_->Get(fresh).status().IsNotFound());
  Tuple tuple = db_->objects()[0].tuple;
  tuple.values[0] = Value::Int32(9002 + 1);  // fresh unique key
  auto put = cached_->Put(fresh, tuple);
  ASSERT_TRUE(put.ok()) << put.ToString();
  auto after = cached_->Get(fresh);
  ASSERT_TRUE(after.ok()) << "negative verdict outlived the Put";
  EXPECT_EQ(after.value(), tuple);
}

TEST_P(ObjCacheStoreTest, DisabledStoreHasNoCache) {
  EXPECT_EQ(plain_->object_cache(), nullptr);
  const ObjCacheStats stats = plain_->objcache_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ObjCacheStoreTest,
    ::testing::ValuesIn(AllStorageModelKinds()),
    [](const ::testing::TestParamInfo<StorageModelKind>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

// Cached reads must answer exactly like an uncached store over the same
// data — cold (misses: read-through, and the navigation calls' model
// fallback) and warm (every answer decoded from the entry's image) — for
// every model with a cache, over both in-memory and mmap volumes, for the
// benchmark's Station objects and for random schemas (links after
// relation attributes included), under random projections.
class ObjCacheDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<StorageModelKind, VolumeKind>> {
 protected:
  void TearDown() override {
    for (const std::string& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

  std::unique_ptr<ComplexObjectStore> OpenStore(
      const std::shared_ptr<const Schema>& schema, bool cached) {
    StoreOptions options;
    options.model = std::get<0>(GetParam());
    options.backend = std::get<1>(GetParam());
    if (options.backend == VolumeKind::kMmap) {
      std::string name =
          std::string("starfish_objcache_diff_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name() +
          "_" + std::to_string(dirs_.size());
      for (char& c : name) {
        if (c == '/') c = '_';
      }
      options.path =
          (std::filesystem::temp_directory_path() / name).string();
      std::filesystem::remove_all(options.path);
      dirs_.push_back(options.path);
    }
    options.objcache.enabled = cached;
    auto store = ComplexObjectStore::Open(schema, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(store).value() : nullptr;
  }

  void CheckDataset(const std::shared_ptr<const Schema>& schema,
                    const std::vector<Tuple>& objects, Rng* rng) {
    auto cached = OpenStore(schema, /*cached=*/true);
    auto plain = OpenStore(schema, /*cached=*/false);
    ASSERT_NE(cached, nullptr);
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(cached->object_cache(), nullptr);
    for (size_t i = 0; i < objects.size(); ++i) {
      ASSERT_TRUE(cached->Put(i, objects[i]).ok());
      ASSERT_TRUE(plain->Put(i, objects[i]).ok());
    }
    const ObjectSerializer serializer(schema);
    std::vector<Projection> projections;
    for (size_t n = 0; n < schema->path_count(); ++n) {
      projections.push_back(test::RandomProjection(rng, *schema));
    }
    projections.push_back(Projection::RootOnly(*schema));

    for (const bool warm : {false, true}) {
      SCOPED_TRACE(warm ? "warm" : "cold");
      const ObjCacheStats before = cached->objcache_stats();
      for (ObjectRef ref = 0; ref < objects.size(); ++ref) {
        SCOPED_TRACE("ref " + std::to_string(ref));
        // Navigation first: cold, these fall through to the model.
        auto children = cached->Children(ref);
        auto plain_children = plain->Children(ref);
        ASSERT_TRUE(children.ok()) << children.status().ToString();
        ASSERT_TRUE(plain_children.ok());
        EXPECT_EQ(children.value(), plain_children.value());
        auto root = cached->RootRecord(ref);
        auto plain_root = plain->RootRecord(ref);
        ASSERT_TRUE(root.ok()) << root.status().ToString();
        ASSERT_TRUE(plain_root.ok());
        EXPECT_EQ(root.value(), plain_root.value());
        // A projected Get first, so a cold miss returns a projection of
        // the assembly it just encoded.
        const Projection& first =
            projections[rng->Uniform(projections.size())];
        const Projection* second = &projections.back();
        for (const Projection* proj : {&first, second}) {
          auto got = cached->Get(ref, *proj);
          auto want = plain->Get(ref, *proj);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_TRUE(want.ok());
          EXPECT_EQ(got.value(), want.value()) << proj->ToString();
        }
        auto full = cached->Get(ref);
        ASSERT_TRUE(full.ok());
        EXPECT_EQ(full.value(), objects[ref]);
        ObjCacheEntryRef entry = cached->object_cache()->Lookup(ref);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->image, serializer.EncodeImage(objects[ref]));
      }
      const ObjCacheStats delta = cached->objcache_stats().Since(before);
      // Cold: exactly one read-through per object. Warm: none.
      EXPECT_EQ(delta.inserts, warm ? 0u : objects.size());
    }
  }

  std::vector<std::string> dirs_;
};

TEST_P(ObjCacheDifferentialTest, CachedReadsAnswerLikeTheUncachedStore) {
  const uint64_t seed = test::TestSeed(31);
  SCOPED_TRACE("STARFISH_SEED=" + std::to_string(seed));
  Rng rng(seed);
  {
    bench::GeneratorConfig config;
    config.n_objects = 16;
    config.seed = seed;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    std::vector<Tuple> objects;
    for (const auto& object : db->objects()) objects.push_back(object.tuple);
    SCOPED_TRACE("station schema");
    CheckDataset(db->schema(), objects, &rng);
  }
  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE("random schema " + std::to_string(s));
    auto schema = test::RandomSchema(&rng, 0, 1 + s, "T");
    std::vector<Tuple> objects;
    for (int i = 0; i < 12; ++i) {
      objects.push_back(
          test::RandomTuple(&rng, *schema, i + 1, 12, /*is_root=*/true));
    }
    CheckDataset(schema, objects, &rng);
  }
}

std::vector<std::tuple<StorageModelKind, VolumeKind>> CachedConfigs() {
  std::vector<std::tuple<StorageModelKind, VolumeKind>> out;
  for (StorageModelKind kind : AllStorageModelKinds()) {
    if (kind == StorageModelKind::kNsm) continue;  // no cache for plain NSM
    out.emplace_back(kind, VolumeKind::kMem);
    out.emplace_back(kind, VolumeKind::kMmap);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    CachedModels, ObjCacheDifferentialTest,
    ::testing::ValuesIn(CachedConfigs()),
    [](const ::testing::TestParamInfo<ObjCacheDifferentialTest::ParamType>&
           info) {
      return test::ParamName(ToString(std::get<0>(info.param)) +
                             (std::get<1>(info.param) == VolumeKind::kMem
                                  ? "_mem"
                                  : "_mmap"));
    });

// Persistent stores: write-capture (page-based) invalidation and the
// cold-start-on-reopen contract over the mmap backend.
TEST(ObjCachePersistentTest, WalWritePathInvalidatesAndReopenStartsCold) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "starfish_objcache_persist")
          .string();
  std::filesystem::remove_all(dir);

  bench::GeneratorConfig config;
  config.n_objects = 12;
  config.seed = 7;
  auto db = bench::BenchmarkDatabase::Generate(config);
  ASSERT_TRUE(db.ok());

  StoreOptions options;
  options.model = StorageModelKind::kDasdbsNsm;
  options.backend = VolumeKind::kMmap;
  options.path = dir;
  options.objcache.enabled = true;
  options.wal_sync = WalSyncPolicy::kAlways;
  {
    auto store_or = ComplexObjectStore::Open(db->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    for (const auto& object : db->objects()) {
      ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
    }
    for (const auto& object : db->objects()) {
      ASSERT_TRUE(store->Get(object.ref).ok());
    }
    ASSERT_EQ(store->objcache_stats().entries, db->objects().size());

    Tuple replacement = db->objects()[0].tuple;
    replacement.values[1] = Value::Int32(31337);
    ASSERT_TRUE(store->Replace(0, replacement).ok());
    // The WAL write capture fed page-based invalidation: at minimum the
    // replaced object's assembly is gone, and the page net may have taken
    // neighbors on shared slotted pages with it.
    EXPECT_GT(store->objcache_stats().invalidations, 0u);
    auto after = store->Get(0);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), replacement);
    ASSERT_TRUE(store->Flush().ok());
  }

  // Reopen: the cache must start empty (assemblies never persist).
  auto reopened_or = ComplexObjectStore::Open(db->schema(), options);
  ASSERT_TRUE(reopened_or.ok()) << reopened_or.status().ToString();
  auto reopened = std::move(reopened_or).value();
  ASSERT_NE(reopened->object_cache(), nullptr);
  const ObjCacheStats cold = reopened->objcache_stats();
  EXPECT_EQ(cold.entries, 0u);
  EXPECT_EQ(cold.hits + cold.misses, 0u);
  auto got = reopened->Get(3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), db->objects()[3].tuple);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace starfish
