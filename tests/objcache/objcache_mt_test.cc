// Concurrency-contract stress tests for the assembled-object cache.
//
// These run under the CI ThreadSanitizer job (ci/check.sh builds with
// -DSTARFISH_TSAN=ON and includes the ObjCacheMt* suites). Two layers:
//
//   * Raw cache — every public ObjectCache method hammered from many
//     threads at once, with a capacity small enough to keep the LRU
//     eviction path hot. Nothing here touches pages, so any interleaving
//     is legal.
//   * Store level — reader threads on ReadSessions race the cache's
//     invalidation machinery. Within the store's single-writer /
//     multi-reader contract, readers may never observe a torn or stale
//     assembly: every tuple that comes back must be byte-equal to a value
//     the object legitimately held.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "nf2/serializer.h"
#include "objcache/object_cache.h"
#include "util/random.h"

namespace starfish {
namespace {

constexpr uint32_t kReaderThreads = 4;

/// The raw cache is format-agnostic: a string naming the ref stands in
/// for its image.
std::string ValueImage(ObjectRef ref) {
  return "image-of-ref-" + std::to_string(ref);
}

// Raw cache: lookups, epoch-guarded inserts, both invalidation flavors and
// Clear, all concurrent, small capacity so eviction races everything else.
TEST(ObjCacheMtTest, RawCacheSurvivesFullApiHammering) {
  ObjCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 32 << 10;  // keep the eviction loop busy
  options.shard_count = 4;
  ObjectCache cache(options);

  constexpr uint32_t kRefs = 64;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kReaderThreads; ++t) {
    pool.emplace_back([&, t] {
      Rng rng(0xCACE + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const ObjectRef ref = rng.Uniform(kRefs);
        switch (rng.Uniform(8)) {
          case 0:
            cache.InvalidateRef(ref);
            break;
          case 1:
            cache.InvalidatePages({static_cast<PageId>(ref), 7});
            break;
          case 2:
            if (i % 64 == 0) cache.Clear();
            break;
          default: {
            uint64_t epoch = 0;
            if (ObjCacheEntryRef entry = cache.Lookup(ref, &epoch)) {
              // Entries are immutable: the payload always matches the key.
              ASSERT_EQ(entry->image, ValueImage(ref));
            } else {
              cache.Insert(ref, ValueImage(ref), {static_cast<PageId>(ref)},
                           epoch);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();

  // Conservation: gauges consistent with each other and with a full drain.
  const ObjCacheStats end = cache.stats();
  EXPECT_EQ(end.bytes, cache.TotalBytes());
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// Readers loop Lookup while one thread runs every writer-side operation.
// A reader may miss at any time, but every image it gets back must be one
// the writer inserted for that ref: never another ref's, never a version
// that was not yet published.
TEST(ObjCacheMtTest, ReadersSeeOnlyInsertedImagesWhileOneThreadWrites) {
  ObjCacheOptions options;
  options.enabled = true;
  options.capacity_bytes = 16 << 10;  // small: inserts evict, readers hit
  options.shard_count = 2;
  ObjectCache cache(options);

  constexpr uint32_t kRefs = 48;
  constexpr int kWriterOps = 6000;
  auto image = [](ObjectRef ref, uint32_t version) {
    return ValueImage(ref) + "/v" + std::to_string(version);
  };
  // The highest version of each ref handed to Insert so far.
  std::vector<std::atomic<uint32_t>> published(kRefs);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> readers;
  for (uint32_t t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x5EAD + t);
      uint64_t local_hits = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ObjectRef ref = rng.Uniform(kRefs);
        ObjCacheEntryRef entry = cache.Lookup(ref);
        if (entry == nullptr) continue;
        ++local_hits;
        const std::string prefix = ValueImage(ref) + "/v";
        ASSERT_EQ(entry->image.compare(0, prefix.size(), prefix), 0)
            << entry->image << " served for ref " << ref;
        const uint32_t version = static_cast<uint32_t>(
            std::stoul(entry->image.substr(prefix.size())));
        ASSERT_LE(version, published[ref].load(std::memory_order_acquire))
            << "ref " << ref << " served a version never inserted";
        ASSERT_EQ(entry->pages, (std::vector<PageId>{
                                    static_cast<PageId>(ref)}));
      }
      hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }

  Rng rng(0x3217E);
  uint32_t version = 0;
  for (int i = 0; i < kWriterOps; ++i) {
    const ObjectRef ref = rng.Uniform(kRefs);
    switch (rng.Uniform(16)) {
      case 0:
        cache.InvalidateRef(ref);
        break;
      case 1:
        cache.InvalidatePages({static_cast<PageId>(ref)});
        break;
      case 2:
        if (i % 16 == 0) cache.Clear();
        break;
      default: {
        uint64_t epoch = 0;
        cache.Lookup(ref, &epoch);
        published[ref].store(++version, std::memory_order_release);
        cache.Insert(ref, image(ref, version), {static_cast<PageId>(ref)},
                     epoch);
        break;
      }
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_GT(hits.load(), 0u) << "no reader ever hit: the race was not run";
  EXPECT_EQ(cache.stats().bytes, cache.TotalBytes());
}

// Hits and misses are counted per reader slot and summed at snapshot: with
// twice as many threads as the cache has reader slots (16), every slot is
// shared, and still no increment may be lost.
TEST(ObjCacheMtTest, ConcurrentLookupsCountExactly) {
  ObjCacheOptions options;
  options.enabled = true;
  options.shard_count = 4;
  ObjectCache cache(options);
  constexpr uint32_t kPresent = 64;  // refs [0, 64) cached, [64, 128) not
  for (ObjectRef ref = 0; ref < kPresent; ++ref) {
    uint64_t epoch = 0;
    cache.Lookup(ref, &epoch);
    cache.Insert(ref, ValueImage(ref), {static_cast<PageId>(ref)}, epoch);
  }
  const ObjCacheStats filled = cache.stats();
  ASSERT_EQ(filled.entries, kPresent);
  cache.ResetStats();
  ASSERT_EQ(cache.stats().hits + cache.stats().misses, 0u);

  constexpr uint32_t kThreads = 32;
  // Per thread: every ref the same number of times, so exactly half hit.
  constexpr uint32_t kLookups = 1024 * 2 * kPresent;
  std::atomic<bool> go{false};  // start together, so slot sharers overlap
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint32_t i = 0; i < kLookups; ++i) {
        const ObjectRef ref = (7 * t + i) % (2 * kPresent);
        const bool hit = cache.Lookup(ref) != nullptr;
        ASSERT_EQ(hit, ref < kPresent) << "ref " << ref;
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();

  const ObjCacheStats after = cache.stats();
  EXPECT_EQ(after.hits, kThreads * kLookups / 2);
  EXPECT_EQ(after.misses, kThreads * kLookups / 2);
  EXPECT_EQ(after.entries, filled.entries);
  EXPECT_EQ(after.bytes, filled.bytes);

  cache.ResetStats();
  const ObjCacheStats reset = cache.stats();
  EXPECT_EQ(reset.hits, 0u);
  EXPECT_EQ(reset.misses, 0u);
  EXPECT_EQ(reset.inserts, 0u);
  EXPECT_EQ(reset.entries, filled.entries) << "reset moved a gauge";
  EXPECT_EQ(reset.bytes, filled.bytes) << "reset moved a gauge";
}

class ObjCacheMtStoreTest : public ::testing::TestWithParam<VolumeKind> {
 protected:
  void SetUp() override {
    if (GetParam() == VolumeKind::kMmap) {
      dir_ = (std::filesystem::temp_directory_path() /
              ("starfish_objcache_mt_" +
               std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name())))
                 .string();
      for (char& c : dir_) {
        if (c == '/') c = '_';
      }
      std::filesystem::remove_all(dir_);
    }

    bench::GeneratorConfig config;
    config.n_objects = 32;
    config.seed = 11;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());

    StoreOptions options;
    options.model = StorageModelKind::kDasdbsNsm;
    options.backend = GetParam();
    options.path = dir_;
    options.buffer_shards = 8;
    options.objcache.enabled = true;
    options.objcache.capacity_bytes = 4 << 20;
    options.objcache.shard_count = 4;
    auto store_or = ComplexObjectStore::Open(db_->schema(), options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = std::move(store_or).value();
    for (const auto& object : db_->objects()) {
      ASSERT_TRUE(store_->Put(object.ref, object.tuple).ok());
    }
  }

  void TearDown() override {
    store_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::string dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
  std::unique_ptr<ComplexObjectStore> store_;
};

// Phase 1: readers run full Gets (hits and re-assembly misses) while an
// invalidator thread yanks entries out from under them through every
// invalidation entry point. No page is mutated, so this stays inside the
// multi-reader contract — the cache machinery is the only thing racing.
// Every Get must still return exactly the stored object.
TEST_P(ObjCacheMtStoreTest, ReadersRaceInvalidation) {
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    ObjectCache* cache = store_->object_cache();
    ASSERT_NE(cache, nullptr);
    Rng rng(0xDEAD);
    while (!stop.load(std::memory_order_relaxed)) {
      const ObjectRef ref = rng.Uniform(db_->objects().size());
      switch (rng.Uniform(4)) {
        case 0:
          cache->InvalidateRef(ref);
          break;
        case 1:
          cache->InvalidatePages({static_cast<PageId>(rng.Uniform(64))});
          break;
        case 2:
          cache->Clear();
          break;
        default:
          store_->InvalidateObjectCache();
          break;
      }
    }
  });

  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kReaderThreads; ++t) {
    pool.emplace_back([&, t] {
      ReadSession session = store_->OpenReadSession();
      Rng rng(0xFEED + t);
      for (int i = 0; i < 1500; ++i) {
        const size_t n = rng.Uniform(db_->objects().size());
        const auto& expect = db_->objects()[n];
        auto got = session.Get(expect.ref);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got.value(), expect.tuple) << "torn or stale assembly";
      }
    });
  }
  for (auto& th : pool) th.join();
  stop.store(true, std::memory_order_relaxed);
  invalidator.join();
}

// Phase 2: a real writer flips objects between two versions through the
// full write path (apply + WAL capture + invalidate-before-ack) while
// readers probe the cache directly — Lookup never touches a page, so the
// readers stay inside the contract even with a concurrent writer. Any
// entry the cache hands out must be one of the two legitimate versions;
// anything else means a torn assembly was published.
TEST_P(ObjCacheMtStoreTest, CacheLookupsRaceRealWriter) {
  // Two full-object versions per ref, distinguishable at values[1], and
  // the image each one is cached as.
  const ObjectSerializer serializer(db_->schema());
  std::vector<Tuple> v1, v2;
  std::vector<std::string> v1_image, v2_image;
  for (const auto& object : db_->objects()) {
    v1.push_back(object.tuple);
    Tuple alt = object.tuple;
    alt.values[1] = Value::Int32(-1000000 - static_cast<int32_t>(object.ref));
    v2.push_back(alt);
    v1_image.push_back(serializer.EncodeImage(v1.back()));
    v2_image.push_back(serializer.EncodeImage(v2.back()));
  }
  // Warm the cache with v1 assemblies.
  for (const auto& object : db_->objects()) {
    ASSERT_TRUE(store_->Get(object.ref).ok());
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kReaderThreads; ++t) {
    pool.emplace_back([&, t] {
      ObjectCache* cache = store_->object_cache();
      Rng rng(0xACE + t);
      uint64_t observed = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t n = rng.Uniform(db_->objects().size());
        ObjCacheEntryRef entry = cache->Lookup(db_->objects()[n].ref);
        if (entry == nullptr) continue;
        const bool is_v1 = entry->image == v1_image[n];
        const bool is_v2 = entry->image == v2_image[n];
        ASSERT_TRUE(is_v1 || is_v2)
            << "cache served a tuple that never existed (ref "
            << db_->objects()[n].ref << ")";
        ++observed;
      }
      EXPECT_GT(observed, 0u) << "reader thread never saw a hit";
    });
  }

  Rng rng(0xBEE);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng.Uniform(db_->objects().size());
    const Tuple& next = (round % 2 == 0) ? v2[n] : v1[n];
    ASSERT_TRUE(store_->Replace(db_->objects()[n].ref, next).ok());
    // Re-populate so readers keep seeing hits for both versions.
    ASSERT_TRUE(store_->Get(db_->objects()[n].ref).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();

  // Quiesced: the cache must now agree with the store for every object.
  for (size_t n = 0; n < db_->objects().size(); ++n) {
    auto got = store_->Get(db_->objects()[n].ref);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value() == v1[n] || got.value() == v2[n]);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ObjCacheMtStoreTest,
                         ::testing::Values(VolumeKind::kMem,
                                           VolumeKind::kMmap),
                         [](const ::testing::TestParamInfo<VolumeKind>& info) {
                           return info.param == VolumeKind::kMem ? "mem"
                                                                 : "mmap";
                         });

}  // namespace
}  // namespace starfish
