// Transaction semantics over the live store: Commit makes a multi-op
// unit durable as one, Rollback restores the prior state byte-for-byte
// through logical compensations, a dropped handle rolls back on its own,
// and Flush refuses to seal uncommitted work into a checkpoint. Crash
// atomicity (the log-side half of the contract) lives in
// tests/wal/wal_crash_test.cc; this file exercises the in-process half.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "nf2/serializer.h"
#include "objcache/object_cache.h"
#include "tools/fsck.h"

namespace starfish {
namespace {

constexpr size_t kBaseline = 8;  // objects committed before each test's txn
constexpr size_t kObjects = 12;  // the rest are txn fodder

class WalTxnTest : public ::testing::TestWithParam<StorageModelKind> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_waltxn_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    bench::GeneratorConfig config;
    config.n_objects = kObjects;
    config.seed = 89;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  bool ByRef() const { return GetParam() != StorageModelKind::kNsm; }

  StoreOptions Options(VolumeKind backend = VolumeKind::kMmap) {
    StoreOptions options;
    options.model = GetParam();
    options.backend = backend;
    if (backend != VolumeKind::kMem) {
      options.path = dir_;
      options.wal_sync = WalSyncPolicy::kAlways;
    }
    return options;
  }

  std::unique_ptr<ComplexObjectStore> OpenStore(StoreOptions options) {
    auto store = ComplexObjectStore::Open(db_->schema(), options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(store).value() : nullptr;
  }

  void PutBaseline(ComplexObjectStore* store) {
    for (size_t i = 0; i < kBaseline; ++i) {
      const auto& object = db_->objects()[i];
      ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }

  Result<Tuple> Read(ComplexObjectStore* store, size_t index) {
    const auto& object = db_->objects()[index];
    return ByRef() ? store->Get(object.ref)
                   : store->GetByKey(object.key,
                                     Projection::All(*db_->schema()));
  }

  std::string dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
};

TEST_P(WalTxnTest, CommitMakesEveryOpDurableAsOneUnit) {
  {
    auto store = OpenStore(Options());
    ASSERT_NE(store, nullptr);
    PutBaseline(store.get());
    auto txn_or = store->Begin();
    ASSERT_TRUE(txn_or.ok()) << txn_or.status().ToString();
    auto txn = std::move(txn_or).value();
    EXPECT_GT(txn.id(), 0u);
    for (size_t i = kBaseline; i < kObjects; ++i) {
      const auto& object = db_->objects()[i];
      ASSERT_TRUE(txn.Put(object.ref, object.tuple).ok());
    }
    // A transaction reads its own writes before commit.
    auto own = Read(store.get(), kBaseline);
    ASSERT_TRUE(own.ok());
    EXPECT_EQ(own.value(), db_->objects()[kBaseline].tuple);
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_FALSE(txn.open());
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  for (size_t i = 0; i < kObjects; ++i) {
    auto got = Read(store.get(), i);
    ASSERT_TRUE(got.ok()) << "object " << i << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value(), db_->objects()[i].tuple) << "object " << i;
  }
}

TEST_P(WalTxnTest, RollbackRestoresPriorStateByteForByte) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  PutBaseline(store.get());

  const auto& replace_target = db_->objects()[2];
  const auto& remove_target = db_->objects()[4];
  const auto& fresh = db_->objects()[kBaseline];
  Tuple replacement = replace_target.tuple;
  replacement.values[1] = Value::Int32(-777);

  auto txn_or = store->Begin();
  ASSERT_TRUE(txn_or.ok());
  {
    auto txn = std::move(txn_or).value();
    ASSERT_TRUE(txn.Put(fresh.ref, fresh.tuple).ok());
    if (ByRef()) {
      ASSERT_TRUE(txn.Replace(replace_target.ref, replacement).ok());
      auto root = store->RootRecord(db_->objects()[3].ref);
      ASSERT_TRUE(root.ok());
      Tuple new_root = root.value();
      new_root.values[1] = Value::Int32(31337);
      ASSERT_TRUE(
          txn.UpdateRootRecord(db_->objects()[3].ref, new_root).ok());
      ASSERT_TRUE(txn.Remove(remove_target.ref).ok());
      // Mid-txn the new state is live...
      auto mid = store->Get(replace_target.ref);
      ASSERT_TRUE(mid.ok());
      EXPECT_EQ(mid.value(), replacement);
      EXPECT_TRUE(store->Get(remove_target.ref).status().IsNotFound());
    }
    ASSERT_TRUE(txn.Rollback().ok());
  }
  // ...and after rollback every baseline object is back, byte-for-byte,
  // while the txn's insert never happened.
  for (size_t i = 0; i < kBaseline; ++i) {
    auto got = Read(store.get(), i);
    ASSERT_TRUE(got.ok()) << "object " << i << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value(), db_->objects()[i].tuple) << "object " << i;
  }
  EXPECT_FALSE(Read(store.get(), kBaseline).ok());

  // The rolled-back state is what a reopen recovers, too.
  ASSERT_TRUE(store->Close().ok());
  store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  for (size_t i = 0; i < kBaseline; ++i) {
    auto got = Read(store.get(), i);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), db_->objects()[i].tuple) << "object " << i;
  }
  EXPECT_FALSE(Read(store.get(), kBaseline).ok());
}

TEST_P(WalTxnTest, DroppedHandleRollsBackAutomatically) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  PutBaseline(store.get());
  {
    auto txn_or = store->Begin();
    ASSERT_TRUE(txn_or.ok());
    auto txn = std::move(txn_or).value();
    ASSERT_TRUE(txn.Put(db_->objects()[kBaseline].ref,
                        db_->objects()[kBaseline].tuple).ok());
  }  // no Commit: the destructor must undo the put
  EXPECT_FALSE(Read(store.get(), kBaseline).ok());
  EXPECT_TRUE(store->Flush().ok()) << "auto-rollback left the txn open";
}

TEST_P(WalTxnTest, OpsOnAClosedHandleFailFast) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  PutBaseline(store.get());
  auto txn_or = store->Begin();
  ASSERT_TRUE(txn_or.ok());
  auto txn = std::move(txn_or).value();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.open());
  const auto& object = db_->objects()[kBaseline];
  EXPECT_TRUE(txn.Put(object.ref, object.tuple).IsFailedPrecondition());
  EXPECT_TRUE(txn.Remove(object.ref).IsFailedPrecondition());
  EXPECT_TRUE(txn.Commit().IsFailedPrecondition());
  EXPECT_TRUE(txn.Rollback().IsFailedPrecondition());
}

TEST_P(WalTxnTest, FlushRefusesWhileATransactionIsOpen) {
  auto store = OpenStore(Options());
  ASSERT_NE(store, nullptr);
  PutBaseline(store.get());
  auto txn_or = store->Begin();
  ASSERT_TRUE(txn_or.ok());
  auto txn = std::move(txn_or).value();
  ASSERT_TRUE(txn.Put(db_->objects()[kBaseline].ref,
                      db_->objects()[kBaseline].tuple).ok());
  Status flush = store->Flush();
  EXPECT_TRUE(flush.IsFailedPrecondition()) << flush.ToString();
  Status close = store->Close();
  EXPECT_TRUE(close.IsFailedPrecondition()) << close.ToString();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(store->Flush().ok());
}

TEST_P(WalTxnTest, MemBackendTransactionsShareTheSameSemantics) {
  auto store = OpenStore(Options(VolumeKind::kMem));
  ASSERT_NE(store, nullptr);
  for (size_t i = 0; i < kBaseline; ++i) {
    const auto& object = db_->objects()[i];
    ASSERT_TRUE(store->Put(object.ref, object.tuple).ok());
  }
  {
    auto txn_or = store->Begin();
    ASSERT_TRUE(txn_or.ok());
    auto txn = std::move(txn_or).value();
    ASSERT_TRUE(txn.Put(db_->objects()[kBaseline].ref,
                        db_->objects()[kBaseline].tuple).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    auto got = Read(store.get(), kBaseline);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), db_->objects()[kBaseline].tuple);
  }
  {
    auto txn_or = store->Begin();
    ASSERT_TRUE(txn_or.ok());
    auto txn = std::move(txn_or).value();
    if (ByRef()) {
      Tuple replacement = db_->objects()[0].tuple;
      replacement.values[1] = Value::Int32(-42);
      ASSERT_TRUE(txn.Replace(db_->objects()[0].ref, replacement).ok());
    }
    ASSERT_TRUE(txn.Put(db_->objects()[kBaseline + 1].ref,
                        db_->objects()[kBaseline + 1].tuple).ok());
    ASSERT_TRUE(txn.Rollback().ok());
  }
  auto got = Read(store.get(), 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), db_->objects()[0].tuple);
  EXPECT_FALSE(Read(store.get(), kBaseline + 1).ok());
}

// A reader holding an objcache entry while a rollback races by must only
// ever see states that actually existed: the pre-txn tuple or the txn's
// replacement — never torn bytes, and never a post-rollback resurrection
// of the replacement inside a pinned pre-rollback entry's place.
TEST_P(WalTxnTest, RollbackRacesAReaderHoldingAnObjcacheEntry) {
  if (!ByRef()) GTEST_SKIP() << "plain NSM has no by-ref cache";
  StoreOptions options = Options();
  options.buffer_shards = 4;
  options.objcache.enabled = true;
  auto store = OpenStore(options);
  ASSERT_NE(store, nullptr);
  PutBaseline(store.get());
  const auto& target = db_->objects()[1];
  Tuple replacement = target.tuple;
  replacement.values[1] = Value::Int32(-123456);
  const ObjectSerializer serializer(db_->schema());
  const std::string v1_image = serializer.EncodeImage(target.tuple);
  const std::string v2_image = serializer.EncodeImage(replacement);
  ASSERT_TRUE(store->Get(target.ref).ok());  // cache <- v1
  ASSERT_NE(store->object_cache(), nullptr);
  ASSERT_NE(store->object_cache()->Lookup(target.ref), nullptr)
      << "warm Get did not populate the cache";

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hits{0};
  std::thread reader([&] {
    ObjectCache* cache = store->object_cache();
    while (!stop.load(std::memory_order_relaxed)) {
      ObjCacheEntryRef entry = cache->Lookup(target.ref);
      if (entry == nullptr) continue;
      const bool is_v1 = entry->image == v1_image;
      const bool is_v2 = entry->image == v2_image;
      ASSERT_TRUE(is_v1 || is_v2) << "cache served a torn image";
      hits.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Keep the rollback churn going until the reader has demonstrably held
  // entries across it. After each repopulating Get, give the reader a
  // bounded window to observe the fresh entry before the next write
  // invalidates it — for the multi-relation models assembly dominates the
  // round, so an unpaced loop leaves only sliver-sized alive windows.
  const auto await_reader = [&hits](uint64_t before) {
    for (int spin = 0; spin < 1000 && hits.load() == before; ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(10));
    }
  };
  for (int round = 0; round < 50 && hits.load() < 20; ++round) {
    auto txn_or = store->Begin();
    ASSERT_TRUE(txn_or.ok());
    auto txn = std::move(txn_or).value();
    ASSERT_TRUE(txn.Replace(target.ref, replacement).ok());
    uint64_t before = hits.load();
    ASSERT_TRUE(store->Get(target.ref).ok());  // cache <- v2
    await_reader(before);
    ASSERT_TRUE(txn.Rollback().ok());
    before = hits.load();
    ASSERT_TRUE(store->Get(target.ref).ok());  // cache <- v1 again
    await_reader(before);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const auto stats = store->objcache_stats();
  EXPECT_GT(hits.load(), 0u)
      << "reader never saw a cached entry (entries " << stats.entries
      << " hits " << stats.hits << " misses " << stats.misses
      << " inserts " << stats.inserts << " stale_drops " << stats.stale_drops
      << " invalidations " << stats.invalidations << ")";

  auto final_read = store->Get(target.ref);
  ASSERT_TRUE(final_read.ok());
  EXPECT_EQ(final_read.value(), target.tuple);
}

std::string ParamName(
    const ::testing::TestParamInfo<StorageModelKind>& info) {
  std::string name = ToString(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllModels, WalTxnTest,
                         ::testing::ValuesIn(AllStorageModelKinds()),
                         ParamName);

}  // namespace
}  // namespace starfish
