// The store's by-ref read path: a Get of a DASDBS-NSM object reads the
// first page of every relation tuple it needs in ONE chained I/O call
// (StorageModel::CollectReadPages + BufferManager::Prefetch(kChained)),
// while model-level GetByRef — what the paper benches drive — keeps one
// call per relation. Locked here: the I/O shape per backend and cache
// setting, failure hygiene when the chained call fails, and the page set
// the object cache records for an entry assembled this way.

#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/complex_object_store.h"
#include "disk/fault_volume.h"
#include "../support/direct_probe.h"
#include "../support/param_name.h"
#include "workload/scenario.h"

namespace starfish {
namespace {

constexpr ObjectRef kObjects = 48;
constexpr PathId kItemsPath = 1;
constexpr PathId kNotesPath = 2;

bool DirectSupportedHere() {
  static const bool supported =
      test::DirectIoSupportedHere("readpath", kDefaultPageSize);
  return supported;
}

using ReadPathParam = std::tuple<VolumeKind, bool>;  // backend, objcache

class ReadPathPrefetchTest : public ::testing::TestWithParam<ReadPathParam> {
 protected:
  VolumeKind Backend() const { return std::get<0>(GetParam()); }
  bool Cached() const { return std::get<1>(GetParam()); }

  void SetUp() override {
    if (Backend() == VolumeKind::kDirect && !DirectSupportedHere()) {
      GTEST_SKIP() << "filesystem has no O_DIRECT support";
    }
    schema_ = workload::MakeWorkloadSchema();
    ASSERT_EQ(schema_->path_count(), 3u) << "root, Items, Notes";
    const std::string test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_readpath_" + test_name + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    for (ObjectRef ref = 0; ref < kObjects; ++ref) {
      // Small objects: every relation tuple fits one page, so an object is
      // exactly three pages, one per relation segment.
      oracle_.push_back(workload::MakeWorkloadObject(
          *schema_, ref, /*payload_seed=*/ref * 7 + 1, /*fanout=*/2,
          kObjects, /*string_bytes=*/24));
    }
    store_ = OpenLoaded(StorageModelKind::kDasdbsNsm, "nsm");
  }

  void TearDown() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Opens a store of `model` over this test's backend and cache setting
  /// (in its own subdirectory `name`) and loads the oracle objects.
  std::unique_ptr<ComplexObjectStore> OpenLoaded(
      StorageModelKind model, const std::string& name,
      FaultVolume** fault = nullptr) {
    StoreOptions options;
    options.model = model;
    options.backend = Backend();
    if (Backend() != VolumeKind::kMem) options.path = dir_ + "/" + name;
    options.buffer_frames = 64;
    options.objcache.enabled = Cached();
    if (fault != nullptr) {
      options.volume_decorator =
          [fault](std::unique_ptr<Volume> inner) -> std::unique_ptr<Volume> {
        auto wrapped = std::make_unique<FaultVolume>(std::move(inner));
        *fault = wrapped.get();
        return wrapped;
      };
    }
    auto store_or = ComplexObjectStore::Open(schema_, options);
    EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
    if (!store_or.ok()) return nullptr;
    auto store = std::move(store_or).value();
    for (ObjectRef ref = 0; ref < kObjects; ++ref) {
      const Status put = store->Put(ref, oracle_[ref]);
      EXPECT_TRUE(put.ok()) << put.ToString();
    }
    return store;
  }

  /// Empties the buffer pool and the object cache and zeroes the counters:
  /// the next read starts cold.
  static void Cold(ComplexObjectStore* store) {
    const Status dropped = store->engine()->DropCache();
    ASSERT_TRUE(dropped.ok()) << dropped.ToString();
    store->InvalidateObjectCache();
    store->ResetStats();
  }

  std::vector<PageId> PagesOf(ObjectRef ref, const Projection& proj) {
    std::vector<PageId> pages;
    store_->model()->CollectReadPages(ref, proj, &pages);
    return pages;
  }

  std::shared_ptr<const Schema> schema_;
  std::string dir_;
  std::vector<Tuple> oracle_;
  std::unique_ptr<ComplexObjectStore> store_;
};

TEST_P(ReadPathPrefetchTest, ColdGetIsOneChainedCallOverTheSamePages) {
  ASSERT_NE(store_, nullptr);
  const Projection all = Projection::All(*schema_);
  for (ObjectRef ref : {ObjectRef{0}, ObjectRef{17}, kObjects - 1}) {
    const std::vector<PageId> pages = PagesOf(ref, all);
    ASSERT_EQ(pages.size(), 3u);
    std::vector<PageId> distinct = pages;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ASSERT_EQ(distinct.size(), 3u) << "one page per relation segment";

    Cold(store_.get());
    auto got = store_->Get(ref);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), oracle_[ref]);
    const EngineStats chained = store_->stats();
    EXPECT_EQ(chained.io.read_calls, 1u) << "ref " << ref;
    EXPECT_EQ(chained.io.pages_read, 3u) << "ref " << ref;
    EXPECT_EQ(chained.buffer.prefetched_pages, 3u);
    EXPECT_EQ(chained.buffer.misses, 0u) << "assembly fixes must all hit";

    // The model-level read of the same object on the same store moves the
    // same pages, one call per relation: the 1993 call pattern.
    Cold(store_.get());
    auto direct = store_->model()->GetByRef(ref, all);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(direct.value(), oracle_[ref]);
    const EngineStats per_relation = store_->stats();
    EXPECT_EQ(per_relation.io.pages_read, chained.io.pages_read);
    EXPECT_EQ(per_relation.io.read_calls, 3u);
    EXPECT_EQ(per_relation.buffer.prefetched_pages, 0u);
  }
}

TEST_P(ReadPathPrefetchTest, ProjectedGetPrefetchesOnlyProjectedPaths) {
  ASSERT_NE(store_, nullptr);
  auto proj_or = Projection::OfPaths(*schema_, {kRootPath, kItemsPath});
  ASSERT_TRUE(proj_or.ok());
  const Projection proj = proj_or.value();
  const ObjectRef ref = 5;
  const std::vector<PageId> projected = PagesOf(ref, proj);
  const std::vector<PageId> all = PagesOf(ref, Projection::All(*schema_));
  ASSERT_EQ(projected.size(), 2u);
  ASSERT_EQ(all.size(), 3u);
  const PageId notes_page = all[kNotesPath];

  Cold(store_.get());
  auto expected = store_->model()->GetByRef(ref, proj);
  ASSERT_TRUE(expected.ok());
  Cold(store_.get());
  auto got = store_->Get(ref, proj);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), expected.value());
  const EngineStats stats = store_->stats();
  EXPECT_EQ(stats.io.read_calls, 1u);
  if (Cached()) {
    // A cache miss assembles the FULL object (one miss serves every later
    // projection), so all three relations come in the one call.
    EXPECT_EQ(stats.io.pages_read, 3u);
    EXPECT_EQ(stats.buffer.prefetched_pages, 3u);
  } else {
    EXPECT_EQ(stats.io.pages_read, 2u);
    EXPECT_EQ(stats.buffer.prefetched_pages, 2u);
    EXPECT_FALSE(store_->engine()->buffer()->IsCached(notes_page))
        << "an unprojected relation was read";
  }
}

TEST_P(ReadPathPrefetchTest, ChildrenAndRootRecordStillCostOneCall) {
  ASSERT_NE(store_, nullptr);
  const ObjectRef ref = 9;
  Cold(store_.get());
  auto expected_children = store_->model()->GetChildRefs(ref);
  ASSERT_TRUE(expected_children.ok());
  Cold(store_.get());
  auto expected_root = store_->model()->GetRootRecord(ref);
  ASSERT_TRUE(expected_root.ok());

  Cold(store_.get());
  auto children = store_->Children(ref);
  ASSERT_TRUE(children.ok()) << children.status().ToString();
  EXPECT_EQ(children.value(), expected_children.value());
  EXPECT_EQ(store_->stats().io.read_calls, 1u);
  EXPECT_EQ(store_->stats().buffer.prefetched_pages, 0u);

  Cold(store_.get());
  auto root = store_->RootRecord(ref);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root.value(), expected_root.value());
  EXPECT_EQ(store_->stats().io.read_calls, 1u);
  EXPECT_EQ(store_->stats().buffer.prefetched_pages, 0u);
}

TEST_P(ReadPathPrefetchTest, AbsentRefIsNotFoundAfterZeroReadCalls) {
  ASSERT_NE(store_, nullptr);
  const ObjectRef never_stored = kObjects + 100;
  EXPECT_TRUE(PagesOf(never_stored, Projection::All(*schema_)).empty());
  Cold(store_.get());
  auto got = store_->Get(never_stored);
  EXPECT_TRUE(got.status().IsNotFound()) << got.status().ToString();
  EXPECT_EQ(store_->stats().io.read_calls, 0u);

  // A removed ref: in range of the model's ref map, gone from its
  // transformation table.
  const ObjectRef removed = 3;
  ASSERT_TRUE(store_->Remove(removed).ok());
  EXPECT_TRUE(PagesOf(removed, Projection::All(*schema_)).empty());
  Cold(store_.get());
  auto gone = store_->Get(removed);
  EXPECT_TRUE(gone.status().IsNotFound()) << gone.status().ToString();
  EXPECT_EQ(gone.status().ToString(),
            Status::NotFound("no object with ref 3").ToString());
  EXPECT_EQ(store_->stats().io.read_calls, 0u);
}

TEST_P(ReadPathPrefetchTest, OtherModelsKeepTheirCallCounts) {
  ASSERT_NE(store_, nullptr);
  const Projection all = Projection::All(*schema_);
  for (StorageModelKind kind :
       {StorageModelKind::kNsm, StorageModelKind::kNsmIndexed,
        StorageModelKind::kDsm, StorageModelKind::kDasdbsDsm}) {
    SCOPED_TRACE(ToString(kind));
    auto store = OpenLoaded(kind, test::ParamName(ToString(kind)));
    ASSERT_NE(store, nullptr);
    for (ObjectRef ref : {ObjectRef{1}, ObjectRef{30}}) {
      std::vector<PageId> pages;
      store->model()->CollectReadPages(ref, all, &pages);
      EXPECT_TRUE(pages.empty());

      Cold(store.get());
      auto via_store = store->Get(ref);
      const IoStats store_io = store->stats().io;
      EXPECT_EQ(store->stats().buffer.prefetched_pages, 0u);
      Cold(store.get());
      auto via_model = store->model()->GetByRef(ref, all);
      const IoStats model_io = store->stats().io;

      ASSERT_EQ(via_store.ok(), via_model.ok());
      if (via_store.ok()) {
        EXPECT_EQ(via_store.value(), oracle_[ref]);
      } else {
        EXPECT_EQ(via_store.status().code(), via_model.status().code());
      }
      EXPECT_EQ(store_io.read_calls, model_io.read_calls);
      EXPECT_EQ(store_io.pages_read, model_io.pages_read);
    }
  }
}

TEST_P(ReadPathPrefetchTest, FailedChainedReadLeavesNothingBehind) {
  ASSERT_NE(store_, nullptr);
  FaultVolume* fault = nullptr;
  auto store = OpenLoaded(StorageModelKind::kDasdbsNsm, "faulty", &fault);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(fault, nullptr);
  const ObjectRef ref = 11;

  Cold(store.get());
  fault->ResetFaultCounters();
  FaultPlan plan;
  plan.fail_read_call = 1;  // the Get's first read call: the chained one
  fault->SetPlan(plan);
  auto failed = store->Get(ref);
  EXPECT_EQ(fault->faults_fired(), 1u);
  EXPECT_EQ(fault->read_calls_seen(), 1u) << "the Get went on reading";
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  // No pinned frame: DropCache refuses while any page is pinned.
  const Status dropped = store->engine()->DropCache();
  EXPECT_TRUE(dropped.ok()) << dropped.ToString();
  // Neither an assembly nor a not-found verdict was published.
  const ObjCacheStats cache = store->objcache_stats();
  EXPECT_EQ(cache.entries, 0u);
  EXPECT_EQ(cache.inserts, 0u);
  EXPECT_EQ(cache.negative_entries, 0u);
  EXPECT_EQ(cache.negative_inserts, 0u);

  fault->ClearPlan();
  store->ResetStats();
  auto retried = store->Get(ref);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value(), oracle_[ref]);
  EXPECT_EQ(store->stats().io.read_calls, 1u);
}

TEST_P(ReadPathPrefetchTest, CachedEntryRecordsEveryPrefetchedPage) {
  ASSERT_NE(store_, nullptr);
  if (!Cached()) GTEST_SKIP() << "object cache disabled";
  ObjectCache* cache = store_->object_cache();
  ASSERT_NE(cache, nullptr);
  const Projection all = Projection::All(*schema_);
  const ObjectRef ref = 20;

  // The page set a capture records around the model-level read (no
  // prefetch) — what an entry recorded before reads were chained.
  std::vector<PageId> unchained;
  Cold(store_.get());
  {
    BufferManager::ThreadReadCaptureScope capture(&unchained);
    ASSERT_TRUE(store_->model()->GetByRef(ref, all).ok());
  }
  std::sort(unchained.begin(), unchained.end());
  unchained.erase(std::unique(unchained.begin(), unchained.end()),
                  unchained.end());
  std::vector<PageId> named = PagesOf(ref, all);
  std::sort(named.begin(), named.end());
  EXPECT_EQ(unchained, named);

  // Cold and warm assemblies through the store record that same set.
  for (bool cold : {true, false}) {
    if (cold) {
      Cold(store_.get());
    } else {
      store_->InvalidateObjectCache();
    }
    ASSERT_TRUE(store_->Get(ref).ok());
    ObjCacheEntryRef entry = cache->Lookup(ref);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->pages, unchained) << (cold ? "cold" : "warm");
  }

  // Invalidating any one of the three pages drops the entry.
  for (PageId page : named) {
    ASSERT_TRUE(store_->Get(ref).ok());
    ASSERT_NE(cache->Lookup(ref), nullptr);
    cache->InvalidatePages({page});
    EXPECT_EQ(cache->Lookup(ref), nullptr) << "page " << page;
  }

  // Through the write path: an op on ANOTHER object that dirties one of
  // this object's pages invalidates it (ref-based invalidation cannot
  // explain the drop). UpdateRootRecord dirties only the root page;
  // ReplaceObject dirties the neighbour's relation pages.
  auto find_sharing = [&](PathId path) -> ObjectRef {
    const PageId page = PagesOf(ref, all)[path];
    for (ObjectRef other = 0; other < kObjects; ++other) {
      if (other != ref && PagesOf(other, all)[path] == page) return other;
    }
    return ref;
  };
  const ObjectRef root_neighbour = find_sharing(kRootPath);
  ASSERT_NE(root_neighbour, ref) << "no object shares the root page";
  ASSERT_TRUE(store_->Get(ref).ok());
  Tuple new_root = oracle_[root_neighbour];
  new_root.values[1] = Value::Int32(4242);
  ASSERT_TRUE(store_->UpdateRootRecord(root_neighbour, new_root).ok());
  EXPECT_EQ(cache->Lookup(ref), nullptr)
      << "root-page write left the entry cached";

  const ObjectRef notes_neighbour = find_sharing(kNotesPath);
  ASSERT_NE(notes_neighbour, ref) << "no object shares the Notes page";
  ASSERT_TRUE(store_->Get(ref).ok());
  ASSERT_NE(cache->Lookup(ref), nullptr);
  const Tuple replacement = workload::MakeWorkloadObject(
      *schema_, notes_neighbour, /*payload_seed=*/999, /*fanout=*/2,
      kObjects, /*string_bytes=*/24);
  ASSERT_TRUE(store_->Replace(notes_neighbour, replacement).ok());
  EXPECT_EQ(cache->Lookup(ref), nullptr)
      << "relation-page write left the entry cached";

  // The object itself is untouched and reads back byte-equal.
  auto again = store_->Get(ref);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), oracle_[ref]);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReadPathPrefetchTest,
    ::testing::Combine(::testing::Values(VolumeKind::kMem, VolumeKind::kMmap,
                                         VolumeKind::kDirect),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ReadPathParam>& info) {
      return ToString(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_objcache" : "_plain");
    });

}  // namespace
}  // namespace starfish
