// On-disk format versions: each persistent file has exactly one readable
// version (volume.meta 2, catalog frame 3, wal.log 1). A directory written
// in an older format — or stamped with a newer one — is refused with
// NotSupported before Open writes, renames or removes a single file, and
// sf_fsck reports it as an error naming the version.
//
// Every fixture starts as a real, cleanly closed store whose files are then
// rewritten into the older format. Each also carries an orphan extent file
// beyond the journaled count: volume recovery would delete it, so its
// survival proves the refusal came before recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include "../support/direct_probe.h"
#include "../support/param_name.h"
#include "benchmark/generator.h"
#include "core/complex_object_store.h"
#include "core/generations.h"
#include "disk/volume_meta.h"
#include "tools/fsck.h"
#include "util/coding.h"
#include "util/crc32.h"

namespace starfish {
namespace {

/// File name -> bytes of every regular file in a directory.
using DirImage = std::map<std::string, std::string>;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

DirImage Snapshot(const std::string& dir) {
  DirImage image;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    image[entry.path().filename().string()] = ReadAll(entry.path().string());
  }
  return image;
}

/// Restamps the version field of a catalog frame and recomputes its CRC,
/// so the frame is intact and only its version differs.
void RestampCatalogVersion(const std::string& path, uint32_t version) {
  std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 20u);
  EncodeFixed32(bytes.data() + 4, version);
  bytes.resize(bytes.size() - 4);
  PutFixed32(&bytes, Crc32(bytes));
  WriteAll(path, bytes);
}

class FormatVersionTest : public ::testing::TestWithParam<VolumeKind> {
 protected:
  void SetUp() override {
    if (GetParam() == VolumeKind::kDirect &&
        !test::DirectIoSupportedHere("format_version", kDefaultPageSize)) {
      GTEST_SKIP() << "filesystem rejects O_DIRECT";
    }
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_format_version_" +
             test::ParamName(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
               .string();
    std::filesystem::remove_all(dir_);

    bench::GeneratorConfig config;
    config.n_objects = 12;
    config.seed = 22;
    auto db = bench::BenchmarkDatabase::Generate(config);
    ASSERT_TRUE(db.ok());
    db_ = std::make_unique<bench::BenchmarkDatabase>(std::move(db).value());
  }

  void TearDown() override {
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }

  StoreOptions Options() const {
    StoreOptions options;
    options.model = StorageModelKind::kDasdbsNsm;
    options.backend = GetParam();
    options.path = dir_;
    return options;
  }

  /// A cleanly closed store with two committed generations: the first
  /// half of the objects in the older, all of them in the newer.
  void WriteStore() {
    auto store_or = ComplexObjectStore::Open(db_->schema(), Options());
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    auto store = std::move(store_or).value();
    const auto& objects = db_->objects();
    for (size_t i = 0; i < objects.size(); ++i) {
      ASSERT_TRUE(store->Put(objects[i].ref, objects[i].tuple).ok());
      if (i + 1 == objects.size() / 2) {
        ASSERT_TRUE(store->Flush().ok());
      }
    }
    ASSERT_TRUE(store->Flush().ok());
    ASSERT_TRUE(store->Close().ok());
  }

  uint64_t CurrentGeneration() const {
    bool found = false;
    auto gen = ReadCurrentGeneration(dir_, &found);
    EXPECT_TRUE(gen.ok() && found);
    return gen.ok() ? gen.value() : 0;
  }

  /// Adds an extent file past every journaled one.
  void PlaceOrphanExtent() {
    VolumeMetaReplay replay;
    ASSERT_TRUE(ReplayVolumeMeta(dir_ + "/volume.meta", &replay).ok());
    ASSERT_TRUE(replay.found);
    const uint64_t ppe = std::max<uint64_t>(
        1, replay.state.options.extent_bytes / replay.state.options.page_size);
    const size_t journaled =
        static_cast<size_t>((replay.state.page_count + ppe - 1) / ppe);
    WriteAll(dir_ + "/" + ExtentFileName(journaled + 1), "orphan");
  }

  /// Open refuses with NotSupported and leaves every file as it was; fsck
  /// reports an error naming `version`.
  void ExpectRefused(const std::string& version) {
    const DirImage before = Snapshot(dir_);
    auto store_or = ComplexObjectStore::Open(db_->schema(), Options());
    ASSERT_FALSE(store_or.ok());
    EXPECT_TRUE(store_or.status().IsNotSupported())
        << store_or.status().ToString();
    EXPECT_NE(store_or.status().ToString().find(version), std::string::npos)
        << store_or.status().ToString();
    EXPECT_EQ(Snapshot(dir_), before) << "Open touched the directory";

    auto report_or = RunFsck(dir_);
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    const FsckReport& report = report_or.value();
    EXPECT_FALSE(report.clean()) << report.ToString();
    bool named = false;
    for (const std::string& error : report.errors) {
      named |= error.find(version) != std::string::npos &&
               error.find("not supported") != std::string::npos;
    }
    EXPECT_TRUE(named) << report.ToString();
    EXPECT_EQ(Snapshot(dir_), before) << "fsck touched the directory";
  }

  std::string dir_;
  std::unique_ptr<bench::BenchmarkDatabase> db_;
};

TEST_P(FormatVersionTest, CatalogFrameVersion2IsNotSupported) {
  ASSERT_NO_FATAL_FAILURE(WriteStore());
  RestampCatalogVersion(CatalogGenerationPath(dir_, CurrentGeneration()), 2);
  ASSERT_NO_FATAL_FAILURE(PlaceOrphanExtent());
  ExpectRefused("version 2");
}

TEST_P(FormatVersionTest, PreGenerationCatalogIsNotSupported) {
  ASSERT_NO_FATAL_FAILURE(WriteStore());
  // catalog.sf: magic, version 1, then the payload with no frame around it.
  const std::string frame =
      ReadAll(CatalogGenerationPath(dir_, CurrentGeneration()));
  std::string catalog_sf = frame.substr(0, 4);
  PutFixed32(&catalog_sf, 1);
  catalog_sf += frame.substr(16, frame.size() - 20);
  for (uint64_t gen : ListCatalogGenerations(dir_)) {
    std::filesystem::remove(CatalogGenerationPath(dir_, gen));
  }
  std::filesystem::remove(CurrentPath(dir_));
  WriteAll(dir_ + "/catalog.sf", catalog_sf);
  ASSERT_NO_FATAL_FAILURE(PlaceOrphanExtent());
  ExpectRefused("version 1");
}

TEST_P(FormatVersionTest, VolumeMetaVersion1IsNotSupported) {
  ASSERT_NO_FATAL_FAILURE(WriteStore());
  ASSERT_NO_FATAL_FAILURE(PlaceOrphanExtent());
  // volume.meta v1: one unchecksummed snapshot of the same allocator state.
  VolumeMetaReplay replay;
  ASSERT_TRUE(ReplayVolumeMeta(dir_ + "/volume.meta", &replay).ok());
  std::string meta;
  PutFixed32(&meta, 0x4D564653);  // "SFVM"
  PutFixed32(&meta, 1);
  PutFixed32(&meta, replay.state.options.page_size);
  PutFixed32(&meta, replay.state.options.extent_bytes);
  PutFixed64(&meta, replay.state.page_count);
  std::string bitmap((replay.state.page_count + 7) / 8, '\0');
  for (uint64_t i = 0; i < replay.state.page_count; ++i) {
    if (replay.state.freed[i]) {
      bitmap[i / 8] |= static_cast<char>(1 << (i % 8));
    }
  }
  WriteAll(dir_ + "/volume.meta", meta + bitmap);
  ExpectRefused("version 1");
}

// A newer (or unknown) frame version is not damage: Open must neither fall
// back to the predecessor, nor repoint CURRENT, nor delete the generation
// it cannot read.
TEST_P(FormatVersionTest, CatalogFrameVersion4IsNotFallenBackFrom) {
  ASSERT_NO_FATAL_FAILURE(WriteStore());
  ASSERT_EQ(ListCatalogGenerations(dir_).size(), 2u);
  RestampCatalogVersion(CatalogGenerationPath(dir_, CurrentGeneration()), 4);
  ASSERT_NO_FATAL_FAILURE(PlaceOrphanExtent());
  ExpectRefused("version 4");
}

// The CRC covers the version field: a flipped bit there is damage, and the
// newest generation falls back to its predecessor as for any byte flip.
TEST_P(FormatVersionTest, FlippedVersionBitFallsBackToPredecessor) {
  ASSERT_NO_FATAL_FAILURE(WriteStore());
  const uint64_t newest = CurrentGeneration();
  const std::string path = CatalogGenerationPath(dir_, newest);
  std::string bytes = ReadAll(path);
  bytes[4] ^= 0x04;
  WriteAll(path, bytes);

  auto store_or = ComplexObjectStore::Open(db_->schema(), Options());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto store = std::move(store_or).value();
  EXPECT_TRUE(store->opened_from_fallback());
  EXPECT_LT(store->catalog_generation(), newest);
  EXPECT_EQ(store->model()->object_count(), db_->objects().size() / 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, FormatVersionTest,
                         ::testing::Values(VolumeKind::kMmap,
                                           VolumeKind::kDirect),
                         [](const auto& info) {
                           return std::string(info.param == VolumeKind::kMmap
                                                  ? "mmap"
                                                  : "direct");
                         });

}  // namespace
}  // namespace starfish
