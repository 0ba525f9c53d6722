// sf_fsck library behaviour over directories in known states: clean
// stores, crash artifacts (warnings), and real inconsistencies (errors).
// End-to-end crash coverage (every fault point -> recovery -> fsck clean)
// lives in tests/integration/crash_matrix_test.cc.

#include "tools/fsck.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/complex_object_store.h"
#include "core/generations.h"
#include "nf2/schema.h"
#include "nf2/value.h"

namespace starfish {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("starfish_fsck_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// A small committed store: 10 objects, one checkpoint.
  void BuildStore() {
    auto item = SchemaBuilder("Item").AddInt32("N").AddString("S").Build();
    auto schema = SchemaBuilder("Obj")
                      .AddInt32("Id")
                      .AddString("Name")
                      .AddRelation("Items", item)
                      .Build();
    StoreOptions options;
    options.backend = VolumeKind::kMmap;
    options.path = dir_;
    auto store = ComplexObjectStore::Open(schema, options).value();
    for (int i = 0; i < 10; ++i) {
      Tuple obj{{Value::Int32(i), Value::Str("obj-" + std::to_string(i)),
                 Value::Relation({
                     Tuple{{Value::Int32(i), Value::Str("a")}},
                     Tuple{{Value::Int32(i + 100), Value::Str("b")}},
                 })}};
      ASSERT_TRUE(store->Put(i, obj).ok());
    }
    ASSERT_TRUE(store->Flush().ok());
  }

  FsckReport Run() {
    auto report_or = RunFsck(dir_);
    EXPECT_TRUE(report_or.ok()) << report_or.status().ToString();
    return report_or.ok() ? report_or.value() : FsckReport{};
  }

  std::string dir_;
};

TEST_F(FsckTest, CleanStoreReportsZeroInconsistencies) {
  BuildStore();
  const FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_TRUE(report.warnings.empty()) << report.ToString();
  EXPECT_TRUE(report.volume_found);
  EXPECT_TRUE(report.catalog_found);
  EXPECT_EQ(report.generation, 1u);
  EXPECT_GT(report.segment_count, 0u);
  EXPECT_GT(report.referenced_pages, 0u);
  EXPECT_EQ(report.orphan_pages, 0u);
  EXPECT_EQ(report.referenced_pages, report.live_pages);
}

TEST_F(FsckTest, EmptyDirectoryIsCleanAndBareVolumeIsClean) {
  std::filesystem::create_directories(dir_);
  FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_FALSE(report.volume_found);
  EXPECT_FALSE(report.catalog_found);
  // Not a directory at all -> hard error, not a report.
  EXPECT_FALSE(RunFsck(dir_ + "_nonexistent").ok());
}

TEST_F(FsckTest, UncommittedGenerationAndOrphanExtentAreWarnings) {
  BuildStore();
  // Crash artifacts: a generation newer than CURRENT and an extent file
  // beyond the durable page count.
  {
    std::FILE* f =
        std::fopen(CatalogGenerationPath(dir_, 9).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("uncommitted", f);
    std::fclose(f);
  }
  {
    std::FILE* f = std::fopen((dir_ + "/extent_000099").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("stale", f);
    std::fclose(f);
  }
  const FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();  // artifacts, not damage
  EXPECT_EQ(report.warnings.size(), 2u) << report.ToString();
}

TEST_F(FsckTest, CorruptCurrentIsAnError) {
  BuildStore();
  std::FILE* f = std::fopen(CurrentPath(dir_).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not-a-catalog-name\n", f);
  std::fclose(f);
  const FsckReport report = Run();
  EXPECT_FALSE(report.clean());
}

TEST_F(FsckTest, MissingVolumeMetaFailsTheCatalogChecks) {
  BuildStore();
  std::filesystem::remove(dir_ + "/volume.meta");
  const FsckReport report = Run();
  EXPECT_FALSE(report.volume_found);
  EXPECT_FALSE(report.clean()) << report.ToString();
}

TEST_F(FsckTest, UnreplayableVolumeMetaIsOneErrorNotOnePerPage) {
  BuildStore();
  // Restamp volume.meta's version field (after the 4-byte magic) to 1.
  std::FILE* f = std::fopen((dir_ + "/volume.meta").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);
  const unsigned char version1[4] = {1, 0, 0, 0};
  std::fwrite(version1, 1, sizeof(version1), f);
  std::fclose(f);
  auto report_or = RunFsck(dir_, FsckOptions{/*verbose=*/true});
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  const FsckReport& report = report_or.value();
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.volume_found);
  EXPECT_TRUE(report.volume_replay_failed);
  EXPECT_TRUE(report.catalog_found) << report.ToString();
  ASSERT_EQ(report.errors.size(), 1u) << report.ToString();
  EXPECT_NE(report.errors[0].find("version 1"), std::string::npos)
      << report.ToString();
  EXPECT_EQ(report.ToString().find("beyond the volume"), std::string::npos)
      << report.ToString();
  EXPECT_EQ(report.ToString().find("no volume.meta"), std::string::npos)
      << report.ToString();
  bool says_skipped = false;
  for (const std::string& line : report.info) {
    if (line.find("not checked against the allocator") != std::string::npos) {
      says_skipped = true;
    }
  }
  EXPECT_TRUE(says_skipped) << report.ToString();
}

TEST_F(FsckTest, TamperedPageHeaderIsAnError) {
  BuildStore();
  // Flip the segment-id field (byte 8) of page 0's header in place.
  std::FILE* f = std::fopen((dir_ + "/extent_000000").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 8, SEEK_SET);
  const int original = std::fgetc(f);
  std::fseek(f, 8, SEEK_SET);
  std::fputc(original ^ 0x7F, f);
  std::fclose(f);
  const FsckReport report = Run();
  EXPECT_FALSE(report.clean());
  bool mentions_header = false;
  for (const std::string& error : report.errors) {
    if (error.find("header") != std::string::npos) mentions_header = true;
  }
  EXPECT_TRUE(mentions_header) << report.ToString();
}

TEST_F(FsckTest, GarbageJournalTailIsAWarningNotAnError) {
  BuildStore();
  // A torn append: garbage after the last valid record.
  std::FILE* f = std::fopen((dir_ + "/volume.meta").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("torn-append-gar", f);
  std::fclose(f);
  const FsckReport report = Run();
  EXPECT_TRUE(report.clean()) << report.ToString();
  EXPECT_FALSE(report.warnings.empty()) << report.ToString();
}

}  // namespace
}  // namespace starfish
