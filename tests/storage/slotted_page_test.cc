#include "storage/slotted_page.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/coding.h"
#include "util/random.h"

namespace starfish {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : data_(kDefaultPageSize, '\0'),
                      page_(data_.data(), kDefaultPageSize) {
    page_.Init(/*segment_id=*/7, PageType::kSlotted);
  }
  std::vector<char> data_;
  SlottedPage page_;
};

TEST_F(SlottedPageTest, InitFormatsHeader) {
  EXPECT_TRUE(page_.IsFormatted());
  EXPECT_EQ(page_.type(), PageType::kSlotted);
  EXPECT_EQ(page_.segment_id(), 7u);
  EXPECT_EQ(page_.slot_count(), 0u);
  EXPECT_EQ(page_.live_count(), 0u);
}

TEST_F(SlottedPageTest, UnformattedPageDetected) {
  std::vector<char> raw(kDefaultPageSize, '\0');
  SlottedPage view(raw.data(), kDefaultPageSize);
  EXPECT_FALSE(view.IsFormatted());
}

TEST_F(SlottedPageTest, InsertReadRoundTrip) {
  auto slot = page_.Insert("hello world");
  ASSERT_TRUE(slot.ok());
  auto rec = page_.Read(slot.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value(), "hello world");
}

TEST_F(SlottedPageTest, MultipleRecordsKeepDistinctSlots) {
  auto a = page_.Insert("aaa");
  auto b = page_.Insert("bbbbbb");
  auto c = page_.Insert("c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(page_.live_count(), 3u);
  EXPECT_EQ(page_.Read(a.value()).value(), "aaa");
  EXPECT_EQ(page_.Read(b.value()).value(), "bbbbbb");
  EXPECT_EQ(page_.Read(c.value()).value(), "c");
}

TEST_F(SlottedPageTest, EmptyRecordAllowed) {
  auto slot = page_.Insert("");
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_.Read(slot.value()).value(), "");
}

TEST_F(SlottedPageTest, ReadInvalidSlotFails) {
  EXPECT_TRUE(page_.Read(0).status().IsNotFound());
  ASSERT_TRUE(page_.Insert("x").ok());
  EXPECT_TRUE(page_.Read(5).status().IsNotFound());
}

// Damaged slot layouts: a read must report Corruption instead of
// returning bytes outside the page (the frame pool is one allocation, so an
// overrun would read a neighbouring frame without a sanitizer report).
class SlottedPageBoundsTest : public SlottedPageTest {
 protected:
  void SetSlotCount(uint16_t n) { EncodeFixed16(data_.data() + 4, n); }
  void SetSlot(uint16_t slot, uint16_t offset, uint16_t length) {
    char* entry = data_.data() + kPageHeaderSize + slot * 4;
    EncodeFixed16(entry, offset);
    EncodeFixed16(entry + 2, length);
  }
};

TEST_F(SlottedPageBoundsTest, RecordEndingAtThePageEndReads) {
  ASSERT_TRUE(page_.Insert("first").ok());
  auto second = page_.Insert("second");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(page_.Read(0).value(), "first");
  EXPECT_EQ(page_.Read(second.value()).value(), "second");
  EXPECT_TRUE(page_.Read(2).status().IsNotFound());
}

TEST_F(SlottedPageBoundsTest, DirectoryEntryOutsideThePageIsCorruption) {
  ASSERT_TRUE(page_.Insert("record").ok());
  SetSlotCount(0xFFFF);
  // Slot 600's entry would sit at byte 36 + 2400, past the 2048-byte page.
  EXPECT_TRUE(page_.Read(600).status().IsCorruption());
  EXPECT_TRUE(page_.Read(0).status().IsCorruption());
  EXPECT_TRUE(page_.Update(600, "x").IsCorruption());
  EXPECT_TRUE(page_.Delete(600).IsCorruption());
}

TEST_F(SlottedPageBoundsTest, OffsetInsideHeaderOrDirectoryIsCorruption) {
  ASSERT_TRUE(page_.Insert("aaaa").ok());
  ASSERT_TRUE(page_.Insert("bbbb").ok());
  SetSlot(0, 10, 4);  // inside the page header
  EXPECT_TRUE(page_.Read(0).status().IsCorruption());
  SetSlot(0, kPageHeaderSize + 4, 4);  // slot 1's directory entry
  EXPECT_TRUE(page_.Read(0).status().IsCorruption());
  EXPECT_EQ(page_.Read(1).value(), "bbbb");
}

TEST_F(SlottedPageBoundsTest, RecordPastThePageEndIsCorruption) {
  ASSERT_TRUE(page_.Insert("record").ok());
  SetSlot(0, 0xFFF0, 6);
  EXPECT_TRUE(page_.Read(0).status().IsCorruption());
  SetSlot(0, kDefaultPageSize - 4, 6);  // starts inside, ends 2 bytes out
  EXPECT_TRUE(page_.Read(0).status().IsCorruption());
  EXPECT_TRUE(page_.Update(0, "other").IsCorruption());
  SetSlot(0, kDefaultPageSize - 6, 6);  // the original layout reads again
  EXPECT_EQ(page_.Read(0).value(), "record");
}

TEST_F(SlottedPageTest, FreeSpaceShrinksWithInserts) {
  const uint32_t before = page_.FreeSpaceForNewRecord();
  ASSERT_TRUE(page_.Insert(std::string(100, 'x')).ok());
  const uint32_t after = page_.FreeSpaceForNewRecord();
  EXPECT_EQ(before - after, 100u + 4u);  // record + slot entry
}

TEST_F(SlottedPageTest, FillUntilFull) {
  const std::string record(100, 'r');
  int inserted = 0;
  while (true) {
    auto slot = page_.Insert(record);
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsResourceExhausted());
      break;
    }
    ++inserted;
  }
  // usable = 2048 - 36 = 2012; per record 104 -> 19 records.
  EXPECT_EQ(inserted, 19);
  EXPECT_LT(page_.FreeSpaceForNewRecord(), 100u);
}

TEST_F(SlottedPageTest, OversizedRecordRejectedUpfront) {
  const std::string record(kDefaultPageSize, 'x');
  EXPECT_TRUE(page_.Insert(record).status().IsInvalidArgument());
}

TEST_F(SlottedPageTest, MaxRecordSizeFitsExactly) {
  const std::string record(SlottedPage::MaxRecordSize(kDefaultPageSize), 'm');
  auto slot = page_.Insert(record);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_.Read(slot.value()).value(), record);
  EXPECT_EQ(page_.FreeSpaceForNewRecord(), 0u);
}

TEST_F(SlottedPageTest, DeleteFreesSpaceAndSlot) {
  auto a = page_.Insert(std::string(200, 'a'));
  auto b = page_.Insert(std::string(300, 'b'));
  ASSERT_TRUE(a.ok() && b.ok());
  const uint32_t before = page_.FreeSpaceForNewRecord();
  ASSERT_TRUE(page_.Delete(a.value()).ok());
  EXPECT_GT(page_.FreeSpaceForNewRecord(), before);
  EXPECT_TRUE(page_.Read(a.value()).status().IsNotFound());
  // b survives compaction.
  EXPECT_EQ(page_.Read(b.value()).value(), std::string(300, 'b'));
}

TEST_F(SlottedPageTest, DeletedSlotIsReused) {
  auto a = page_.Insert("first");
  auto b = page_.Insert("second");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(page_.Delete(a.value()).ok());
  auto c = page_.Insert("third");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());  // slot reuse
  EXPECT_EQ(page_.Read(b.value()).value(), "second");
}

TEST_F(SlottedPageTest, DeleteLastSlotShrinksDirectory) {
  auto a = page_.Insert("a");
  auto b = page_.Insert("b");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(page_.Delete(b.value()).ok());
  EXPECT_EQ(page_.slot_count(), 1u);
}

TEST_F(SlottedPageTest, UpdateSameSizeInPlace) {
  auto slot = page_.Insert("0123456789");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page_.Update(slot.value(), "abcdefghij").ok());
  EXPECT_EQ(page_.Read(slot.value()).value(), "abcdefghij");
}

TEST_F(SlottedPageTest, UpdateGrowAndShrink) {
  auto a = page_.Insert("short");
  auto b = page_.Insert("neighbour");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(page_.Update(a.value(), std::string(500, 'G')).ok());
  EXPECT_EQ(page_.Read(a.value()).value(), std::string(500, 'G'));
  ASSERT_TRUE(page_.Update(a.value(), "tiny").ok());
  EXPECT_EQ(page_.Read(a.value()).value(), "tiny");
  EXPECT_EQ(page_.Read(b.value()).value(), "neighbour");
}

TEST_F(SlottedPageTest, UpdateThatCannotFitIsNonDestructive) {
  const std::string big(SlottedPage::MaxRecordSize(kDefaultPageSize) - 200, 'x');
  auto a = page_.Insert(big);
  auto b = page_.Insert(std::string(100, 'y'));
  ASSERT_TRUE(a.ok() && b.ok());
  // Growing b beyond the remaining space fails; both records are intact.
  auto st = page_.Update(b.value(), std::string(600, 'z'));
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_EQ(page_.Read(b.value()).value(), std::string(100, 'y'));
  EXPECT_EQ(page_.Read(a.value()).value(), big);
}

TEST_F(SlottedPageTest, RandomizedOpsAgainstReferenceModel) {
  Rng rng(2024);
  std::map<uint16_t, std::string> reference;
  for (int op = 0; op < 2000; ++op) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 50) {
      const std::string rec = rng.RandomString(rng.Uniform(120) + 1);
      auto slot = page_.Insert(rec);
      if (slot.ok()) reference[slot.value()] = rec;
    } else if (dice < 75 && !reference.empty()) {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      ASSERT_TRUE(page_.Delete(it->first).ok());
      reference.erase(it);
    } else if (!reference.empty()) {
      auto it = reference.begin();
      std::advance(it, rng.Uniform(reference.size()));
      const std::string rec = rng.RandomString(rng.Uniform(150) + 1);
      Status st = page_.Update(it->first, rec);
      if (st.ok()) {
        it->second = rec;  // failed grows are non-destructive
      }
    }
    // Invariant: every reference record is readable and correct.
    for (const auto& [slot, rec] : reference) {
      auto got = page_.Read(slot);
      ASSERT_TRUE(got.ok()) << "op " << op << " slot " << slot;
      ASSERT_EQ(got.value(), rec) << "op " << op;
    }
    ASSERT_EQ(page_.live_count(), reference.size());
  }
}

}  // namespace
}  // namespace starfish
