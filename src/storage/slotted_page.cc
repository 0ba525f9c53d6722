#include "storage/slotted_page.h"

#include <cstring>
#include <string>

#include "util/coding.h"

namespace starfish {

namespace {

// Page header field offsets (within the 36-byte header).
constexpr uint32_t kMagicOff = 0;        // u16
constexpr uint32_t kTypeOff = 2;         // u16
constexpr uint32_t kSlotCountOff = 4;    // u16
constexpr uint32_t kHeapStartOff = 6;    // u16
constexpr uint32_t kSegmentIdOff = 8;    // u32
constexpr uint32_t kLsnOff = 12;         // u64 (reserved for a WAL extension)
// Bytes [20, 36) reserved.

constexpr uint16_t kMagic = 0xDA5D;

constexpr uint32_t kSlotEntrySize = 4;  // u16 offset + u16 length

}  // namespace

void SlottedPage::Init(uint32_t segment_id, PageType type) {
  std::memset(data_, 0, page_size_);
  EncodeFixed16(data_ + kMagicOff, kMagic);
  EncodeFixed16(data_ + kTypeOff, static_cast<uint16_t>(type));
  EncodeFixed16(data_ + kSlotCountOff, 0);
  EncodeFixed16(data_ + kHeapStartOff, static_cast<uint16_t>(page_size_));
  EncodeFixed32(data_ + kSegmentIdOff, segment_id);
  EncodeFixed64(data_ + kLsnOff, 0);
}

bool SlottedPage::IsFormatted() const {
  return DecodeFixed16(data_ + kMagicOff) == kMagic;
}

PageType SlottedPage::type() const {
  return static_cast<PageType>(DecodeFixed16(data_ + kTypeOff));
}

uint32_t SlottedPage::segment_id() const {
  return DecodeFixed32(data_ + kSegmentIdOff);
}

uint16_t SlottedPage::slot_count() const {
  return DecodeFixed16(data_ + kSlotCountOff);
}

uint16_t SlottedPage::live_count() const {
  uint16_t live = 0;
  const uint16_t n = slot_count();
  for (uint16_t s = 0; s < n; ++s) {
    if (slot_offset(s) != 0) ++live;
  }
  return live;
}

uint16_t SlottedPage::heap_start() const {
  return DecodeFixed16(data_ + kHeapStartOff);
}

void SlottedPage::set_heap_start(uint16_t value) {
  EncodeFixed16(data_ + kHeapStartOff, value);
}

void SlottedPage::set_slot_count(uint16_t value) {
  EncodeFixed16(data_ + kSlotCountOff, value);
}

uint16_t SlottedPage::slot_offset(uint16_t slot) const {
  return DecodeFixed16(data_ + kPageHeaderSize + slot * kSlotEntrySize);
}

uint16_t SlottedPage::slot_length(uint16_t slot) const {
  return DecodeFixed16(data_ + kPageHeaderSize + slot * kSlotEntrySize + 2);
}

void SlottedPage::set_slot(uint16_t slot, uint16_t offset, uint16_t length) {
  EncodeFixed16(data_ + kPageHeaderSize + slot * kSlotEntrySize, offset);
  EncodeFixed16(data_ + kPageHeaderSize + slot * kSlotEntrySize + 2, length);
}

uint32_t SlottedPage::FreeSpaceForNewRecord() const {
  const uint32_t dir_end = kPageHeaderSize + slot_count() * kSlotEntrySize;
  const uint32_t gap = heap_start() - dir_end;
  // A free slot can be reused; otherwise a new directory entry is needed.
  const uint16_t n = slot_count();
  for (uint16_t s = 0; s < n; ++s) {
    if (slot_offset(s) == 0) return gap;
  }
  return gap >= kSlotEntrySize ? gap - kSlotEntrySize : 0;
}

uint32_t SlottedPage::MaxRecordSize(uint32_t page_size) {
  return page_size - kPageHeaderSize - kSlotEntrySize;
}

Result<uint16_t> SlottedPage::Insert(std::string_view record) {
  if (record.size() > MaxRecordSize(page_size_)) {
    return Status::InvalidArgument("record of " +
                                   std::to_string(record.size()) +
                                   " bytes cannot fit any slotted page");
  }
  if (record.size() > FreeSpaceForNewRecord()) {
    return Status::ResourceExhausted("page full");
  }
  // Reuse a free slot if available.
  uint16_t slot = slot_count();
  const uint16_t n = slot_count();
  for (uint16_t s = 0; s < n; ++s) {
    if (slot_offset(s) == 0) {
      slot = s;
      break;
    }
  }
  if (slot == slot_count()) set_slot_count(slot_count() + 1);

  const uint16_t new_heap = static_cast<uint16_t>(heap_start() - record.size());
  std::memcpy(data_ + new_heap, record.data(), record.size());
  set_heap_start(new_heap);
  set_slot(slot, new_heap, static_cast<uint16_t>(record.size()));
  return slot;
}

Status SlottedPage::CheckLiveSlot(uint16_t slot) const {
  // A damaged page must not send a reader outside its frame: the directory
  // lies inside the page, and a live record between it and the page end.
  const uint16_t n = slot_count();
  const uint32_t dir_end = kPageHeaderSize + n * kSlotEntrySize;
  if (dir_end > page_size_) {
    return Status::Corruption("slot directory of " + std::to_string(n) +
                              " entries overruns the page");
  }
  if (slot >= n || slot_offset(slot) == 0) {
    return Status::NotFound("no record in slot " + std::to_string(slot));
  }
  const uint16_t offset = slot_offset(slot);
  if (offset < dir_end || offset + slot_length(slot) > page_size_) {
    return Status::Corruption("slot " + std::to_string(slot) +
                              " points outside the record heap");
  }
  return Status::OK();
}

Result<std::string_view> SlottedPage::Read(uint16_t slot) const {
  STARFISH_RETURN_NOT_OK(CheckLiveSlot(slot));
  return std::string_view(data_ + slot_offset(slot), slot_length(slot));
}

void SlottedPage::EraseFromHeap(uint16_t offset, uint16_t length) {
  const uint16_t old_heap = heap_start();
  // Shift everything in [old_heap, offset) up by `length`.
  std::memmove(data_ + old_heap + length, data_ + old_heap, offset - old_heap);
  set_heap_start(old_heap + length);
  // Fix slots whose records moved (those with offset < erased offset).
  const uint16_t n = slot_count();
  for (uint16_t s = 0; s < n; ++s) {
    const uint16_t off = slot_offset(s);
    if (off != 0 && off < offset) {
      set_slot(s, off + length, slot_length(s));
    }
  }
}

Status SlottedPage::Update(uint16_t slot, std::string_view record) {
  STARFISH_RETURN_NOT_OK(CheckLiveSlot(slot));
  const uint16_t old_off = slot_offset(slot);
  const uint16_t old_len = slot_length(slot);
  if (record.size() == old_len) {
    std::memcpy(data_ + old_off, record.data(), record.size());
    return Status::OK();
  }
  // Fit check BEFORE mutating: a failed update leaves the page untouched
  // (callers rely on this to fall back to record relocation).
  const uint32_t dir_end = kPageHeaderSize + slot_count() * kSlotEntrySize;
  const uint32_t gap = heap_start() - dir_end;
  if (record.size() > gap + old_len) {
    return Status::ResourceExhausted("updated record does not fit page");
  }
  // Delete + reinsert into the same slot (eager compaction keeps the gap
  // contiguous, so the fit check above is exact).
  set_slot(slot, 0, 0);
  EraseFromHeap(old_off, old_len);
  const uint16_t new_heap = static_cast<uint16_t>(heap_start() - record.size());
  std::memcpy(data_ + new_heap, record.data(), record.size());
  set_heap_start(new_heap);
  set_slot(slot, new_heap, static_cast<uint16_t>(record.size()));
  return Status::OK();
}

Status SlottedPage::Delete(uint16_t slot) {
  STARFISH_RETURN_NOT_OK(CheckLiveSlot(slot));
  const uint16_t off = slot_offset(slot);
  const uint16_t len = slot_length(slot);
  set_slot(slot, 0, 0);
  EraseFromHeap(off, len);
  // Trim trailing free slots so the directory can shrink.
  uint16_t n = slot_count();
  while (n > 0 && slot_offset(n - 1) == 0) --n;
  set_slot_count(n);
  return Status::OK();
}

}  // namespace starfish
