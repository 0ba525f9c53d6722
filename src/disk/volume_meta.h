#pragma once

#include <string>
#include <vector>

#include "disk/volume.h"
#include "util/status.h"

/// \file volume_meta.h
/// The volume.meta allocator journal: encoding, decoding, replay.
///
/// volume.meta records the allocator state of a persistent volume — how many
/// pages exist and which of them are freed. Since PR 4 it is an append-only
/// journal rather than a rewritten snapshot, so a checkpoint appends a small
/// delta instead of rewriting state proportional to the volume, and a crash
/// mid-append can only tear the *tail* record, never the established state.
///
/// File layout (little-endian, see coding.h):
///
///   header:   u32 magic 'SFVM', u32 version (2), u32 page_size,
///             u32 extent_bytes
///   records:  u32 kind, u32 payload_len, payload, u32 crc32
///
/// where the CRC covers the record's kind/len/payload bytes. Record kinds:
///
///   kSnapshot (1): u64 page_count, ceil(page_count/8) bytes freed bitmap
///                  (bit i of byte i/8 set = page i freed) — replaces the
///                  running state.
///   kDelta    (2): u64 new_page_count, u32 freed_count, freed_count * u32
///                  newly freed page ids — extends the running state.
///
/// Replay applies records in order and stops at the first torn or corrupt
/// record (short frame, bad checksum, implausible payload): everything
/// before it is the durable allocator state, everything after never
/// happened. Version 2 is the only one this build reads: an older header is
/// NotSupported (never migrated), any other is Corruption.
///
/// This module is shared by the writers (MmapVolume, DirectVolume — the two
/// persistent backends write the identical format, so a volume directory
/// can be reopened with either backend) and the offline verifier (sf_fsck),
/// so all sides agree byte-for-byte on what a valid journal is.

namespace starfish {

/// Allocator state described by a volume.meta file.
struct VolumeMetaState {
  DiskOptions options;
  uint64_t page_count = 0;
  /// Index i set = page i freed. Sized to page_count.
  std::vector<bool> freed;

  uint64_t live_pages() const {
    uint64_t live = page_count;
    for (bool f : freed) {
      if (f) --live;
    }
    return live;
  }
};

/// Outcome of replaying a volume.meta file.
struct VolumeMetaReplay {
  VolumeMetaState state;
  bool found = false;      ///< the file existed
  bool torn_tail = false;  ///< a trailing record was dropped as torn/corrupt
  uint32_t records = 0;    ///< valid records applied
};

/// Replays `path` into `*out`. A missing file is not an error (`found`
/// stays false). A corrupt *header* is Corruption — treating it as absent
/// would re-format a live volume; only tail records degrade gracefully. A
/// header older than version 2 is NotSupported.
Status ReplayVolumeMeta(const std::string& path, VolumeMetaReplay* out);

/// Appends the version-2 file header.
void AppendVolumeMetaHeader(std::string* out, const DiskOptions& options);

/// Appends a checksummed snapshot record of `state`.
void AppendSnapshotRecord(std::string* out, const VolumeMetaState& state);

/// Appends a checksummed delta record (page-count growth + newly freed ids).
void AppendDeltaRecord(std::string* out, uint64_t new_page_count,
                       const std::vector<PageId>& newly_freed);

/// "extent_NNNNNN" — the file name (no directory) of extent `index`. The
/// one definition shared by the mmap backend and sf_fsck, so both always
/// agree on which files are extents.
std::string ExtentFileName(size_t index);

/// Parses an extent file name back into its index; false for anything
/// else (including the "catalog.*" and "volume.meta" names).
bool ParseExtentFileName(const std::string& name, uint64_t* index);

/// Removes extent files at index `expected` or beyond from `dir` (the
/// leavings of a crashed, never-checkpointed allocation) and fsyncs the
/// directory when anything was removed. A later re-allocation of their
/// indices must start from zero-filled images. Shared by the persistent
/// backends' reopen paths.
Status RemoveOrphanExtentFiles(const std::string& dir, size_t expected);

/// The volume.meta journal writer shared by the persistent backends.
///
/// Owns the "what is durably recorded" side of the allocator: the state as
/// of the last durable record, whether the file exists, and whether a torn
/// append poisoned the tail. Checkpoint() appends a small delta when the
/// allocator only grew/freed, and falls back to an atomic compacted rewrite
/// when the state moved backwards (ReconcileLive un-freeing pages), when a
/// previous append may have torn the tail, or when no file exists yet.
class AllocatorJournal {
 public:
  /// Binds the journal to its file path. Call once before any other method.
  void Attach(std::string path) { path_ = std::move(path); }

  /// Declares `replay` — a successful replay of this journal's file — to
  /// be the durable state, and compacts the journal when it must: a torn
  /// tail would hide later appends from replay (it stops at the first bad
  /// record), and a long journal folds into one snapshot.
  Status MarkReplayed(const VolumeMetaReplay& replay);

  /// Records `current` durably: appends a delta against the last durable
  /// record, or rewrites the journal compacted where a delta cannot express
  /// the change. No-op when nothing moved.
  Status Checkpoint(VolumeMetaState current);

 private:
  /// Atomically replaces the journal with a compacted header + snapshot of
  /// `current` (also heals a torn tail: the replacement is atomic).
  Status RewriteCompacted(VolumeMetaState current);

  std::string path_;
  /// Allocator state as of the last durable journal record; the next
  /// checkpoint appends the delta against it.
  VolumeMetaState last_;
  /// True once the file exists with a valid v2 header on disk.
  bool on_disk_ = false;
  /// Set when an append failed partway (the tail may be torn): appending
  /// past torn bytes would put records where replay never reaches, so only
  /// an atomic compacted rewrite may touch the journal until one succeeds.
  bool append_unsafe_ = false;
};

}  // namespace starfish
