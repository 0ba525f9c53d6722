#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file generations.h
/// Shadow catalog generations: file naming, framing and the CURRENT commit
/// pointer of a persistent store's checkpoint protocol.
///
/// A persistent store directory holds
///
///     catalog.<gen>.sf    one immutable catalog image per checkpoint
///     CURRENT             "catalog.<gen>.sf\n" — the committed generation
///     volume.meta         allocator journal (volume_meta.h)
///     extent_NNNNNN       page images
///
/// A checkpoint NEVER overwrites the live catalog: it writes the next
/// generation to a fresh file (fsync'd), then atomically repoints CURRENT
/// (fsync'd file + directory). The CURRENT rename is the one and only
/// commit point; a crash anywhere before it leaves the previous generation
/// committed, a crash after it leaves the new one. Readers resolve CURRENT
/// and may fall back to the next-older on-disk generation when the live
/// file fails its checksum (bit rot, torn hardware write).
///
/// Catalog file framing (little-endian):
///
///   u32 magic 'SFCT', u32 version (3), u64 generation,
///   payload, u32 crc32 over everything before it — the payload
///   carries the WAL checkpoint LSN (see wal/wal_format.h)
///
/// Version 3 is the only frame this build reads. A checksum-valid frame of
/// any other version is NotSupported — never damage to fall back from — and
/// so is the pre-generation single-file `catalog.sf` (version 1); neither
/// is migrated.
///
/// The payload (model kind, schema fingerprint, segment page lists, model
/// state) is owned by ComplexObjectStore; this module frames and checksums
/// it, so the store and the offline verifier (sf_fsck) agree byte-for-byte
/// on what a valid generation is.
///
/// This module is deliberately free of store types: sf_fsck links it
/// without dragging in the model layer.

namespace starfish {

/// `<dir>/catalog.<gen>.sf`
std::string CatalogGenerationPath(const std::string& dir, uint64_t gen);

/// `<dir>/CURRENT`
std::string CurrentPath(const std::string& dir);

/// NotSupported when `<dir>/catalog.sf` — the pre-generation single
/// catalog, format version 1 — exists; OK otherwise. Open and sf_fsck run
/// it when CURRENT is absent, so such a directory is refused instead of
/// being taken for a fresh one.
Status CheckNoPreGenerationCatalog(const std::string& dir);

/// Reads CURRENT. `*found` false when absent (not an error: nothing was
/// ever committed). Corruption when present but unparseable — CURRENT is
/// written atomically, so garbage is damage, not a crash artifact.
Result<uint64_t> ReadCurrentGeneration(const std::string& dir, bool* found);

/// Atomically repoints CURRENT at `gen` (fsync'd tmp + rename + directory
/// fsync): THE commit point of a checkpoint.
Status CommitCurrentGeneration(const std::string& dir, uint64_t gen);

/// Generation numbers of all catalog.<gen>.sf files in `dir`, ascending.
std::vector<uint64_t> ListCatalogGenerations(const std::string& dir);

/// Best-effort removal of generation files whose number is not in `keep`.
void RemoveCatalogGenerationsExcept(const std::string& dir,
                                    const std::vector<uint64_t>& keep);

/// A validated, de-framed catalog file.
struct CatalogFile {
  uint64_t generation = 0;
  std::string payload;  ///< store-owned bytes (model kind onward)
};

/// Reads and validates one v3 catalog file: magic, generation field and the
/// checksum over the whole frame first — Corruption, not a partial result,
/// when any is off — then the version: a checksum-valid frame of another
/// version is NotSupported. Absence is NotFound. The caller decides whether
/// Corruption means "fall back a generation" or "fail the open".
Result<CatalogFile> ReadCatalogFile(const std::string& path);

/// Frames `payload` as a v3 generation file (magic, version, generation,
/// payload, crc32).
std::string EncodeCatalogFile(uint64_t generation, std::string_view payload);

/// Outcome of resolving the committed catalog of a directory.
struct ResolvedCatalog {
  bool any_committed = false;  ///< CURRENT existed
  uint64_t current = 0;        ///< the generation CURRENT names
  uint64_t loaded = 0;         ///< the generation that validated
  bool fallback = false;       ///< loaded != current
  CatalogFile file;            ///< the validated generation's payload
  /// Generation numbers of all on-disk catalog files, ascending.
  std::vector<uint64_t> generations;
  /// First number a new commit may use: past everything ever seen, so an
  /// aborted checkpoint's leftover can never collide with a later commit.
  uint64_t next_generation = 1;
  /// One line per candidate that failed validation (checksum mismatch,
  /// generation-number mismatch), in the order they were tried.
  std::vector<std::string> rejected;
};

/// THE resolution algorithm — shared by ComplexObjectStore::Open and
/// sf_fsck so recovery and verification can never disagree. CURRENT names
/// the live generation; when its file fails validation, on-disk
/// generations below it are tried newest-first (generations above CURRENT
/// were never committed and are never candidates). Returns OK with
/// `any_committed == false` when CURRENT is absent (nothing was ever
/// committed through the protocol), Corruption when CURRENT is unparseable
/// or present with no loadable generation, and NotSupported at once when a
/// candidate is a checksum-valid frame of another version: an older
/// generation is never a substitute for one this build cannot read. `out`
/// is filled as far as resolution got either way, so a verifier can report
/// the rejected candidates.
Status ResolveCommittedCatalog(const std::string& dir, ResolvedCatalog* out);

}  // namespace starfish
