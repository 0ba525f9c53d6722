#include "core/complex_object_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_set>

#include "core/generations.h"
#include "storage/segment.h"
#include "util/coding.h"
#include "util/file_io.h"

namespace starfish {

namespace {

/// Catalog payload layout (framed/checksummed by generations.h):
///   u32 model kind, u32 page_size, u64 key_attr_index, str schema name,
///   u32 schema path count, u64 wal checkpoint LSN (the log-truncation
///   point recovery replays from), engine segment catalog, model state.

/// Pre-parsed fixed header of a catalog payload.
struct CatalogHeader {
  uint32_t model_kind = 0;
  uint32_t page_size = 0;
  uint64_t key_attr = 0;
  std::string_view schema_name;
  uint32_t path_count = 0;
  uint64_t wal_checkpoint_lsn = 0;
};

bool ParseCatalogHeader(std::string_view* in, CatalogHeader* header) {
  return GetFixed32(in, &header->model_kind) &&
         GetFixed32(in, &header->page_size) &&
         GetFixed64(in, &header->key_attr) &&
         GetLengthPrefixed(in, &header->schema_name) &&
         GetFixed32(in, &header->path_count) &&
         GetFixed64(in, &header->wal_checkpoint_lsn);
}

/// WAL op-body encoding of a Put/Replace argument: the object's serialized
/// regions (u32 count, per region u32 tag + u32 len + bytes). Replay
/// decodes and reassembles the tuple, then re-runs the model write path.
std::string EncodeRegions(const std::vector<RecordRegion>& regions) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(regions.size()));
  for (const RecordRegion& region : regions) {
    PutFixed32(&out, region.tag);
    PutFixed32(&out, static_cast<uint32_t>(region.bytes.size()));
    out.append(region.bytes);
  }
  return out;
}

bool DecodeRegions(std::string_view in, std::vector<RecordRegion>* out) {
  out->clear();
  uint32_t count = 0;
  if (!GetFixed32(&in, &count) || count > in.size() / 8) return false;
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RecordRegion region;
    uint32_t len = 0;
    if (!GetFixed32(&in, &region.tag) || !GetFixed32(&in, &len) ||
        len > in.size()) {
      return false;
    }
    region.bytes.assign(in.data(), len);
    in.remove_prefix(len);
    out->push_back(std::move(region));
  }
  return in.empty();
}

/// Locks an op's write-latch set for apply + append + stamp. The set is
/// sorted by address and deduplicated, so any two ops lock their shared
/// segments in one global order — no lock cycles between concurrent
/// writers, whatever their models hand back.
class SegmentLatchSet {
 public:
  explicit SegmentLatchSet(std::vector<Segment*> segments)
      : segments_(std::move(segments)) {
    std::sort(segments_.begin(), segments_.end());
    segments_.erase(std::unique(segments_.begin(), segments_.end()),
                    segments_.end());
    for (Segment* segment : segments_) segment->write_latch().lock();
  }
  ~SegmentLatchSet() {
    for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
      (*it)->write_latch().unlock();
    }
  }
  SegmentLatchSet(const SegmentLatchSet&) = delete;
  SegmentLatchSet& operator=(const SegmentLatchSet&) = delete;

 private:
  std::vector<Segment*> segments_;
};

}  // namespace

Result<std::unique_ptr<ComplexObjectStore>> ComplexObjectStore::Open(
    std::shared_ptr<const Schema> schema, StoreOptions options) {
  if (schema == nullptr || schema->path_count() == 0) {
    return Status::InvalidArgument("Open requires a finalized root schema");
  }
  auto store = std::unique_ptr<ComplexObjectStore>(new ComplexObjectStore());
  store->options_ = options;
  store->schema_ = schema;

  // Persistent reopen: resolve the committed catalog generation. CURRENT
  // names it; when that file fails its checksum (bit rot, torn hardware
  // write) the next-older on-disk generation is the last committed state.
  // Nothing here trusts an unchecksummed byte. Resolution runs before the
  // volume opens and only reads: a directory in a format this build does
  // not read is refused with NotSupported before any file is touched.
  std::string payload;
  bool reopen = false;
  if (store->persistent()) {
    const std::string& dir = options.path;
    ResolvedCatalog resolved;
    STARFISH_RETURN_NOT_OK(ResolveCommittedCatalog(dir, &resolved));
    store->next_generation_ = resolved.next_generation;
    if (resolved.any_committed) {
      payload = std::move(resolved.file.payload);
      store->generation_ = resolved.loaded;
      store->fallback_ = resolved.fallback;
      reopen = true;
    } else {
      // Nothing was ever committed: a fresh directory, possibly with the
      // stray uncommitted first checkpoint of a crashed run — unless it
      // holds a pre-generation catalog, which Open would otherwise take
      // for fresh and reclaim every page of.
      STARFISH_RETURN_NOT_OK(CheckNoPreGenerationCatalog(dir));
    }
  }

  StorageEngineOptions engine_options;
  engine_options.disk.page_size = options.page_size;
  engine_options.buffer.frame_count = options.buffer_frames;
  engine_options.buffer.policy = options.replacement;
  engine_options.buffer.write_batch_size = options.write_batch_size;
  engine_options.buffer.shard_count = options.buffer_shards;
  engine_options.backend = options.backend;
  engine_options.path = options.path;
  engine_options.timed = options.timed_volume;
  engine_options.timing = options.timing;
  engine_options.volume_decorator = options.volume_decorator;
  STARFISH_ASSIGN_OR_RETURN(store->engine_,
                            StorageEngine::Open(engine_options));
  // A reopened mmap volume keeps its recorded geometry; mirror it so
  // options() reports the truth.
  store->options_.page_size = store->engine_->disk()->page_size();

  std::string_view in(payload);
  CatalogHeader header;
  if (reopen) {
    if (!ParseCatalogHeader(&in, &header)) {
      return Status::Corruption("truncated store catalog in " + options.path);
    }
    if (static_cast<StorageModelKind>(header.model_kind) != options.model) {
      return Status::InvalidArgument(
          "store at " + options.path + " was written with model " +
          ToString(static_cast<StorageModelKind>(header.model_kind)) +
          ", not " + ToString(options.model));
    }
    if (header.schema_name != schema->name() ||
        header.path_count != static_cast<uint32_t>(schema->path_count()) ||
        header.key_attr != options.key_attr_index) {
      return Status::InvalidArgument("store at " + options.path +
                                     " was written with a different schema");
    }
    STARFISH_RETURN_NOT_OK(store->engine_->LoadCatalog(&in));
  }

  ModelConfig config;
  config.schema = std::move(schema);
  config.key_attr_index = store->options_.key_attr_index;
  config.write_stripes = store->options_.write_stripes;
  STARFISH_ASSIGN_OR_RETURN(
      store->model_,
      CreateStorageModel(store->options_.model, store->engine_.get(), config));
  if (reopen) {
    STARFISH_RETURN_NOT_OK(store->model_->LoadState(&in));
    if (!in.empty()) {
      return Status::Corruption("trailing garbage after store catalog in " +
                                options.path);
    }
    // The committed catalog is the source of truth for what is allocated:
    // reclaim pages a torn checkpoint allocated but never referenced, and
    // revive pages it freed before the free was committed.
    const Status reconciled =
        store->engine_->disk()->ReconcileLive(store->engine_->AllSegmentPages());
    if (!reconciled.ok()) {
      return Status::Corruption("catalog at " + options.path +
                                " references pages beyond the volume: " +
                                reconciled.ToString());
    }
    // What is STORED on the shared slotted pages is reconciled below by
    // AttachWalAndRecover: targeted WAL replay when the log covers the
    // tail, the full scrub otherwise.
  } else if (store->persistent() &&
             store->engine_->disk()->page_count() > 0) {
    // Fresh store over a volume that already journaled allocations: a run
    // crashed after its first volume sync but before its first commit.
    // Nothing committed means nothing is referenced — reclaim it all, or
    // the dead run's pages stay live forever.
    STARFISH_RETURN_NOT_OK(store->engine_->disk()->ReconcileLive({}));
  }

  if (store->persistent()) {
    const std::string& dir = options.path;
    if (store->fallback_) {
      // Repair: make CURRENT agree with what actually loaded, so the next
      // crash-free reader needs no fallback.
      STARFISH_RETURN_NOT_OK(CommitCurrentGeneration(dir, store->generation_));
    }
    // Leftover housekeeping. Keep the loaded generation and its actual
    // on-disk predecessor (one level of checksum-fallback depth) —
    // numbers are non-consecutive after an aborted checkpoint burned one,
    // so "generation - 1" may not be the file that exists. Uncommitted
    // newer files and long-superseded older ones go.
    std::vector<uint64_t> keep{store->generation_};
    uint64_t predecessor = 0;
    bool has_predecessor = false;
    for (uint64_t gen : ListCatalogGenerations(dir)) {  // ascending
      if (gen < store->generation_) {
        predecessor = gen;
        has_predecessor = true;
      }
    }
    if (has_predecessor) keep.push_back(predecessor);
    RemoveCatalogGenerationsExcept(dir,
                                   reopen ? keep : std::vector<uint64_t>{});
  }

  // Serializes logged op bodies, transaction undo images and object cache
  // images — the mem backend needs the latter two, so it exists on every
  // path.
  store->serializer_ = std::make_unique<ObjectSerializer>(store->schema_);

  // WAL attach + crash recovery (persistent backends; a no-op for mem).
  // After this the store's committed state is reconstructed, the log is
  // clean, and the write path logs through wal_.
  STARFISH_RETURN_NOT_OK(
      store->AttachWalAndRecover(reopen, header.wal_checkpoint_lsn));

  // The object cache attaches LAST, and always empty: whatever route the
  // open took (fresh, clean reopen, WAL replay, fallback scrub,
  // paranoid_open), no pre-crash assembly exists to be served. Plain NSM
  // has no by-ref access to accelerate, so the tier stays off there (the
  // paper's "query 1a is not relevant" model).
  if (store->options_.objcache.enabled && store->model_->SupportsGetByRef()) {
    store->objcache_ = std::make_unique<ObjectCache>(store->options_.objcache);
  }

  // Only a fully opened store may checkpoint: the destructor of a store
  // abandoned mid-reopen must not overwrite a (possibly recoverable)
  // catalog with the empty state of a half-constructed model.
  store->opened_ = true;
  return store;
}

Status ComplexObjectStore::AttachWalAndRecover(bool reopen,
                                               uint64_t checkpoint_lsn) {
  if (!persistent()) return Status::OK();
  const std::string& dir = options_.path;
  const std::string wal_path = WalPath(dir);

  STARFISH_ASSIGN_OR_RETURN(WalScan scan, ScanWalFile(wal_path));

  // Decide between targeted replay (trust the validated log tail) and the
  // fallback (trust only the committed state: for a reopen the catalog —
  // restored by the scrub below; for a fresh directory the empty store,
  // already in place after ReconcileLive({})). Replay also runs WITHOUT a
  // committed catalog: under kAlways/kGroup, commits of the first
  // checkpoint interval were acknowledged durable on the strength of the
  // log alone, and re-running them onto the empty initial state is what
  // makes that acknowledgement honest.
  std::string no_replay_reason;
  if (options_.paranoid_open) {
    no_replay_reason = "paranoid_open";
  } else if (fallback_) {
    // The newest catalog was corrupt; the log was truncated against it,
    // not against the older generation that loaded. Its records do not
    // extend the state we actually have.
    no_replay_reason = "generation fallback";
  } else if (!scan.found || !scan.header_valid) {
    no_replay_reason = scan.found ? "invalid WAL header" : "missing WAL";
  } else if (reopen && scan.next_lsn < checkpoint_lsn) {
    // The log ends before the committed checkpoint: it cannot be the log
    // that checkpoint truncated. Do not replay from it.
    no_replay_reason = "WAL older than committed checkpoint";
  }

  if (reopen && !no_replay_reason.empty()) {
    // Restore exactly the committed state: delete every slotted record the
    // committed model state does not know and rebuild the hints. The log
    // tail (if any survived) is DISCARDED — documented for paranoid_open.
    std::vector<Tid> live_tids;
    STARFISH_RETURN_NOT_OK(model_->CollectLiveTids(&live_tids));
    STARFISH_RETURN_NOT_OK(engine_->ScrubSlottedRecords(live_tids));
  }

  const bool replay = no_replay_reason.empty();

  // A rebuilt log must start past every LSN already stamped into a
  // committed page, or sf_fsck's page-LSN-below-horizon check (and the
  // dense-LSN invariant itself) breaks for future records.
  uint64_t rebuild_base = std::max<uint64_t>(checkpoint_lsn, 1);
  if (!replay && reopen) {
    for (PageId id : engine_->AllSegmentPages()) {
      STARFISH_ASSIGN_OR_RETURN(PageGuard guard, engine_->buffer()->Fix(id));
      rebuild_base = std::max(rebuild_base, GetPageLsn(guard.data()) + 1);
    }
  }

  STARFISH_ASSIGN_OR_RETURN(std::unique_ptr<LogFile> log,
                            OpenPosixLogFile(wal_path));
  if (options_.wal_log_decorator) {
    log = options_.wal_log_decorator(std::move(log));
  }
  WalManagerOptions wal_options;
  wal_options.sync = options_.wal_sync;
  wal_options.group_interval_us = options_.wal_group_interval_us;
  // Forcing the rebuild on the scrub path: pass an empty scan so the
  // manager replaces the file instead of appending after a discarded tail.
  STARFISH_ASSIGN_OR_RETURN(
      wal_, WalManager::Open(std::move(log), replay ? scan : WalScan{},
                             rebuild_base, generation_, wal_options));
  wal_checkpoint_page_count_ = engine_->disk()->page_count();
  wal_->SetCheckpointPageCount(wal_checkpoint_page_count_);
  engine_->buffer()->SetWalHook(wal_.get());
  engine_->buffer()->SetPreimageQuery(
      [wal = wal_.get()](PageId id) { return wal->NeedsPreimage(id); });

  if (!replay) return Status::OK();

  // The committed tail: op and txn-marker records at or past the checkpoint
  // LSN. Records below it are stale leftovers of a crash between the
  // catalog commit and the log truncation; checkpoint records are markers,
  // not ops.
  std::vector<const WalRecord*> tail;
  bool stale = scan.base_lsn < checkpoint_lsn;
  for (const WalRecord& record : scan.records) {
    if (record.lsn < checkpoint_lsn) {
      stale = true;
      continue;
    }
    if (IsWalOpKind(record.kind) || IsWalTxnMarker(record.kind)) {
      tail.push_back(&record);
    }
  }

  // Transaction verdicts: an op with a non-zero txn id replays only when
  // its kTxnCommit marker made the log. Everything else of that
  // transaction — forward ops of an unterminated (crashed) transaction,
  // and a rolled-back transaction's forward ops AND compensations alike —
  // is skipped wholesale: phase 1's pre-images restore any of its pages
  // that reached the volume, which IS the committed state.
  std::unordered_set<uint64_t> committed_txns;
  for (const WalRecord* record : tail) {
    if (record->kind != WalRecordKind::kTxnCommit) continue;
    uint64_t txn_id = 0;
    if (!DecodeWalTxnPayload(record->payload, &txn_id)) {
      return Status::Corruption("undecodable WAL txn marker (lsn " +
                                std::to_string(record->lsn) + ") in " +
                                wal_path);
    }
    committed_txns.insert(txn_id);
  }

  if (tail.empty()) {
    if (stale) {
      // Nothing to replay, but the file still carries pre-checkpoint
      // records: truncate now so the next scan starts clean.
      STARFISH_RETURN_NOT_OK(wal_->TruncateAt(
          std::max<uint64_t>(checkpoint_lsn, scan.next_lsn), generation_,
          wal_checkpoint_page_count_));
    }
    return Status::OK();
  }

  // Redo, phase 1 — roll shared pages back: install each page's FIRST
  // pre-image in the tail. First-touch capture means that image is the
  // page's committed content, so phase 2 re-runs from exactly the
  // committed state (idempotent across repeated crashes during recovery).
  // EVERY op record contributes here, aborted and uncommitted-transaction
  // ones included: their pages may have been flushed, and the pre-image is
  // what rolls them back.
  std::vector<std::pair<const WalRecord*, WalOpPayload>> ops;
  ops.reserve(tail.size());
  std::unordered_set<PageId> installed;
  const uint32_t page_size = engine_->disk()->page_size();
  for (const WalRecord* record : tail) {
    if (IsWalTxnMarker(record->kind)) continue;  // no state, no pre-images
    WalOpPayload op;
    if (!DecodeWalOpPayload(record->payload, &op)) {
      return Status::Corruption("undecodable WAL op record (lsn " +
                                std::to_string(record->lsn) + ") in " +
                                wal_path);
    }
    for (const auto& [page, image] : op.preimages) {
      if (!installed.insert(page).second) continue;
      if (page >= engine_->disk()->page_count()) continue;  // reclaimed
      if (image.size() != page_size) {
        return Status::Corruption("WAL pre-image size mismatch for page " +
                                  std::to_string(page));
      }
      STARFISH_ASSIGN_OR_RETURN(PageGuard guard, engine_->buffer()->Fix(page));
      std::memcpy(guard.data(), image.data(), page_size);
      guard.MarkDirty();
    }
    ops.emplace_back(record, std::move(op));
  }

  // Redo, phase 2 — re-run the surviving ops in LSN order through the
  // normal model write path (logging and capture off): non-aborted, and —
  // when the op belongs to a transaction — only with a commit verdict. LSN
  // order is apply order, and the allocator state is deterministic from
  // the committed state after ReconcileLive, so this reconstructs every
  // committed op's effect.
  for (const auto& [record, op] : ops) {
    if (record->flags & kWalFlagAborted) continue;
    if (op.txn_id != 0 && committed_txns.count(op.txn_id) == 0) continue;
    STARFISH_RETURN_NOT_OK(ReplayOp(*record));
    ++replayed_wal_records_;
  }

  // Recovery checkpoint: commit the replayed state and truncate the log,
  // so a post-recovery store always starts from a clean, empty tail.
  dirty_.store(true, std::memory_order_relaxed);
  return Flush();
}

Status ComplexObjectStore::ApplyLogicalOp(WalRecordKind kind, ObjectRef ref,
                                          std::string_view body) {
  switch (kind) {
    case WalRecordKind::kPut:
    case WalRecordKind::kReplace: {
      std::vector<RecordRegion> regions;
      if (!DecodeRegions(body, &regions)) {
        return Status::Corruption("undecodable logical op body");
      }
      STARFISH_ASSIGN_OR_RETURN(Tuple object,
                                serializer_->FromRegionsAll(regions));
      return kind == WalRecordKind::kPut ? model_->Insert(ref, object)
                                         : model_->ReplaceObject(ref, object);
    }
    case WalRecordKind::kUpdateRoot: {
      STARFISH_ASSIGN_OR_RETURN(Tuple root,
                                ObjectSerializer::DecodeFlat(*schema_, body));
      return model_->UpdateRootRecord(ref, root);
    }
    case WalRecordKind::kRemove:
      return model_->Remove(ref);
    case WalRecordKind::kCheckpoint:
    case WalRecordKind::kTxnBegin:
    case WalRecordKind::kTxnCommit:
    case WalRecordKind::kTxnAbort:
      return Status::OK();  // markers carry no object state
  }
  return Status::Corruption("unknown WAL record kind");
}

Status ComplexObjectStore::ReplayOp(const WalRecord& record) {
  WalOpPayload op;
  if (!DecodeWalOpPayload(record.payload, &op)) {
    return Status::Corruption("undecodable WAL op record");
  }
  const Status applied =
      ApplyLogicalOp(record.kind, static_cast<ObjectRef>(op.ref), op.body);
  if (applied.IsCorruption()) {
    return Status::Corruption(applied.message() + " (lsn " +
                              std::to_string(record.lsn) + ")");
  }
  return applied;
}

ComplexObjectStore::~ComplexObjectStore() {
  // Only a mutated store needs the best-effort checkpoint: a read-only run
  // must not churn generation files (or touch a down volume at all), and
  // an explicitly Close()d store already reported its verdict.
  if (closed_.load() || !opened_ || !persistent() ||
      !dirty_.load(std::memory_order_relaxed)) {
    return;
  }
  const Status flushed = Flush();
  if (!flushed.ok()) {
    // A destructor cannot return the failure — Close() exists so callers
    // can observe it. Silently losing a checkpoint is the one thing this
    // store must never do, so the fallback path at least says so.
    std::fprintf(stderr,
                 "starfish: best-effort checkpoint at store destruction "
                 "failed (un-checkpointed work survives only as far as the "
                 "WAL covers it): %s\n",
                 flushed.ToString().c_str());
  }
}

Status ComplexObjectStore::Close() {
  if (closed_.load(std::memory_order_relaxed)) return Status::OK();
  if (!opened_ || !persistent() ||
      !dirty_.load(std::memory_order_relaxed)) {
    closed_.store(true, std::memory_order_relaxed);
    return Status::OK();
  }
  const Status flushed = Flush();
  if (flushed.IsFailedPrecondition()) {
    // An open transaction blocked the checkpoint: the store is NOT closed —
    // commit or roll back, then Close again.
    return flushed;
  }
  // Success or a real checkpoint failure both deliver the verdict to the
  // caller; either way the destructor must not flush (and possibly fail)
  // a second time.
  closed_.store(true, std::memory_order_relaxed);
  return flushed;
}

Status ComplexObjectStore::LoggedWrite(WalRecordKind kind,
                                       const std::function<Status()>& apply,
                                       uint64_t ref, std::string body,
                                       StoreTransaction* txn,
                                       bool compensating) {
  uint64_t lsn = 0;
  {
    // Shared: concurrent with every other writer, excluded only by a
    // checkpoint (which takes commit_mu_ exclusive to seal one state).
    std::shared_lock<std::shared_mutex> commit_lock(commit_mu_);
    if (wal_ != nullptr) {
      // A poisoned log acknowledges nothing: fail fast instead of applying
      // writes whose records can never become durable.
      STARFISH_RETURN_NOT_OK(wal_->status());
    }

    // The op's write-latch set, held across apply + append + stamp. Two
    // ops sharing any page share a segment, so holding the set across all
    // three steps makes per-page LSN order equal apply order — the
    // WAL-before-data invariant under concurrent writers. Ops with
    // disjoint sets (different stripes of a striped direct model) never
    // wait on each other here; the log append below is the only point
    // they serialize.
    std::vector<Segment*> latch_segments;
    model_->CollectWriteSegments(static_cast<ObjectRef>(ref),
                                 &latch_segments);
    SegmentLatchSet latches(std::move(latch_segments));

    // Transactional op: read the state this op clobbers and encode the
    // compensation FIRST (plain latched reads, outside the write capture).
    // A compensation never captures undo — it IS the undo being unwound.
    std::optional<StoreTransaction::UndoRecord> undo;
    if (txn != nullptr && !compensating) {
      auto undo_or = CaptureUndo(kind, static_cast<ObjectRef>(ref));
      if (undo_or.ok()) {
        undo = std::move(undo_or).value();
      } else if (!undo_or.status().IsNotFound()) {
        return undo_or.status();
      }
      // NotFound: the apply below is about to fail the same way, with
      // nothing moved.
    }

    engine_->buffer()->BeginWriteCapture(
        wal_ != nullptr ? wal_checkpoint_page_count_ : 0);
    const Status applied = apply();
    BufferManager::WriteCapture capture =
        engine_->buffer()->TakeWriteCapture();

    if (wal_ == nullptr) {
      // Mem backend (or pre-attach): no log, but the capture still ran so
      // this path keeps the WAL path's invalidation contract — a
      // validation failure that moved no page invalidates nothing. The
      // pending marks the capture left are cleared without stamping
      // (lsn 0: there is no record to point at).
      engine_->buffer()->StampRecoveryLsn(capture.dirtied, 0);
      if (!applied.ok() && capture.dirtied.empty()) return applied;
      InvalidateForWrite(static_cast<ObjectRef>(ref), capture.dirtied);
      if (applied.ok()) {
        dirty_.store(true, std::memory_order_relaxed);
        if (txn != nullptr && !compensating && undo.has_value()) {
          txn->undo_.push_back(std::move(undo).value());
        }
      }
      return applied;
    }

    if (!applied.ok() && capture.dirtied.empty()) {
      // Validation failure before anything was touched: nothing to log
      // (and nothing to invalidate — no page moved).
      return applied;
    }
    // Invalidate BEFORE any acknowledgement (and before the early error
    // returns below — their pages are dirty too): every cached assembly
    // backed by a dirtied page goes, plus the target ref itself, and the
    // cache epochs move so a concurrent in-flight assembly cannot publish
    // a pre-write snapshot. Readers holding an entry keep their consistent
    // pre-write copy — entries are immutable, invalidation only unshares.
    InvalidateForWrite(static_cast<ObjectRef>(ref), capture.dirtied);

    WalOpPayload op;
    op.ref = ref;
    op.pages = capture.dirtied;
    op.preimages = std::move(capture.preimages);
    op.body = std::move(body);
    if (txn != nullptr) {
      op.txn_id = txn->id_;
      if (undo.has_value()) {
        op.undo_kind = static_cast<uint8_t>(undo->kind);
        op.undo_body = undo->body;
      }
    }
    auto lsn_or =
        wal_->AppendOp(kind, applied.ok() ? 0 : kWalFlagAborted, op);
    if (!lsn_or.ok()) {
      // The op's frames stay marked pending (un-evictable, un-flushable):
      // with no record to explain them they must never reach the volume.
      // The log is now poisoned, so every later write and every checkpoint
      // refuses — the bounded frame leak ends with the store (and eviction
      // under it reports FailedPrecondition naming this cause rather than
      // deadlocking; see BufferManager::PickVictim).
      return lsn_or.status();
    }
    lsn = lsn_or.value();
    engine_->buffer()->StampRecoveryLsn(op.pages, lsn);
    dirty_.store(true, std::memory_order_relaxed);
    if (!applied.ok()) {
      // Aborted record logged (its pre-images roll the pages back at
      // replay); surface the apply failure, not a commit ack.
      return applied;
    }
    if (txn != nullptr && !compensating && undo.has_value()) {
      txn->undo_.push_back(std::move(undo).value());
    }
  }
  // In-transaction ops skip the per-op durability wait: the kTxnCommit
  // marker pays it once for the whole transaction (and recovery ignores
  // the ops without it, so acking them early promises nothing).
  if (txn != nullptr) return Status::OK();
  // Durability wait OUTSIDE every lock: this is where concurrent
  // committers pile into one leader epoch (group commit).
  return wal_->Commit(lsn);
}

void ComplexObjectStore::InvalidateForWrite(
    ObjectRef ref, const std::vector<PageId>& dirtied) {
  if (objcache_ == nullptr) return;
  objcache_->InvalidatePages(dirtied);
  objcache_->InvalidateRef(ref);
}

Result<StoreTransaction::UndoRecord> ComplexObjectStore::CaptureUndo(
    WalRecordKind kind, ObjectRef ref) {
  StoreTransaction::UndoRecord undo;
  undo.ref = ref;
  switch (kind) {
    case WalRecordKind::kPut:
      // Undoing an insert needs no read: remove what it put.
      undo.kind = WalRecordKind::kRemove;
      return undo;
    case WalRecordKind::kReplace:
    case WalRecordKind::kRemove: {
      STARFISH_ASSIGN_OR_RETURN(Tuple old_object,
                                model_->ReadObjectForUndo(ref));
      STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                                serializer_->ToRegions(old_object));
      undo.kind = kind == WalRecordKind::kReplace ? WalRecordKind::kReplace
                                                  : WalRecordKind::kPut;
      undo.body = EncodeRegions(regions);
      return undo;
    }
    case WalRecordKind::kUpdateRoot: {
      STARFISH_ASSIGN_OR_RETURN(Tuple old_root, model_->GetRootRecord(ref));
      undo.kind = WalRecordKind::kUpdateRoot;
      undo.body = ObjectSerializer::EncodeFlat(*schema_, old_root);
      return undo;
    }
    default:
      return Status::Internal("undo capture on a non-op WAL record kind");
  }
}

Status ComplexObjectStore::AppendTxnMarker(WalRecordKind kind,
                                           uint64_t txn_id, bool wait) {
  if (wal_ == nullptr) return Status::OK();  // mem: in-memory undo carries alone
  uint64_t lsn = 0;
  {
    std::shared_lock<std::shared_mutex> commit_lock(commit_mu_);
    STARFISH_RETURN_NOT_OK(wal_->status());
    STARFISH_ASSIGN_OR_RETURN(lsn, wal_->AppendTxnMarker(kind, txn_id));
    // Markers dirty no page but must still reach (and be truncated by) a
    // checkpoint eventually.
    dirty_.store(true, std::memory_order_relaxed);
  }
  return wait ? wal_->Commit(lsn) : Status::OK();
}

Result<StoreTransaction> ComplexObjectStore::Begin() {
  const uint64_t id = next_txn_id_.fetch_add(1);
  // The begin marker is framing for the log (sf_fsck pairs it with the
  // terminator); the replay verdict hangs off kTxnCommit alone, so it
  // needs no durability of its own.
  STARFISH_RETURN_NOT_OK(
      AppendTxnMarker(WalRecordKind::kTxnBegin, id, /*wait=*/false));
  open_txns_.fetch_add(1);
  return StoreTransaction(this, id);
}

Status ComplexObjectStore::ApplyCompensation(
    const StoreTransaction::UndoRecord& undo, StoreTransaction* txn) {
  std::string body = undo.body;
  return LoggedWrite(
      undo.kind,
      [&] { return ApplyLogicalOp(undo.kind, undo.ref, undo.body); },
      undo.ref, std::move(body), txn, /*compensating=*/true);
}

Status ComplexObjectStore::DoPut(ObjectRef ref, const Tuple& object,
                                 StoreTransaction* txn) {
  std::string body;
  if (wal_ != nullptr) {
    STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                              serializer_->ToRegions(object));
    body = EncodeRegions(regions);
  }
  return LoggedWrite(
      WalRecordKind::kPut, [&] { return model_->Insert(ref, object); }, ref,
      std::move(body), txn);
}

Status ComplexObjectStore::Put(ObjectRef ref, const Tuple& object) {
  return DoPut(ref, object, nullptr);
}

Result<Tuple> ComplexObjectStore::Get(ObjectRef ref,
                                      const Projection& projection) {
  if (objcache_ == nullptr) return ReadObject(ref, projection);
  return CachedGet(ref, projection);
}

Result<Tuple> ComplexObjectStore::Get(ObjectRef ref) {
  if (objcache_ == nullptr) {
    return ReadObject(ref, Projection::All(*schema_));
  }
  return CachedGet(ref, Projection::All(*schema_));
}

Result<Tuple> ComplexObjectStore::ReadObject(ObjectRef ref,
                                             const Projection& projection) {
  // One chained call for every page the model can name up front, so the
  // assembly below fixes them as hits. The per-thread scratch keeps the
  // steady state allocation-free; concurrent readers each have their own.
  thread_local std::vector<PageId> pages;
  pages.clear();
  model_->CollectReadPages(ref, projection, &pages);
  if (pages.size() >= 2) {
    STARFISH_RETURN_NOT_OK(
        engine_->buffer()->Prefetch(pages, PrefetchMode::kChained));
  }
  return model_->GetByRef(ref, projection);
}

Result<Tuple> ComplexObjectStore::CachedGet(ObjectRef ref,
                                            const Projection& projection) {
  uint64_t epoch = 0;
  if (ObjCacheEntryRef entry = objcache_->Lookup(ref, &epoch)) {
    return serializer_->DecodeImage(entry->image, projection);
  }
  // A repeated probe for an object already known absent is answered from
  // the negative side table — no model read, no page fix. The verdict is
  // epoch-guarded inside the cache, so any write since it was recorded
  // voids it and the probe falls through again.
  if (objcache_->LookupNegative(ref)) {
    // Same message the models produce, so a cache-served NotFound is
    // indistinguishable (code and text) from one that read the pages.
    return Status::NotFound("no object with ref " + std::to_string(ref));
  }
  // Miss: read-through. Assemble the FULL object (so one miss serves every
  // later projection) under a read-page capture, then publish its image
  // guarded by the epoch sampled above — if any invalidation ran in
  // between, the assembly may have observed a half-applied write and is
  // discarded.
  std::vector<PageId> pages;
  Result<Tuple> full_or = [&] {
    BufferManager::ThreadReadCaptureScope capture(&pages);
    return ReadObject(ref, Projection::All(*schema_));
  }();
  if (!full_or.ok()) {
    // A NotFound verdict from the model is worth remembering: record it
    // under the same epoch guard an assembly publishes under.
    if (full_or.status().IsNotFound()) objcache_->InsertNegative(ref, epoch);
    return full_or.status();
  }
  std::string image = serializer_->EncodeImage(full_or.value());
  if (!projection.IsAll()) {
    full_or = serializer_->DecodeImage(image, projection);
  }
  objcache_->Insert(ref, std::move(image), std::move(pages), epoch);
  return full_or;
}

Result<Tuple> ComplexObjectStore::GetByKey(int64_t key,
                                           const Projection& projection) {
  return model_->GetByKey(key, projection);
}

Status ComplexObjectStore::Scan(const Projection& projection,
                                const ScanCallback& fn) {
  return model_->ScanAll(projection, fn);
}

Result<std::vector<ObjectRef>> ComplexObjectStore::Children(ObjectRef ref) {
  // A cached assembly answers navigation without touching a page; a miss
  // falls through to the model's link-projection read WITHOUT populating
  // the cache (assembling a whole cold object to answer a link walk would
  // inflate exactly the I/O the paper's query 2 avoids).
  if (objcache_ != nullptr) {
    if (ObjCacheEntryRef entry = objcache_->Lookup(ref)) {
      return serializer_->ImageLinks(entry->image);
    }
  }
  return model_->GetChildRefs(ref);
}

Result<Tuple> ComplexObjectStore::RootRecord(ObjectRef ref) {
  // Same policy as Children: serve hits, never populate on a miss.
  if (objcache_ != nullptr) {
    if (ObjCacheEntryRef entry = objcache_->Lookup(ref)) {
      return serializer_->DecodeImageRoot(entry->image);
    }
  }
  return model_->GetRootRecord(ref);
}

Status ComplexObjectStore::DoUpdateRootRecord(ObjectRef ref,
                                              const Tuple& new_root,
                                              StoreTransaction* txn) {
  std::string body;
  if (wal_ != nullptr) {
    body = ObjectSerializer::EncodeFlat(*schema_, new_root);
  }
  return LoggedWrite(
      WalRecordKind::kUpdateRoot,
      [&] { return model_->UpdateRootRecord(ref, new_root); }, ref,
      std::move(body), txn);
}

Status ComplexObjectStore::UpdateRootRecord(ObjectRef ref,
                                            const Tuple& new_root) {
  return DoUpdateRootRecord(ref, new_root, nullptr);
}

Status ComplexObjectStore::DoReplace(ObjectRef ref, const Tuple& new_object,
                                     StoreTransaction* txn) {
  std::string body;
  if (wal_ != nullptr) {
    STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                              serializer_->ToRegions(new_object));
    body = EncodeRegions(regions);
  }
  return LoggedWrite(
      WalRecordKind::kReplace,
      [&] { return model_->ReplaceObject(ref, new_object); }, ref,
      std::move(body), txn);
}

Status ComplexObjectStore::Replace(ObjectRef ref, const Tuple& new_object) {
  return DoReplace(ref, new_object, nullptr);
}

Status ComplexObjectStore::DoRemove(ObjectRef ref, StoreTransaction* txn) {
  return LoggedWrite(
      WalRecordKind::kRemove, [&] { return model_->Remove(ref); }, ref, {},
      txn);
}

Status ComplexObjectStore::Remove(ObjectRef ref) {
  return DoRemove(ref, nullptr);
}

StoreTransaction::StoreTransaction(StoreTransaction&& other) noexcept
    : store_(other.store_),
      id_(other.id_),
      open_(other.open_),
      undo_(std::move(other.undo_)) {
  other.store_ = nullptr;
  other.open_ = false;
}

StoreTransaction::~StoreTransaction() {
  if (open_) (void)Rollback();
}

Status StoreTransaction::Put(ObjectRef ref, const Tuple& object) {
  if (!open_) return Status::FailedPrecondition("transaction is closed");
  return store_->DoPut(ref, object, this);
}

Status StoreTransaction::Replace(ObjectRef ref, const Tuple& new_object) {
  if (!open_) return Status::FailedPrecondition("transaction is closed");
  return store_->DoReplace(ref, new_object, this);
}

Status StoreTransaction::UpdateRootRecord(ObjectRef ref,
                                          const Tuple& new_root) {
  if (!open_) return Status::FailedPrecondition("transaction is closed");
  return store_->DoUpdateRootRecord(ref, new_root, this);
}

Status StoreTransaction::Remove(ObjectRef ref) {
  if (!open_) return Status::FailedPrecondition("transaction is closed");
  return store_->DoRemove(ref, this);
}

Status StoreTransaction::Commit() {
  if (!open_) return Status::FailedPrecondition("transaction is closed");
  open_ = false;
  undo_.clear();
  store_->open_txns_.fetch_sub(1);
  // The commit marker is the transaction's ONE durability point: recovery
  // replays the ops only when it finds this record, so the wait here is
  // what makes the whole transaction's acknowledgement honest.
  return store_->AppendTxnMarker(WalRecordKind::kTxnCommit, id_,
                                 /*wait=*/true);
}

Status StoreTransaction::Rollback() {
  if (!open_) return Status::FailedPrecondition("transaction is closed");
  open_ = false;
  // Unwind in reverse op order; keep going past a failed compensation so
  // the rest of the stack still unwinds (recovery fixes whatever this
  // best-effort pass could not — the transaction has no commit marker).
  Status first_failure = Status::OK();
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    const Status undone = store_->ApplyCompensation(*it, this);
    if (!undone.ok() && first_failure.ok()) first_failure = undone;
  }
  undo_.clear();
  store_->open_txns_.fetch_sub(1);
  const Status marker = store_->AppendTxnMarker(WalRecordKind::kTxnAbort, id_,
                                                /*wait=*/true);
  return first_failure.ok() ? marker : first_failure;
}

Result<Tuple> ReadSession::Get(ObjectRef ref,
                               const Projection& projection) const {
  return store_->Get(ref, projection);
}

Result<Tuple> ReadSession::Get(ObjectRef ref) const { return store_->Get(ref); }

Result<Tuple> ReadSession::GetByKey(int64_t key,
                                    const Projection& projection) const {
  return store_->GetByKey(key, projection);
}

Status ReadSession::Scan(const Projection& projection,
                         const ScanCallback& fn) const {
  return store_->Scan(projection, fn);
}

Result<std::vector<ObjectRef>> ReadSession::Children(ObjectRef ref) const {
  return store_->Children(ref);
}

Result<Tuple> ReadSession::RootRecord(ObjectRef ref) const {
  return store_->RootRecord(ref);
}

Status ComplexObjectStore::BuildCatalogPayload(
    std::string* payload, uint64_t wal_checkpoint_lsn) const {
  PutFixed32(payload, static_cast<uint32_t>(options_.model));
  PutFixed32(payload, options_.page_size);
  PutFixed64(payload, options_.key_attr_index);
  PutLengthPrefixed(payload, schema_->name());
  PutFixed32(payload, static_cast<uint32_t>(schema_->path_count()));
  PutFixed64(payload, wal_checkpoint_lsn);
  engine_->SaveCatalog(payload);
  return model_->SaveState(payload);
}

Status ComplexObjectStore::Flush() {
  // Writers are excluded for the whole checkpoint: the catalog payload,
  // the WAL checkpoint LSN and the flushed pages must describe ONE state.
  // commit_mu_ exclusive drains every in-flight op and marker append.
  std::unique_lock<std::shared_mutex> lock(commit_mu_);
  if (open_txns_.load() != 0) {
    // An open transaction's ops carry no commit verdict yet: a checkpoint
    // here would fold them into the catalog as if committed, making
    // Rollback unable to unsee them after a crash.
    return Status::FailedPrecondition(
        "cannot checkpoint with " + std::to_string(open_txns_.load()) +
        " transaction(s) open: commit or roll back first");
  }
  if (wal_ != nullptr) {
    // A poisoned log may hold acknowledged-nothing records whose pages are
    // pinned un-flushable: advancing the catalog past them would commit a
    // state the log cannot explain. Stay at the last committed generation.
    STARFISH_RETURN_NOT_OK(wal_->status());
  }
  STARFISH_RETURN_NOT_OK(engine_->Flush());
  if (!persistent()) return Status::OK();
  const std::string& dir = options_.path;

  // Checkpoint protocol — each step durable before the next begins:
  //   1. Make the log durable (WAL-before-data held per write-back batch
  //      during engine Flush; this covers records with no flushed page) and
  //      seal the checkpoint LSN: with write_mu_ held no record can be
  //      appended after it, so every op record is below the LSN the catalog
  //      will carry.
  //   2. Sync the volume (page images + allocator journal): the catalog
  //      must never reference bytes or pages the volume does not have.
  //   3. Write the NEXT catalog generation to its own fsync'd file; the
  //      live generation is never touched.
  //   4. Atomically repoint CURRENT — the one and only commit point.
  //   5. Truncate the log at the checkpoint LSN (housekeeping: a crash
  //      before it leaves stale records the next Open's replay skips).
  // A crash before step 4 leaves the previous generation committed; the
  // next Open reclaims the half-checkpoint's pages via ReconcileLive and
  // replays the log tail from the PREVIOUS checkpoint LSN.
  uint64_t checkpoint_lsn = 0;
  if (wal_ != nullptr) {
    STARFISH_RETURN_NOT_OK(wal_->SyncAll());
    checkpoint_lsn = wal_->next_lsn();
  }
  STARFISH_RETURN_NOT_OK(engine_->disk()->Sync());

  const uint64_t next = next_generation_;
  std::string payload;
  STARFISH_RETURN_NOT_OK(BuildCatalogPayload(&payload, checkpoint_lsn));
  STARFISH_RETURN_NOT_OK(WriteFileAtomic(CatalogGenerationPath(dir, next),
                                         EncodeCatalogFile(next, payload)));
  STARFISH_RETURN_NOT_OK(CommitCurrentGeneration(dir, next));

  // Committed. Everything below is housekeeping on dead files.
  const uint64_t previous = generation_;
  generation_ = next;
  next_generation_ = next + 1;
  dirty_.store(false, std::memory_order_relaxed);
  RemoveCatalogGenerationsExcept(dir, {previous, next});
  if (wal_ != nullptr) {
    wal_checkpoint_page_count_ = engine_->disk()->page_count();
    STARFISH_RETURN_NOT_OK(wal_->TruncateAt(checkpoint_lsn, next,
                                            wal_checkpoint_page_count_));
  }
  return Status::OK();
}

}  // namespace starfish
