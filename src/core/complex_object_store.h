#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "disk/disk_timing.h"
#include "disk/log_file.h"
#include "models/model_factory.h"
#include "objcache/object_cache.h"
#include "nf2/projection.h"
#include "nf2/schema.h"
#include "nf2/serializer.h"
#include "nf2/value.h"
#include "wal/wal_manager.h"

/// \file complex_object_store.h
/// The library's front door: a complex-object store with a selectable
/// physical storage model and full I/O accounting.
///
/// Typical use (see examples/quickstart.cc):
///
///   auto schema = SchemaBuilder("Doc").AddInt32("Id")...Build();
///   StoreOptions options;
///   options.model = StorageModelKind::kDasdbsNsm;
///   auto store = ComplexObjectStore::Open(schema, options).value();
///   store->Put(0, doc);
///   Tuple back = store->Get(0, Projection::All(*schema)).value();
///   printf("%s\n", store->stats().io.ToString().c_str());
///
/// The store owns a volume and buffer pool; every operation's physical page
/// I/Os, I/O calls and buffer fixes are metered, and the Eq.-1 timing model
/// converts them to estimated service time. Swap `options.model` to compare
/// how the paper's four storage models behave on *your* object schema and
/// workload — the question the paper answers for its railway benchmark.
///
/// The disk backend is pluggable (`options.backend`; see docs/VOLUMES.md):
///
///   * `VolumeKind::kMem` (default) — in-memory arena, nothing persists.
///   * `VolumeKind::kMmap` — pages live in memory-mapped files under
///     `options.path`; the store writes a catalog on Flush()/destruction
///     and `Open` on the same path restores every object, so experiment
///     volumes can exceed RAM and survive process restarts:
///
///       options.backend = VolumeKind::kMmap;
///       options.path = "/tmp/my_experiment";
///       // first run: load objects, Flush(); later runs: Get() them back.
///
///   * `VolumeKind::kDirect` — same persistence and on-disk format, but
///     every page transfer is a real O_DIRECT device I/O that bypasses the
///     kernel page cache: a buffer-pool miss costs what the hardware
///     charges. Requires a filesystem with O_DIRECT support (Open returns
///     NotSupported on tmpfs/overlayfs).

namespace starfish {

/// Store configuration.
struct StoreOptions {
  /// Physical storage model (the paper's recommendation: DASDBS-NSM).
  StorageModelKind model = StorageModelKind::kDasdbsNsm;

  /// Root attribute holding the unique Int32 object key.
  size_t key_attr_index = 0;

  /// Page size in bytes (DASDBS: 2048).
  uint32_t page_size = kDefaultPageSize;

  /// Buffer pool frames (DASDBS testbed: 1200).
  uint32_t buffer_frames = 1200;

  /// Buffer replacement policy.
  ReplacementPolicy replacement = ReplacementPolicy::kLru;

  /// Pages per chained write-back call.
  uint32_t write_batch_size = 32;

  /// Equation-1 service-time coefficients (defaults model a period disk).
  LinearTimingModel timing;

  /// Disk backend underneath the buffer pool. kMmap/kDirect require `path`
  /// and make the store persistent: reopening the same path restores it
  /// (with either backend — they share one on-disk format).
  VolumeKind backend = VolumeKind::kMem;

  /// Backing directory of the persistent backends (created if absent).
  /// When the directory already holds a store, Open reopens it: `model`
  /// must match the stored catalog and `page_size` is adopted from the
  /// volume.
  std::string path;

  /// Wrap the backend in a TimedVolume charging `timing` per I/O call;
  /// the accumulated milliseconds are available via timed_millis().
  bool timed_volume = false;

  /// Buffer-pool shards. 1 (default) keeps the paper-exact single-user
  /// pool (unlocked, global LRU); any other value makes the read path
  /// thread-safe so ReadSession handles can run on concurrent threads
  /// (0 = derive from hardware concurrency). See BufferOptions::shard_count.
  uint32_t buffer_shards = 1;

  /// Write stripes of the direct models (kDsm / kDasdbsDsm): the address
  /// space is partitioned `ref % write_stripes`, each stripe owning its own
  /// segment, so ops on refs in different stripes hold disjoint write-latch
  /// sets and apply truly in parallel (the WAL append stays the one
  /// serialized point). 1 (default) keeps the single-segment layout and
  /// byte-identical paper benches; a persistent store must be reopened with
  /// the stripe count it was created with. The NSM-family models shred
  /// every object over all path relations, so their latch set is always
  /// "everything" and this knob is ignored. Parallel applies additionally
  /// need a thread-safe buffer pool (`buffer_shards != 1`).
  uint32_t write_stripes = 1;

  /// Test seam: wraps the freshly created disk backend (e.g. in a
  /// FaultVolume) before the buffer pool attaches — how the crash-matrix
  /// tests kill the disk mid-checkpoint. Null = no wrapping.
  std::function<std::unique_ptr<Volume>(std::unique_ptr<Volume>)>
      volume_decorator;

  /// When a write op's commit is acknowledged durable (persistent backends
  /// only; the mem backend runs without a WAL). kNone — the pre-WAL
  /// contract and the default: ops are logged but commit returns
  /// immediately, durability arrives at the next Flush checkpoint (the log
  /// still shrinks the loss window to the last group-commit epoch and keeps
  /// every flushed page explained). kAlways/kGroup — every Put/Replace/
  /// Remove/UpdateRootRecord blocks until its record is fsync'd, leader-
  /// batched across concurrent writers (group commit). See docs/WAL.md.
  WalSyncPolicy wal_sync = WalSyncPolicy::kNone;

  /// kGroup epoch accumulation window, microseconds.
  uint32_t wal_group_interval_us = 100;

  /// Reopen via the full committed-state scrub instead of WAL replay, and
  /// DISCARD the log tail beyond the committed checkpoint — acked-but-
  /// uncheckpointed commits are dropped. The recovery of last resort for a
  /// log the operator does not trust.
  bool paranoid_open = false;

  /// Test seam: wraps the WAL's log file (e.g. FaultVolume::WrapLogFile)
  /// so crash tests can tear log appends and drop unsynced log bytes at
  /// power loss. Null = no wrapping.
  std::function<std::unique_ptr<LogFile>(std::unique_ptr<LogFile>)>
      wal_log_decorator;

  /// The assembled-object cache tier above the buffer pool (off by
  /// default; docs/OBJCACHE.md). When enabled, by-ref reads (Get /
  /// Children / RootRecord) serve hot objects from each one's cached image
  /// instead of re-assembling it from pages, every write op invalidates
  /// before it is acknowledged, and the cache starts empty on every Open —
  /// so crash recovery can never serve a pre-crash assembly.
  /// `enabled = false` leaves every code path and every counter exactly as
  /// before (the paper benches measure per-access physical I/O and stay
  /// byte-identical).
  /// Ignored for plain NSM, which has no by-ref access to accelerate.
  ObjCacheOptions objcache;
};

class ComplexObjectStore;

/// A multi-op transaction handle: all-or-nothing over any number of write
/// ops. Obtained from ComplexObjectStore::Begin(); move-only.
///
/// Each op applies (and, on persistent stores, logs) immediately — there is
/// no deferred write set, so the transaction's own thread reads its writes
/// through the normal APIs. Atomicity comes from undo: every successful op
/// pushes a logical compensation (Put ⇒ Remove, Replace/UpdateRootRecord ⇒
/// re-write the old value, Remove ⇒ re-Put the old object) onto an
/// in-memory stack, and the same compensation rides in the op's WAL record
/// for audit. Rollback() applies the stack in reverse; Commit() seals the
/// transaction with a durable kTxnCommit marker.
///
/// Crash contract (persistent stores): recovery replays an op with a
/// non-zero txn id only when its kTxnCommit marker is in the log — an
/// uncommitted or rolled-back transaction's ops (and its compensations)
/// are skipped wholesale, and their first-touch pre-images restore any of
/// their flushed pages. So nothing of an unterminated transaction survives
/// reopen, while a committed one survives byte-for-byte.
///
/// Threading: one transaction belongs to one thread; independent
/// transactions on other threads (and autonomous ops, txn id 0) run
/// concurrently under the usual write-latch rules. Flush() refuses with
/// FailedPrecondition while any transaction is open. A handle destroyed
/// while open rolls back (best effort).
class StoreTransaction {
 public:
  StoreTransaction(StoreTransaction&& other) noexcept;
  StoreTransaction& operator=(StoreTransaction&&) = delete;
  StoreTransaction(const StoreTransaction&) = delete;
  StoreTransaction& operator=(const StoreTransaction&) = delete;
  /// Rolls back if still open (best effort; failures are swallowed —
  /// call Rollback() explicitly to observe them).
  ~StoreTransaction();

  /// The write ops, transactional twins of the store's own.
  Status Put(ObjectRef ref, const Tuple& object);
  Status Replace(ObjectRef ref, const Tuple& new_object);
  Status UpdateRootRecord(ObjectRef ref, const Tuple& new_root);
  Status Remove(ObjectRef ref);

  /// Seals the transaction: appends the kTxnCommit marker and (under
  /// kAlways/kGroup) waits for it to be durable. After OK, every op in the
  /// transaction survives crash recovery.
  Status Commit();

  /// Undoes every applied op in reverse order via logical compensations,
  /// then appends the kTxnAbort marker. The handle is closed either way;
  /// a failed compensation poisons no state a reopen cannot fix (the WAL
  /// skips the whole transaction).
  Status Rollback();

  /// Log-visible transaction id (non-zero).
  uint64_t id() const { return id_; }
  /// True until Commit()/Rollback() (or a move) closes the handle.
  bool open() const { return open_; }

 private:
  friend class ComplexObjectStore;
  struct UndoRecord {
    WalRecordKind kind;  ///< compensation op kind
    ObjectRef ref;
    std::string body;  ///< compensation body, WAL op-body encoding
  };
  StoreTransaction(ComplexObjectStore* store, uint64_t id)
      : store_(store), id_(id), open_(true) {}

  ComplexObjectStore* store_ = nullptr;
  uint64_t id_ = 0;
  bool open_ = false;
  std::vector<UndoRecord> undo_;  ///< in-memory undo stack, pushed per op
};

/// A handle for running queries against an open store from one reader
/// thread — the store's single-writer / multi-reader contract made
/// explicit in the type system.
///
/// Any number of ReadSessions may run concurrently (each on its own
/// thread) against one store, PROVIDED
///   * the store was opened with `buffer_shards != 1` (a thread-safe
///     buffer pool), and
///   * no write API (Put/Replace/Remove/UpdateRootRecord/Flush) and no
///     cache-structure API (engine()->DropCache(), ResetStats) runs while
///     reader threads are active: quiesce the readers, write, resume.
///     Writers MAY run concurrently with each other (since the WAL PR):
///     each op locks only the segments it touches (the model's write-latch
///     set), so ops on disjoint segments — different stripes of a striped
///     direct model — apply truly in parallel, and the durability wait
///     overlaps across threads via group commit (docs/WAL.md). Concurrent
///     writers are safe, readers-vs-writers are not.
///
/// The session itself carries no mutable state — every read path underneath
/// (storage model lookup tables, record manager, serializer) is const over
/// in-memory structures and goes through the thread-safe buffer pool, which
/// is what makes a plain forwarding handle sufficient. The store must
/// outlive its sessions.
class ReadSession {
 public:
  /// Retrieves an object (or the projected part of it) by reference.
  Result<Tuple> Get(ObjectRef ref, const Projection& projection) const;
  Result<Tuple> Get(ObjectRef ref) const;

  /// Retrieves an object by key value.
  Result<Tuple> GetByKey(int64_t key, const Projection& projection) const;

  /// Visits every object.
  Status Scan(const Projection& projection, const ScanCallback& fn) const;

  /// References this object makes to other objects.
  Result<std::vector<ObjectRef>> Children(ObjectRef ref) const;

  /// The object's root record (atomic/link attributes only).
  Result<Tuple> RootRecord(ObjectRef ref) const;

  const ComplexObjectStore* store() const { return store_; }

 private:
  friend class ComplexObjectStore;
  explicit ReadSession(ComplexObjectStore* store) : store_(store) {}

  ComplexObjectStore* store_;
};

/// A complex-object store over one schema.
class ComplexObjectStore {
 public:
  /// Opens a store for objects of `schema`: fresh for the mem backend,
  /// fresh-or-reopened for the mmap backend (see StoreOptions::path).
  static Result<std::unique_ptr<ComplexObjectStore>> Open(
      std::shared_ptr<const Schema> schema, StoreOptions options = {});

  /// Persistent stores checkpoint their catalog on destruction. A failed
  /// destructor checkpoint is LOGGED to stderr but lost as a Status — call
  /// Close() first when you need the verdict.
  ~ComplexObjectStore();

  /// Explicit close: checkpoints a mutated persistent store (exactly the
  /// destructor's fallback, but the failure is returned instead of
  /// swallowed). Idempotent; after an OK Close the destructor rewrites
  /// nothing. Refuses (FailedPrecondition) while a transaction is open.
  Status Close();

  /// Opens a multi-op transaction. See StoreTransaction for the contract.
  Result<StoreTransaction> Begin();

  /// Stores a new object under `ref`. Keys must be unique.
  Status Put(ObjectRef ref, const Tuple& object);

  /// Retrieves an object (or the projected part of it) by reference.
  Result<Tuple> Get(ObjectRef ref, const Projection& projection);
  Result<Tuple> Get(ObjectRef ref);

  /// Retrieves an object by key value.
  Result<Tuple> GetByKey(int64_t key, const Projection& projection);

  /// Visits every object.
  Status Scan(const Projection& projection, const ScanCallback& fn);

  /// References this object makes to other objects.
  Result<std::vector<ObjectRef>> Children(ObjectRef ref);

  /// The object's root record (atomic/link attributes only).
  Result<Tuple> RootRecord(ObjectRef ref);

  /// Replaces the root record's atomic/link attributes.
  Status UpdateRootRecord(ObjectRef ref, const Tuple& new_root);

  /// Replaces the whole object (structure changes allowed; key immutable).
  Status Replace(ObjectRef ref, const Tuple& new_object);

  /// Removes the object and releases its pages.
  Status Remove(ObjectRef ref);

  /// Opens a read session: a handle for running Get/Scan queries from one
  /// reader thread. See ReadSession for the single-writer / multi-reader
  /// contract; concurrent sessions require options.buffer_shards != 1.
  ReadSession OpenReadSession() { return ReadSession(this); }

  /// Write-back of all dirty pages ("disconnect"). Persistent stores also
  /// checkpoint durably: volume sync (page images + allocator journal)
  /// first, then a NEW catalog generation file (catalog.<gen>.sf, fsync'd),
  /// then the atomic CURRENT repoint that commits it — a crash anywhere in
  /// between leaves the previous committed generation intact. See
  /// core/generations.h for the protocol.
  Status Flush();

  /// True when this store survives process restarts (mmap or direct
  /// backend + path; the two share one on-disk format).
  bool persistent() const {
    return options_.backend == VolumeKind::kMmap ||
           options_.backend == VolumeKind::kDirect;
  }

  /// Generation of the committed catalog this store runs on: what Open
  /// resolved (0 for a fresh store), advanced by every durable
  /// Flush.
  uint64_t catalog_generation() const { return generation_; }

  /// True when Open skipped a corrupt newer generation and recovered the
  /// next-older committed one (the fuzz/crash tests assert on this).
  bool opened_from_fallback() const { return fallback_; }

  /// Number of committed-but-uncheckpointed WAL records Open replayed (0
  /// after a clean close, or when recovery went through the scrub path).
  uint64_t replayed_wal_records() const { return replayed_wal_records_; }

  /// The store's write-ahead log, or nullptr (mem backend).
  /// Tests read LSNs and poison state through this.
  WalManager* wal() { return wal_.get(); }

  /// Estimated milliseconds charged by the TimedVolume wrapper, or 0 when
  /// `options.timed_volume` was not set. Unlike EstimatedIoMillis() (which
  /// converts the counter snapshot after the fact), this accumulates per
  /// I/O call as the work happens.
  double timed_millis() const {
    TimedVolume* timed = engine_->timed_volume();
    return timed != nullptr ? timed->elapsed_ms() : 0.0;
  }

  /// Counter snapshot (physical I/O + buffer).
  EngineStats stats() const { return engine_->stats(); }
  void ResetStats() {
    engine_->ResetStats();
    if (objcache_ != nullptr) objcache_->ResetStats();
  }

  /// Assembly-level counter snapshot — the object-cache analog of the
  /// page-level stats(). All zeros when the cache is disabled.
  ObjCacheStats objcache_stats() const {
    return objcache_ != nullptr ? objcache_->stats() : ObjCacheStats{};
  }

  /// The object cache, or nullptr when disabled. Tests and benches reach
  /// epochs and direct invalidation through this.
  ObjectCache* object_cache() { return objcache_.get(); }

  /// Wholesale cache invalidation. Callers mutating records through
  /// model()/engine() (which bypasses the store's write path and therefore
  /// its invalidation hook) must call this before reading via Get again.
  void InvalidateObjectCache() {
    if (objcache_ != nullptr) objcache_->Clear();
  }

  /// Estimated I/O service time of the work since the last ResetStats,
  /// under the configured Equation-1 timing model.
  double EstimatedIoMillis() const {
    return options_.timing.Cost(engine_->stats().io);
  }

  const StoreOptions& options() const { return options_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  /// Direct access to the layers underneath (benches and calibration read
  /// counters and drop caches through these). Mutating records through
  /// them BYPASSES the store's dirty tracking: a persistent store only
  /// checkpoints at close when its own write API ran — callers mutating
  /// at this level must call Flush() themselves.
  StorageModel* model() { return model_.get(); }
  StorageEngine* engine() { return engine_.get(); }

 private:
  friend class StoreTransaction;

  ComplexObjectStore() = default;

  /// Serializes the catalog payload (store header + engine segment catalog
  /// + model state) — the bytes a generation file frames and checksums.
  /// `wal_checkpoint_lsn` is the payload's log-truncation point.
  Status BuildCatalogPayload(std::string* payload,
                             uint64_t wal_checkpoint_lsn) const;

  /// Open-time WAL attach + recovery of a persistent store: scans the log,
  /// decides replay vs scrub, installs pre-images and re-runs the
  /// committed tail, wires the buffer-pool hooks. `reopen` = a committed
  /// catalog was loaded; `checkpoint_lsn` = its truncation point.
  Status AttachWalAndRecover(bool reopen, uint64_t checkpoint_lsn);

  /// Re-applies one logged op through the normal model write path (replay
  /// only; capture and logging are off).
  Status ReplayOp(const WalRecord& record);

  /// One logged write op: capture + apply + append + stamp under the op's
  /// write-latch set (every segment the model says the op can touch, locked
  /// in address order — held across all three so per-page LSN order is
  /// apply order), then the policy-dependent commit wait outside every
  /// lock. `txn` non-null runs the op inside that transaction: its id and
  /// logical undo ride in the WAL record, the undo is pushed on the
  /// transaction's stack, and the per-op durability wait is skipped (the
  /// commit marker pays it once).
  /// `compensating` marks a rollback compensation: the op is tagged with
  /// the transaction id but captures no undo of its own (it IS the undo)
  /// and pushes nothing on the stack being unwound.
  Status LoggedWrite(WalRecordKind kind,
                     const std::function<Status()>& apply,
                     uint64_t ref, std::string body,
                     StoreTransaction* txn = nullptr,
                     bool compensating = false);

  /// Applies one logical op (WAL op-body encoding) through the model write
  /// path — the shared core of WAL replay and rollback compensations.
  Status ApplyLogicalOp(WalRecordKind kind, ObjectRef ref,
                        std::string_view body);

  /// Reads the state `kind` on `ref` is about to clobber and encodes the
  /// compensation that would restore it (empty body for kPut ⇒ kRemove).
  /// NotFound from the read maps to "no undo yet" for ops whose apply will
  /// fail anyway.
  Result<StoreTransaction::UndoRecord> CaptureUndo(WalRecordKind kind,
                                                   ObjectRef ref);

  /// Appends a txn marker record and (for kTxnCommit under kAlways/kGroup)
  /// waits for durability.
  Status AppendTxnMarker(WalRecordKind kind, uint64_t txn_id, bool wait);

  /// The write ops' shared bodies: encode the WAL op body, then LoggedWrite
  /// (autonomous when `txn` is null, transactional otherwise).
  Status DoPut(ObjectRef ref, const Tuple& object, StoreTransaction* txn);
  Status DoReplace(ObjectRef ref, const Tuple& new_object,
                   StoreTransaction* txn);
  Status DoUpdateRootRecord(ObjectRef ref, const Tuple& new_root,
                            StoreTransaction* txn);
  Status DoRemove(ObjectRef ref, StoreTransaction* txn);

  /// Re-applies one undo record as a logged compensation (Rollback's loop
  /// body): same txn id, no undo capture, no per-op durability wait.
  Status ApplyCompensation(const StoreTransaction::UndoRecord& undo,
                           StoreTransaction* txn);

  /// The model read behind every store Get: first reads the pages the
  /// model names up front (StorageModel::CollectReadPages) in ONE chained
  /// call when there are at least two, then assembles through GetByRef,
  /// whose fixes now hit. A failed prefetch returns its Status before any
  /// page is pinned. Model-level GetByRef (what the paper benches drive)
  /// keeps its one-call-per-relation pattern.
  Result<Tuple> ReadObject(ObjectRef ref, const Projection& projection);

  /// Get through the object cache (objcache_ != nullptr): serve hits by
  /// decoding the entry's image, assemble misses under a read-page capture
  /// and publish their images epoch-guarded.
  Result<Tuple> CachedGet(ObjectRef ref, const Projection& projection);

  /// Write-path invalidation: drops every cached assembly a just-applied
  /// op could have staled (its dirtied pages + its target ref), BEFORE the
  /// op is acknowledged. `dirtied` is the WAL write capture's page list
  /// (empty on the mem path, where ref-based invalidation carries alone).
  void InvalidateForWrite(ObjectRef ref, const std::vector<PageId>& dirtied);

  StoreOptions options_;
  std::shared_ptr<const Schema> schema_;
  /// Write-ahead log of a persistent store (null for mem). Owns wal.log in
  /// options_.path.
  /// Declared BEFORE engine_: the buffer pool's teardown flush calls the
  /// ordering hook, so the manager must outlive it.
  std::unique_ptr<WalManager> wal_;
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<StorageModel> model_;
  /// Assembled-object cache (null = disabled). Created EMPTY at the end of
  /// Open, after WAL replay / the fallback scrub ran — reopening is itself
  /// the wholesale invalidation the crash contract requires.
  std::unique_ptr<ObjectCache> objcache_;
  /// Set once Open fully succeeded; gates the destructor's checkpoint.
  bool opened_ = false;
  /// Set by Close(): the destructor's fallback checkpoint already ran (or
  /// was explicitly requested and reported).
  std::atomic<bool> closed_{false};
  /// Committed generation this store runs on (0 = fresh).
  uint64_t generation_ = 0;
  /// Number the next checkpoint commits as. Always past every generation
  /// file ever seen in the directory, so an aborted checkpoint's leftover
  /// can never collide with a later commit.
  uint64_t next_generation_ = 1;
  bool fallback_ = false;
  /// Mutations since the last committed checkpoint; gates the destructor's
  /// best-effort Flush so a read-only run rewrites nothing. Atomic: set by
  /// writers holding only their per-segment latches.
  std::atomic<bool> dirty_{false};

  /// Serializes logged op bodies (Put/Replace region streams), undo
  /// images, and the object cache's entry images.
  std::unique_ptr<ObjectSerializer> serializer_;
  /// Volume page count at the committed checkpoint: pages below it need a
  /// first-touch pre-image (mirrors WalManager::SetCheckpointPageCount).
  uint64_t wal_checkpoint_page_count_ = 0;
  uint64_t replayed_wal_records_ = 0;
  /// Writer/checkpoint coordination. Write ops and txn markers take it
  /// SHARED — they exclude only each other's Flush, not each other; the
  /// actual mutual exclusion between ops is the per-segment write-latch
  /// set. Flush takes it EXCLUSIVE: the catalog payload, the checkpoint
  /// LSN and the flushed pages must describe ONE state, so every writer is
  /// drained first. Commit waits happen outside it — that overlap is the
  /// group-commit win. Reads stay unlocked: the no-reads-during-writes
  /// contract is unchanged.
  std::shared_mutex commit_mu_;
  /// Ids handed to Begin(); reset per open (safe: recovery ends with a
  /// truncating checkpoint, so ids never meet a previous run's records).
  std::atomic<uint64_t> next_txn_id_{1};
  /// Open transactions; Flush refuses while non-zero.
  std::atomic<uint32_t> open_txns_{0};
};

}  // namespace starfish
