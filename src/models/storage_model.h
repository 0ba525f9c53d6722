#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "nf2/projection.h"
#include "nf2/schema.h"
#include "nf2/value.h"
#include "storage/storage_engine.h"
#include "util/status.h"

/// \file storage_model.h
/// The common interface of the paper's four complex-object storage models.
///
/// A storage model owns how one class of complex objects is fragmented and
/// placed on pages. All four models implement the same logical operations —
/// the benchmark queries are written once against this interface and the
/// models differ only in the physical I/O they cause:
///
///   * DSM           — direct, whole object clustered, no partial access
///   * DASDBS-DSM    — direct + object header, partial page access
///   * NSM           — normalized flat relations, value-based access
///                     (optional in-memory root-key index)
///   * DASDBS-NSM    — normalized, re-nested per object, transformation
///                     table from key to tuple addresses
///
/// Objects are named by an ObjectRef — the logical object number also used
/// as the LINK value in references. The direct models map it to a physical
/// address via their (uncounted, in-memory) object table, mirroring the
/// paper where "the physical reference ... is the address of the referred
/// Station". NSM has no object addresses; by-ref access is unsupported
/// there unless the index variant is used (the paper's "query 1a is not
/// relevant" for NSM).

namespace starfish {

/// Logical object identity; doubles as the LINK attribute payload.
using ObjectRef = uint64_t;

/// Model selector (factory + reporting).
enum class StorageModelKind {
  kDsm,
  kDasdbsDsm,
  kNsm,
  kNsmIndexed,
  kDasdbsNsm,
};

/// Human-readable model name as printed in the paper's tables.
std::string ToString(StorageModelKind kind);

/// Configuration shared by all models.
struct ModelConfig {
  /// Root schema of the stored objects.
  std::shared_ptr<const Schema> schema;

  /// Index of the root attribute holding the (unique) integer object key
  /// (the benchmark's Station.Key).
  size_t key_attr_index = 0;

  /// Number of independent write stripes for the direct models: objects are
  /// routed to stripe `ref % write_stripes`, each stripe owning its own
  /// segment (and hence its own write latch), so ops on different stripes
  /// apply in parallel at the store level. 1 (default) is the paper-exact
  /// single-segment layout, byte-identical to the unstriped code. Requires
  /// a thread-safe buffer pool (shard_count != 1) to actually run striped
  /// ops concurrently. The normalized models ignore this — their ops touch
  /// every path segment, so striping cannot decouple them.
  uint32_t write_stripes = 1;
};

/// Callback for full-database scans: (key, object).
using ScanCallback = std::function<Status(int64_t, const Tuple&)>;

/// Abstract storage model.
class StorageModel {
 public:
  virtual ~StorageModel() = default;

  virtual StorageModelKind kind() const = 0;
  std::string name() const { return ToString(kind()); }

  const ModelConfig& config() const { return config_; }

  /// Stores a new object under logical id `ref`. Keys must be unique.
  virtual Status Insert(ObjectRef ref, const Tuple& object) = 0;

  /// Query 1a: retrieve by object reference (physical address for the
  /// direct models). NotSupported for plain NSM.
  virtual Result<Tuple> GetByRef(ObjectRef ref, const Projection& proj) = 0;

  /// Query 1b: retrieve by key value (value-based selection).
  virtual Result<Tuple> GetByKey(int64_t key, const Projection& proj) = 0;

  /// Query 1c: retrieve every object.
  virtual Status ScanAll(const Projection& proj, const ScanCallback& fn) = 0;

  /// Query 2 navigation step: the references this object makes to other
  /// objects (its "children"), in document order. Reads only the sub-tuples
  /// that hold LINK attributes (plus their ancestors).
  virtual Result<std::vector<ObjectRef>> GetChildRefs(ObjectRef ref) = 0;

  /// Query 2 leaf step: the root record (atomic/link root attributes;
  /// relation attributes come back empty).
  virtual Result<Tuple> GetRootRecord(ObjectRef ref) = 0;

  /// Set-oriented navigation step: child references of several objects at
  /// once, one result entry per input. The benchmark queries are
  /// set-oriented — models without addresses (plain NSM) answer a whole
  /// batch with one relation scan instead of one scan per object.
  virtual Result<std::vector<std::vector<ObjectRef>>> GetChildRefsBatch(
      const std::vector<ObjectRef>& refs);

  /// Set-oriented root-record fetch, one result entry per input.
  virtual Result<std::vector<Tuple>> GetRootRecordsBatch(
      const std::vector<ObjectRef>& refs);

  /// Query 3: replace the atomic/link attributes of the root record. The
  /// object structure (sub-tuple sets) is unchanged. `new_root` is a root
  /// tuple whose relation-valued attributes are ignored.
  virtual Status UpdateRootRecord(ObjectRef ref, const Tuple& new_root) = 0;

  /// Replaces the whole object, structure changes included (sub-tuples may
  /// be added or removed) — the update class the paper's queries exclude
  /// ("the object structure is not changed") but real applications need.
  /// The key attribute must be unchanged.
  virtual Status ReplaceObject(ObjectRef ref, const Tuple& new_object) = 0;

  /// Removes the object and releases its pages. Dangling LINKs in other
  /// objects are the application's concern (as they were in DASDBS).
  virtual Status Remove(ObjectRef ref) = 0;

  /// False for plain NSM (no object identifiers).
  virtual bool SupportsGetByRef() const { return true; }

  /// Number of objects stored.
  virtual uint64_t object_count() const = 0;

  /// Serializes the model's in-memory tables (object tables, transformation
  /// tables, index roots) so a persistent store can rebuild them on reopen.
  /// Page contents are NOT included — they live in the volume.
  virtual Status SaveState(std::string* out) const = 0;

  /// Restores the state written by SaveState over a catalog-restored
  /// engine. The model must be freshly created (no objects inserted).
  virtual Status LoadState(std::string_view* in) = 0;

  /// Every record address (TID) the model's restored state considers live,
  /// forwarding targets included. Crash recovery scrubs shared slotted
  /// pages down to exactly this set: records a torn checkpoint persisted
  /// but never committed must not reappear as phantoms in scans, and the
  /// recomputed free space must not lie to future inserts. MUST fail
  /// rather than return a partial set — a truncated set would make the
  /// scrub delete live records as phantoms.
  virtual Status CollectLiveTids(std::vector<Tid>* out) const = 0;

  /// Appends every segment a write op on `ref` may touch (pages dirtied,
  /// allocated or freed) to `*out`. The store locks exactly this set (its
  /// write-latch set) around the op's apply — ops whose sets are disjoint
  /// run in parallel. Duplicates are fine; the store dedups. Must be
  /// correct for refs that do not exist yet (an Insert's target).
  virtual void CollectWriteSegments(ObjectRef ref,
                                    std::vector<Segment*>* out) const = 0;

  /// Appends the pages a GetByRef(ref, proj) will fix first, when the model
  /// knows them from its in-memory tables alone (no I/O). The store reads
  /// them in one chained call before assembling, so an object spread over
  /// several relations costs one device round trip instead of one per
  /// relation. Appends nothing for an absent ref. The default appends
  /// nothing: NSM has no addresses without a scan, and the direct models
  /// keep each object in one complex record that already reads chained.
  virtual void CollectReadPages(ObjectRef /*ref*/, const Projection& /*proj*/,
                                std::vector<PageId>* /*out*/) const {}

  /// The full current object under `ref`, read for logical-undo capture
  /// before an in-transaction Replace/Remove/UpdateRoot mutates it.
  /// Defaults to GetByRef with an all-projection; plain NSM (no by-ref
  /// access) overrides via its key map.
  virtual Result<Tuple> ReadObjectForUndo(ObjectRef ref);

 protected:
  explicit StorageModel(ModelConfig config) : config_(std::move(config)) {}

  /// Extracts the integer key from a root tuple.
  Result<int64_t> KeyOf(const Tuple& object) const;

  /// The minimal ancestor-closed projection covering every LINK attribute
  /// of the schema (what a navigation step must read).
  Projection LinkProjection() const;

  /// Collects the link values of `object` in document order.
  void CollectLinks(const Tuple& object, std::vector<ObjectRef>* out) const;

  ModelConfig config_;

 private:
  void CollectLinksRec(const Schema& schema, const Tuple& tuple,
                       std::vector<ObjectRef>* out) const;
};

}  // namespace starfish
