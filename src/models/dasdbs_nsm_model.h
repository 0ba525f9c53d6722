#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "index/transformation_table.h"
#include "models/normalization.h"
#include "models/storage_model.h"
#include "nf2/serializer.h"
#include "storage/complex_record.h"

/// \file dasdbs_nsm_model.h
/// DASDBS-NSM (§3.4): normalized relations re-nested per object.
///
/// The flat NSM tuples of each path are nested on the root (and parent)
/// foreign keys, so each relation keeps exactly *one* tuple per object and
/// the foreign keys are not replicated into sibling tuples. That makes it
/// "efficient to keep an additional table (index) with a single entry per
/// object and a fixed and limited number of addresses in this entry" — the
/// transformation table, which maps the object key to the addresses of the
/// relation tuples that together store the object.
///
/// Access costs: by reference/key, each needed relation costs one addressed
/// record fetch (typically one page; the nested Sightseeing tuple spans
/// pages and costs header + data pages). Root-record updates touch one
/// small shared-page tuple — the reason DASDBS-NSM wins the update queries.

namespace starfish {

/// DASDBS-NSM implementation.
class DasdbsNsmModel : public StorageModel {
 public:
  static Result<std::unique_ptr<DasdbsNsmModel>> Create(StorageEngine* engine,
                                                        ModelConfig config);

  StorageModelKind kind() const override { return StorageModelKind::kDasdbsNsm; }

  Status Insert(ObjectRef ref, const Tuple& object) override;
  Result<Tuple> GetByRef(ObjectRef ref, const Projection& proj) override;
  Result<Tuple> GetByKey(int64_t key, const Projection& proj) override;
  Status ScanAll(const Projection& proj, const ScanCallback& fn) override;
  Result<std::vector<ObjectRef>> GetChildRefs(ObjectRef ref) override;
  Result<Tuple> GetRootRecord(ObjectRef ref) override;
  Status UpdateRootRecord(ObjectRef ref, const Tuple& new_root) override;
  Status ReplaceObject(ObjectRef ref, const Tuple& new_object) override;
  Status Remove(ObjectRef ref) override;
  uint64_t object_count() const override { return table_.size(); }
  Status SaveState(std::string* out) const override;
  Status LoadState(std::string_view* in) override;
  Status CollectLiveTids(std::vector<Tid>* out) const override;
  /// Every write op touches one relation tuple per path, so the write-latch
  /// set is every path segment.
  void CollectWriteSegments(ObjectRef ref,
                            std::vector<Segment*>* out) const override;
  /// The first page of the root tuple and of every projected relation
  /// tuple, straight from the transformation table.
  void CollectReadPages(ObjectRef ref, const Projection& proj,
                        std::vector<PageId>* out) const override;

  const NsmDecomposition& decomposition() const { return decomp_; }
  Segment* segment(PathId path) { return segments_[path]; }

  /// Addresses of the relation tuples storing object `key` (calibration).
  Result<std::vector<Tid>> AddressesOf(int64_t key) const {
    return table_.Get(key);
  }

  /// Placement info of one relation tuple (Table 2 calibration).
  Result<ComplexRecordInfo> RecordInfo(PathId path, int64_t key) const {
    STARFISH_ASSIGN_OR_RETURN(std::vector<Tid> tids, table_.Get(key));
    return stores_[path]->GetInfo(tids[path]);
  }

 private:
  DasdbsNsmModel(ModelConfig config, NsmDecomposition decomp);

  /// The per-path addresses of the object under `ref` (no copy), or
  /// nullptr when no object is stored there.
  const std::vector<Tid>* TidsOf(ObjectRef ref) const;

  /// Reads and un-nests the relation tuple of `path` at `tid` into flat
  /// NSM rows.
  Result<std::vector<Tuple>> ReadRelationTuple(PathId path, const Tid& tid);

  /// Assembles an object from the per-path addresses in `tids`, honouring
  /// the projection.
  Result<Tuple> AssembleFrom(const std::vector<Tid>& tids,
                             const Projection& proj);

  NsmDecomposition decomp_;
  std::vector<Segment*> segments_;  // per path
  std::vector<std::unique_ptr<ComplexRecordStore>> stores_;  // per path
  std::vector<std::unique_ptr<ObjectSerializer>> serializers_;  // per path
  // In-memory maps (uncounted, per the paper's accounting).
  TransformationTable table_;  // key -> one Tid per path
  std::vector<int64_t> key_of_ref_;
  std::unordered_map<int64_t, ObjectRef> ref_of_key_;
};

}  // namespace starfish
