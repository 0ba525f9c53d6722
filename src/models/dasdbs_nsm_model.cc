#include "models/dasdbs_nsm_model.h"

#include <algorithm>
#include <limits>

#include "util/coding.h"

namespace starfish {

namespace {
// key_of_ref_ sentinel for "ref not in use" (keys may legitimately be 0).
constexpr int64_t kNoKey = std::numeric_limits<int64_t>::min();

Status NoObject(ObjectRef ref) {
  return Status::NotFound("no object with ref " + std::to_string(ref));
}
}  // namespace

DasdbsNsmModel::DasdbsNsmModel(ModelConfig config, NsmDecomposition decomp)
    : StorageModel(std::move(config)), decomp_(std::move(decomp)) {}

Result<std::unique_ptr<DasdbsNsmModel>> DasdbsNsmModel::Create(
    StorageEngine* engine, ModelConfig config) {
  if (config.schema == nullptr) {
    return Status::InvalidArgument("model requires a schema");
  }
  STARFISH_ASSIGN_OR_RETURN(
      NsmDecomposition decomp,
      NsmDecomposition::Derive(config.schema, config.key_attr_index));
  auto model = std::unique_ptr<DasdbsNsmModel>(
      new DasdbsNsmModel(std::move(config), std::move(decomp)));
  for (const DecomposedRelation& rel : model->decomp_.relations()) {
    STARFISH_ASSIGN_OR_RETURN(
        Segment * segment,
        engine->OpenOrCreateSegment(
            "DASDBS-NSM_" +
            model->config().schema->path(rel.path).qualified_name));
    model->segments_.push_back(segment);
    model->stores_.push_back(std::make_unique<ComplexRecordStore>(segment));
    model->serializers_.push_back(std::make_unique<ObjectSerializer>(
        rel.path == kRootPath ? rel.flat_schema : rel.nested_schema));
  }
  return model;
}

Status DasdbsNsmModel::SaveState(std::string* out) const {
  PutFixed32(out, static_cast<uint32_t>(segments_.size()));
  for (const auto& store : stores_) PutFixed32(out, store->pool_first());
  PutFixed64(out, static_cast<uint64_t>(key_of_ref_.size()));
  for (int64_t key : key_of_ref_) PutFixed64(out, static_cast<uint64_t>(key));
  table_.SaveState(out);
  return Status::OK();
}

Status DasdbsNsmModel::LoadState(std::string_view* in) {
  uint32_t paths = 0;
  if (!GetFixed32(in, &paths)) {
    return Status::Corruption("dasdbs-nsm catalog: truncated header");
  }
  if (paths != segments_.size()) {
    return Status::Corruption("dasdbs-nsm catalog: path count mismatch "
                              "(schema changed since the store was written?)");
  }
  for (auto& store : stores_) {
    uint32_t pool_first = kInvalidPageId;
    if (!GetFixed32(in, &pool_first)) {
      return Status::Corruption("dasdbs-nsm catalog: truncated pool entry");
    }
    store->set_pool_first(pool_first);
  }
  uint64_t refs = 0;
  if (!GetFixed64(in, &refs)) {
    return Status::Corruption("dasdbs-nsm catalog: truncated object table");
  }
  // Bound the on-disk count (8 bytes per entry) before allocating.
  if (refs > in->size() / 8) {
    return Status::Corruption("dasdbs-nsm catalog: implausible table size");
  }
  key_of_ref_.assign(refs, kNoKey);
  ref_of_key_.clear();
  for (uint64_t i = 0; i < refs; ++i) {
    uint64_t key = 0;
    if (!GetFixed64(in, &key)) {
      return Status::Corruption("dasdbs-nsm catalog: truncated object table");
    }
    key_of_ref_[i] = static_cast<int64_t>(key);
    if (key_of_ref_[i] != kNoKey) {
      ref_of_key_[key_of_ref_[i]] = static_cast<ObjectRef>(i);
    }
  }
  return table_.LoadState(in);
}

Status DasdbsNsmModel::CollectLiveTids(std::vector<Tid>* out) const {
  for (int64_t key : key_of_ref_) {
    if (key == kNoKey) continue;
    auto tids_or = table_.Get(key);
    if (!tids_or.ok()) {
      // A ref'd key absent from the transformation table is catalog
      // damage; a partial live set would make the scrub destructive.
      return Status::Corruption("key " + std::to_string(key) +
                                " has no transformation entry: " +
                                tids_or.status().ToString());
    }
    const std::vector<Tid>& tids = tids_or.value();
    for (PathId p = 0; p < tids.size() && p < stores_.size(); ++p) {
      if (!tids[p].valid()) continue;
      out->push_back(tids[p]);
      STARFISH_ASSIGN_OR_RETURN(const Tid target,
                                stores_[p]->ForwardTarget(tids[p]));
      if (target.valid()) out->push_back(target);
    }
  }
  return Status::OK();
}

void DasdbsNsmModel::CollectWriteSegments(ObjectRef /*ref*/,
                                          std::vector<Segment*>* out) const {
  for (Segment* segment : segments_) out->push_back(segment);
}

Status DasdbsNsmModel::Insert(ObjectRef ref, const Tuple& object) {
  STARFISH_ASSIGN_OR_RETURN(ShreddedObject parts, decomp_.Shred(object));
  STARFISH_ASSIGN_OR_RETURN(int64_t key, KeyOf(object));
  if (ref_of_key_.count(key) > 0) {
    return Status::AlreadyExists("key " + std::to_string(key) +
                                 " already stored");
  }
  if (ref < key_of_ref_.size() && key_of_ref_[ref] != kNoKey) {
    return Status::AlreadyExists("ref " + std::to_string(ref) +
                                 " already stored");
  }

  std::vector<Tid> tids(decomp_.relations().size(), kInvalidTid);
  for (PathId p = 0; p < decomp_.relations().size(); ++p) {
    Tuple relation_tuple;
    if (p == kRootPath) {
      relation_tuple = parts[kRootPath][0];
    } else {
      STARFISH_ASSIGN_OR_RETURN(relation_tuple, decomp_.Nest(p, key, parts[p]));
    }
    STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                              serializers_[p]->ToRegions(relation_tuple));
    STARFISH_ASSIGN_OR_RETURN(tids[p], stores_[p]->Insert(regions));
  }
  table_.Put(key, tids);
  if (ref >= key_of_ref_.size()) key_of_ref_.resize(ref + 1, kNoKey);
  key_of_ref_[ref] = key;
  ref_of_key_[key] = ref;
  return Status::OK();
}

Status DasdbsNsmModel::ReplaceObject(ObjectRef ref, const Tuple& new_object) {
  if (ref >= key_of_ref_.size() || key_of_ref_[ref] == kNoKey) {
    return NoObject(ref);
  }
  const int64_t key = key_of_ref_[ref];
  STARFISH_ASSIGN_OR_RETURN(int64_t new_key, KeyOf(new_object));
  if (key != new_key) {
    return Status::InvalidArgument("object keys are immutable");
  }
  STARFISH_ASSIGN_OR_RETURN(ShreddedObject parts, decomp_.Shred(new_object));
  STARFISH_ASSIGN_OR_RETURN(std::vector<Tid> tids, table_.Get(key));
  for (PathId p = 0; p < decomp_.relations().size(); ++p) {
    Tuple relation_tuple;
    if (p == kRootPath) {
      relation_tuple = parts[kRootPath][0];
    } else {
      STARFISH_ASSIGN_OR_RETURN(relation_tuple, decomp_.Nest(p, key, parts[p]));
    }
    STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                              serializers_[p]->ToRegions(relation_tuple));
    STARFISH_ASSIGN_OR_RETURN(Tid new_tid, stores_[p]->Replace(tids[p], regions));
    tids[p] = new_tid;
  }
  table_.Put(key, tids);
  return Status::OK();
}

Status DasdbsNsmModel::Remove(ObjectRef ref) {
  if (ref >= key_of_ref_.size() || key_of_ref_[ref] == kNoKey) {
    return NoObject(ref);
  }
  const int64_t key = key_of_ref_[ref];
  STARFISH_ASSIGN_OR_RETURN(std::vector<Tid> tids, table_.Get(key));
  for (PathId p = 0; p < decomp_.relations().size(); ++p) {
    STARFISH_RETURN_NOT_OK(stores_[p]->Delete(tids[p]));
  }
  STARFISH_RETURN_NOT_OK(table_.Erase(key));
  key_of_ref_[ref] = kNoKey;
  ref_of_key_.erase(key);
  return Status::OK();
}

Result<std::vector<Tuple>> DasdbsNsmModel::ReadRelationTuple(PathId path,
                                                             const Tid& tid) {
  STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                            stores_[path]->ReadAll(tid));
  STARFISH_ASSIGN_OR_RETURN(Tuple nested,
                            serializers_[path]->FromRegionsAll(regions));
  return decomp_.Unnest(path, nested);
}

Result<Tuple> DasdbsNsmModel::AssembleFrom(const std::vector<Tid>& tids,
                                           const Projection& proj) {
  ShreddedObject parts(decomp_.relations().size());
  {
    STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                              stores_[kRootPath]->ReadAll(tids[kRootPath]));
    STARFISH_ASSIGN_OR_RETURN(Tuple root_flat,
                              serializers_[kRootPath]->FromRegionsAll(regions));
    parts[kRootPath].push_back(std::move(root_flat));
  }
  for (PathId p = 1; p < decomp_.relations().size(); ++p) {
    if (!proj.Includes(p)) continue;
    STARFISH_ASSIGN_OR_RETURN(parts[p], ReadRelationTuple(p, tids[p]));
  }
  return decomp_.Assemble(parts, proj);
}

const std::vector<Tid>* DasdbsNsmModel::TidsOf(ObjectRef ref) const {
  return ref < key_of_ref_.size() ? table_.Find(key_of_ref_[ref]) : nullptr;
}

void DasdbsNsmModel::CollectReadPages(ObjectRef ref, const Projection& proj,
                                      std::vector<PageId>* out) const {
  const std::vector<Tid>* tids = TidsOf(ref);
  if (tids == nullptr) return;
  // Exactly the relations AssembleFrom reads: the root always, the rest
  // when projected. Each tuple's first page is the one its read fixes first.
  for (PathId p = 0; p < tids->size(); ++p) {
    if (p != kRootPath && !proj.Includes(p)) continue;
    if ((*tids)[p].valid()) out->push_back((*tids)[p].page);
  }
}

Result<Tuple> DasdbsNsmModel::GetByRef(ObjectRef ref, const Projection& proj) {
  const std::vector<Tid>* tids = TidsOf(ref);
  if (tids == nullptr) return NoObject(ref);
  return AssembleFrom(*tids, proj);
}

Result<Tuple> DasdbsNsmModel::GetByKey(int64_t key, const Projection& proj) {
  // Value selection on the root relation: scan it (the transformation table
  // is keyed by the very value we are selecting on, but the paper models
  // query 1b as a value scan of the root relation followed by addressed
  // fetches of the remaining tuples — Table 3: 120 pages = root scan + 4).
  bool found = false;
  STARFISH_RETURN_NOT_OK(stores_[kRootPath]->ScanObjects(
      [&](Tid, const std::vector<RecordRegion>& regions) -> Status {
        STARFISH_ASSIGN_OR_RETURN(
            Tuple flat, serializers_[kRootPath]->FromRegionsAll(regions));
        if (flat.values[config_.key_attr_index].as_int32() == key) {
          found = true;
        }
        return Status::OK();
      }));
  if (!found) {
    return Status::NotFound("no object with key " + std::to_string(key));
  }
  STARFISH_ASSIGN_OR_RETURN(std::vector<Tid> tids, table_.Get(key));
  return AssembleFrom(tids, proj);
}

Status DasdbsNsmModel::ScanAll(const Projection& proj, const ScanCallback& fn) {
  // Scan each projected relation segment sequentially; join in memory.
  std::vector<int64_t> key_order;
  std::unordered_map<int64_t, ShreddedObject> by_key;
  STARFISH_RETURN_NOT_OK(stores_[kRootPath]->ScanObjects(
      [&](Tid, const std::vector<RecordRegion>& regions) -> Status {
        STARFISH_ASSIGN_OR_RETURN(
            Tuple flat, serializers_[kRootPath]->FromRegionsAll(regions));
        const int64_t key = flat.values[config_.key_attr_index].as_int32();
        key_order.push_back(key);
        auto& parts = by_key[key];
        parts.resize(decomp_.relations().size());
        parts[kRootPath].push_back(std::move(flat));
        return Status::OK();
      }));
  for (PathId p = 1; p < decomp_.relations().size(); ++p) {
    if (!proj.Includes(p)) continue;
    STARFISH_RETURN_NOT_OK(stores_[p]->ScanObjects(
        [&](Tid, const std::vector<RecordRegion>& regions) -> Status {
          STARFISH_ASSIGN_OR_RETURN(Tuple nested,
                                    serializers_[p]->FromRegionsAll(regions));
          STARFISH_ASSIGN_OR_RETURN(std::vector<Tuple> flats,
                                    decomp_.Unnest(p, nested));
          if (nested.values.empty() || !nested.values[0].is_int32()) {
            return Status::Corruption("nested tuple without root key");
          }
          const int64_t key = nested.values[0].as_int32();
          auto it = by_key.find(key);
          if (it == by_key.end()) {
            return Status::Corruption("orphan relation tuple for key " +
                                      std::to_string(key));
          }
          it->second[p] = std::move(flats);
          return Status::OK();
        }));
  }
  for (int64_t key : key_order) {
    STARFISH_ASSIGN_OR_RETURN(Tuple object, decomp_.Assemble(by_key[key], proj));
    STARFISH_RETURN_NOT_OK(fn(key, object));
  }
  return Status::OK();
}

Result<std::vector<ObjectRef>> DasdbsNsmModel::GetChildRefs(ObjectRef ref) {
  const std::vector<Tid>* found = TidsOf(ref);
  if (found == nullptr) return NoObject(ref);
  const std::vector<Tid>& tids = *found;

  // Fast path: links confined to one non-root path — one addressed record
  // read, rows re-ordered by OwnKey (document order).
  PathId link_path = kRootPath;
  bool single = !decomp_.relation(kRootPath).has_links;
  if (single) {
    for (PathId p = 1; p < decomp_.relations().size(); ++p) {
      if (!decomp_.relation(p).has_links) continue;
      if (link_path != kRootPath) {
        single = false;
        break;
      }
      link_path = p;
    }
  }
  if (single) {
    std::vector<ObjectRef> refs;
    if (link_path == kRootPath) return refs;  // no links anywhere
    const DecomposedRelation& rel = decomp_.relation(link_path);
    STARFISH_ASSIGN_OR_RETURN(std::vector<Tuple> flats,
                              ReadRelationTuple(link_path, tids[link_path]));
    if (rel.has_own_key) {
      const size_t idx = static_cast<size_t>(rel.has_root_key) +
                         static_cast<size_t>(rel.has_parent_key);
      std::stable_sort(flats.begin(), flats.end(),
                       [idx](const Tuple& a, const Tuple& b) {
                         return a.values[idx].as_int32() <
                                b.values[idx].as_int32();
                       });
    }
    for (const Tuple& flat : flats) {
      for (size_t a = rel.data_offset; a < flat.values.size(); ++a) {
        if (flat.values[a].is_link()) refs.push_back(flat.values[a].as_link());
      }
    }
    return refs;
  }

  // General case (root links or several link paths): assemble the
  // link-projected object to preserve global document order.
  STARFISH_ASSIGN_OR_RETURN(Tuple object, AssembleFrom(tids, LinkProjection()));
  std::vector<ObjectRef> refs;
  CollectLinks(object, &refs);
  return refs;
}

Result<Tuple> DasdbsNsmModel::GetRootRecord(ObjectRef ref) {
  const std::vector<Tid>* tids = TidsOf(ref);
  if (tids == nullptr) return NoObject(ref);
  ShreddedObject parts(decomp_.relations().size());
  STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                            stores_[kRootPath]->ReadAll((*tids)[kRootPath]));
  STARFISH_ASSIGN_OR_RETURN(Tuple root_flat,
                            serializers_[kRootPath]->FromRegionsAll(regions));
  parts[kRootPath].push_back(std::move(root_flat));
  return decomp_.Assemble(parts, Projection::RootOnly(*config_.schema));
}

Status DasdbsNsmModel::UpdateRootRecord(ObjectRef ref, const Tuple& new_root) {
  if (ref >= key_of_ref_.size()) {
    return NoObject(ref);
  }
  const int64_t key = key_of_ref_[ref];
  STARFISH_ASSIGN_OR_RETURN(int64_t new_key, KeyOf(new_root));
  if (key != new_key) {
    return Status::InvalidArgument("object keys are immutable");
  }
  STARFISH_ASSIGN_OR_RETURN(std::vector<Tid> tids, table_.Get(key));
  const DecomposedRelation& rel = decomp_.relation(kRootPath);
  Tuple flat;
  for (size_t src : rel.data_source) {
    flat.values.push_back(new_root.values[src]);
  }
  STARFISH_ASSIGN_OR_RETURN(std::vector<RecordRegion> regions,
                            serializers_[kRootPath]->ToRegions(flat));
  STARFISH_ASSIGN_OR_RETURN(Tid new_tid,
                            stores_[kRootPath]->Replace(tids[kRootPath], regions));
  if (new_tid != tids[kRootPath]) {
    STARFISH_RETURN_NOT_OK(table_.Replace(key, tids[kRootPath], new_tid));
  }
  return Status::OK();
}

}  // namespace starfish
