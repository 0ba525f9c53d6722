#include "nf2/serializer.h"

#include "util/coding.h"

namespace starfish {

namespace {

/// Flat encoding size per AttrType, not counting a string's bytes (Int32,
/// String length prefix, Link, Relation count).
constexpr uint32_t kMinAttributeBytes[] = {4, 2, 8, 2};

/// Appends the flat image of `tuple`. Relation attributes store their
/// sub-tuple count: taken from `counts` (attribute order) when non-null,
/// else from the tuple's relation values.
void AppendFlat(const Schema& schema, const Tuple& tuple,
                const std::vector<uint32_t>* counts, std::string* out) {
  size_t rel_idx = 0;
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    const Value& value = tuple.values[i];
    switch (schema.attributes()[i].type) {
      case AttrType::kInt32:
        PutFixed32(out, static_cast<uint32_t>(value.as_int32()));
        break;
      case AttrType::kString:
        PutLengthPrefixed(out, value.as_string());
        break;
      case AttrType::kLink:
        PutFixed64(out, value.as_link());
        break;
      case AttrType::kRelation:
        PutFixed16(out, static_cast<uint16_t>(
                            counts != nullptr ? (*counts)[rel_idx++]
                                              : value.as_relation().size()));
        break;
    }
  }
}

/// The flat-format attribute reader every decoder here shares. Consumes
/// one attribute of type `type` from the front of `*in`; false when `*in`
/// is too short. Appends the value to `*values` unless null (a relation
/// appends an empty relation). `*word` receives the integer the attribute
/// carries: the Int32's bits, the link, or the relation's sub-tuple count
/// (0 for a string).
inline bool ReadAttribute(AttrType type, std::string_view* in,
                          std::vector<Value>* values, uint64_t* word) {
  const char* p = in->data();
  size_t n = 0;
  switch (type) {
    case AttrType::kInt32:
      if (in->size() < 4) return false;
      *word = DecodeFixed32(p);
      if (values != nullptr) {
        values->push_back(Value::Int32(static_cast<int32_t>(*word)));
      }
      n = 4;
      break;
    case AttrType::kString: {
      if (in->size() < 2) return false;
      const uint16_t len = DecodeFixed16(p);
      if (in->size() - 2 < len) return false;
      *word = 0;
      if (values != nullptr) {
        values->push_back(Value::Str(std::string(p + 2, len)));
      }
      n = 2 + static_cast<size_t>(len);
      break;
    }
    case AttrType::kLink:
      if (in->size() < 8) return false;
      *word = DecodeFixed64(p);
      if (values != nullptr) values->push_back(Value::Link(*word));
      n = 8;
      break;
    case AttrType::kRelation:
      if (in->size() < 2) return false;
      *word = DecodeFixed16(p);
      if (values != nullptr) values->push_back(Value::Relation({}));
      n = 2;
      break;
  }
  in->remove_prefix(n);
  return true;
}

/// Decodes the flat image at the front of `*in` and consumes it. Relation
/// counts go to `counts` (cleared first) when non-null.
Result<Tuple> DecodeFlatPrefix(const Schema& schema, std::string_view* in,
                               std::vector<uint32_t>* counts) {
  Tuple tuple;
  tuple.values.reserve(schema.attributes().size());
  if (counts != nullptr) counts->clear();
  for (const Attribute& attr : schema.attributes()) {
    uint64_t word = 0;
    if (!ReadAttribute(attr.type, in, &tuple.values, &word)) {
      return Status::Corruption("flat tuple of schema " + schema.name() +
                                " truncated");
    }
    if (attr.type == AttrType::kRelation && counts != nullptr) {
      counts->push_back(static_cast<uint32_t>(word));
    }
  }
  return tuple;
}

Status ImageTruncated(PathId path) {
  return Status::Corruption("object image truncated at path " +
                            std::to_string(path));
}

/// OK when a walk of a whole image consumed all of it.
Status ImageEnd(std::string_view rest) {
  if (rest.empty()) return Status::OK();
  return Status::Corruption("object image has " + std::to_string(rest.size()) +
                            " trailing bytes");
}

}  // namespace

ObjectSerializer::ObjectSerializer(std::shared_ptr<const Schema> root)
    : root_(std::move(root)), plans_(root_->path_count()) {
  for (PathId p = 0; p < plans_.size(); ++p) {
    PathPlan& plan = plans_[p];
    plan.schema = root_->path(p).schema;
    plan.child.assign(plan.schema->attributes().size(), kRootPath);
    for (const Attribute& attr : plan.schema->attributes()) {
      plan.min_bytes += kMinAttributeBytes[static_cast<size_t>(attr.type)];
      plan.has_relation |= attr.type == AttrType::kRelation;
    }
    if (p != kRootPath) {
      const PathInfo& info = root_->path(p);
      plans_[info.parent].child[info.attr_index] = p;
    }
  }
}

std::string ObjectSerializer::EncodeFlat(const Schema& schema,
                                         const Tuple& tuple) {
  std::string out;
  AppendFlat(schema, tuple, nullptr, &out);
  return out;
}

std::string ObjectSerializer::EncodeFlatWithCounts(
    const Schema& schema, const Tuple& tuple,
    const std::vector<uint32_t>& counts) {
  std::string out;
  AppendFlat(schema, tuple, &counts, &out);
  return out;
}

uint32_t ObjectSerializer::FlatSize(const Schema& schema, const Tuple& tuple) {
  uint32_t size = 0;
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    const AttrType type = schema.attributes()[i].type;
    size += kMinAttributeBytes[static_cast<size_t>(type)];
    if (type == AttrType::kString) {
      size += static_cast<uint32_t>(tuple.values[i].as_string().size());
    }
  }
  return size;
}

Result<Tuple> ObjectSerializer::DecodeFlat(const Schema& schema,
                                           std::string_view bytes,
                                           std::vector<uint32_t>* counts) {
  STARFISH_ASSIGN_OR_RETURN(Tuple tuple,
                            DecodeFlatPrefix(schema, &bytes, counts));
  if (!bytes.empty()) {
    return Status::Corruption("flat tuple of schema " + schema.name() +
                              " has trailing bytes");
  }
  return tuple;
}

std::string ObjectSerializer::EncodeImage(const Tuple& object) const {
  // Encode into per-thread scratch, then copy once into a string of
  // exactly the image's size (the cache charges what it holds).
  thread_local std::string scratch;
  scratch.clear();
  AppendImage(kRootPath, object, &scratch);
  return std::string(scratch);
}

void ObjectSerializer::AppendImage(PathId path, const Tuple& tuple,
                                   std::string* out) const {
  const PathPlan& plan = plans_[path];
  AppendFlat(*plan.schema, tuple, nullptr, out);
  if (!plan.has_relation) return;
  const std::vector<Attribute>& attrs = plan.schema->attributes();
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i].type != AttrType::kRelation) continue;
    for (const Tuple& sub : tuple.values[i].as_relation()) {
      AppendImage(plan.child[i], sub, out);
    }
  }
}

Result<Tuple> ObjectSerializer::DecodeImage(
    std::string_view image, const Projection& projection) const {
  Tuple object;
  STARFISH_RETURN_NOT_OK(
      WalkImage(kRootPath, &image, &projection, &object, nullptr));
  STARFISH_RETURN_NOT_OK(ImageEnd(image));
  return object;
}

Result<Tuple> ObjectSerializer::DecodeImageRoot(std::string_view image) const {
  return DecodeFlatPrefix(*root_, &image, nullptr);
}

Result<std::vector<uint64_t>> ObjectSerializer::ImageLinks(
    std::string_view image) const {
  std::vector<uint64_t> links;
  STARFISH_RETURN_NOT_OK(
      WalkImage(kRootPath, &image, nullptr, nullptr, &links));
  STARFISH_RETURN_NOT_OK(ImageEnd(image));
  return links;
}

Status ObjectSerializer::WalkImage(PathId path, std::string_view* in,
                                   const Projection* projection, Tuple* out,
                                   std::vector<uint64_t>* links) const {
  const PathPlan& plan = plans_[path];
  const std::vector<Attribute>& attrs = plan.schema->attributes();
  // Attribute values come from `*fields`. A leaf tuple's flat image is the
  // whole sub-tree, so that is `*in` itself. Otherwise the sub-trees start
  // right after the flat image: skip over it first, then read the values
  // from a second view of it while the sub-trees are consumed from `*in`
  // relation by relation — links then come out in attribute order.
  std::string_view flat = *in;
  std::string_view* fields = in;
  if (plan.has_relation) {
    for (const Attribute& attr : attrs) {
      uint64_t ignored = 0;
      if (!ReadAttribute(attr.type, in, nullptr, &ignored)) {
        return ImageTruncated(path);
      }
    }
    fields = &flat;
  }
  std::vector<Value>* values = out != nullptr ? &out->values : nullptr;
  if (values != nullptr) values->reserve(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    const AttrType type = attrs[i].type;
    uint64_t word = 0;
    if (!ReadAttribute(type, fields, values, &word)) {
      return ImageTruncated(path);
    }
    if (type == AttrType::kLink && links != nullptr) links->push_back(word);
    if (type != AttrType::kRelation) continue;
    const PathId child = plan.child[i];
    if (word * plans_[child].min_bytes > in->size()) {
      return Status::Corruption(
          "object image: " + std::to_string(word) + " sub-tuples of path " +
          std::to_string(child) + " cannot fit in " +
          std::to_string(in->size()) + " bytes");
    }
    if (values != nullptr && projection->Includes(child)) {
      std::vector<Tuple>& subs = values->back().as_relation();
      subs.resize(word);
      for (Tuple& sub : subs) {
        STARFISH_RETURN_NOT_OK(WalkImage(child, in, projection, &sub, links));
      }
    } else {
      // Unselected (or not decoding): consume the sub-trees unread.
      for (uint64_t j = 0; j < word; ++j) {
        STARFISH_RETURN_NOT_OK(WalkImage(child, in, nullptr, nullptr, links));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<RecordRegion>> ObjectSerializer::ToRegions(
    const Tuple& object) const {
  STARFISH_RETURN_NOT_OK(ValidateTuple(*root_, object));
  std::vector<RecordRegion> out;
  std::vector<uint32_t> ordinals(root_->path_count(), 0);
  STARFISH_RETURN_NOT_OK(
      AppendTuple(*root_, kRootPath, object, &ordinals, &out));
  return out;
}

Status ObjectSerializer::AppendTuple(const Schema& schema, PathId path,
                                     const Tuple& tuple,
                                     std::vector<uint32_t>* ordinals,
                                     std::vector<RecordRegion>* out) const {
  out->push_back(
      RecordRegion{MakeTag(path, (*ordinals)[path]++), EncodeFlat(schema, tuple)});
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    const Attribute& attr = schema.attributes()[i];
    if (attr.type != AttrType::kRelation) continue;
    const PathId child = plans_[path].child[i];
    for (const Tuple& sub : tuple.values[i].as_relation()) {
      STARFISH_RETURN_NOT_OK(AppendTuple(*attr.relation, child, sub, ordinals, out));
    }
  }
  return Status::OK();
}

Result<Tuple> ObjectSerializer::FromRegions(
    const std::vector<RecordRegion>& regions,
    const Projection& projection) const {
  size_t cursor = 0;
  Tuple object;
  STARFISH_RETURN_NOT_OK(ConsumeTuple(*root_, kRootPath, regions, &cursor,
                                      projection, &object));
  if (cursor != regions.size()) {
    return Status::Corruption("object has " +
                              std::to_string(regions.size() - cursor) +
                              " unconsumed regions");
  }
  return object;
}

Status ObjectSerializer::ConsumeTuple(const Schema& schema, PathId path,
                                      const std::vector<RecordRegion>& regions,
                                      size_t* cursor,
                                      const Projection& projection,
                                      Tuple* out) const {
  if (*cursor >= regions.size()) {
    return Status::Corruption("object truncated at path " +
                              std::to_string(path));
  }
  const RecordRegion& region = regions[*cursor];
  if (TagPath(region.tag) != path) {
    return Status::Corruption(
        "expected region of path " + std::to_string(path) + ", found " +
        std::to_string(TagPath(region.tag)));
  }
  ++*cursor;
  std::vector<uint32_t> counts;
  STARFISH_ASSIGN_OR_RETURN(*out, DecodeFlat(schema, region.bytes, &counts));

  size_t rel_idx = 0;
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    const Attribute& attr = schema.attributes()[i];
    if (attr.type != AttrType::kRelation) continue;
    const uint32_t count = counts[rel_idx++];
    const PathId child = plans_[path].child[i];
    if (!projection.Includes(child)) continue;  // regions absent by design
    std::vector<Tuple> subs;
    subs.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      Tuple sub;
      STARFISH_RETURN_NOT_OK(ConsumeTuple(*attr.relation, child, regions,
                                          cursor, projection, &sub));
      subs.push_back(std::move(sub));
    }
    out->values[i] = Value::Relation(std::move(subs));
  }
  return Status::OK();
}

}  // namespace starfish
