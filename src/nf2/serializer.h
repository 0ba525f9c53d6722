#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "nf2/projection.h"
#include "nf2/schema.h"
#include "nf2/value.h"
#include "storage/complex_record.h"
#include "util/status.h"

/// \file serializer.h
/// Mapping between NF² tuples and tagged storage regions.
///
/// An object is serialized into one region per tuple, in depth-first
/// document order: the root tuple's flat image first, then for each
/// sub-tuple its flat image followed by its own descendants. A tuple's flat
/// image stores atomic/link attributes inline and, for each relation-valued
/// attribute, only the count of sub-tuples — the "minimum amount of
/// structure information" DASDBS kept with the data. Reassembly walks the
/// regions in order, consuming counts.
///
/// Region tags encode `path | (ordinal << 16)`: the low 16 bits name the
/// tuple-type path (what projections select), the high bits the per-path
/// ordinal within the object (diagnostics + integrity checks).
///
/// Flat attribute encoding: Int32 — 4 bytes LE; String — u16 length +
/// bytes; Link — u64; Relation — u16 sub-tuple count.
///
/// Object image: the same flat images, in the same DFS order, concatenated
/// with no per-region framing (no tags, no lengths) — exactly the bytes of
/// ToRegions' regions laid end to end. The counts inside each flat image
/// are the only structure, and they suffice: a tuple's flat image is
/// followed by the images of its sub-tuples, relation attribute by
/// relation attribute. The object cache keeps hot objects in this form
/// (one contiguous string per object instead of a heap tree of Tuples).
/// DecodeImage reads it in one pass: it sizes every vector from the
/// stored counts and skips, without materializing, the sub-trees of
/// unselected paths.

namespace starfish {

/// Serializer bound to one root schema.
class ObjectSerializer {
 public:
  explicit ObjectSerializer(std::shared_ptr<const Schema> root);

  const std::shared_ptr<const Schema>& schema() const { return root_; }

  /// Serializes a full object into DFS-ordered regions.
  Result<std::vector<RecordRegion>> ToRegions(const Tuple& object) const;

  /// Reassembles an object from regions produced by ToRegions (possibly
  /// filtered by `projection` — regions of unselected paths must be absent).
  /// Unselected relation attributes come back as empty relations.
  Result<Tuple> FromRegions(const std::vector<RecordRegion>& regions,
                            const Projection& projection) const;

  /// Reassembles a full object (all paths present).
  Result<Tuple> FromRegionsAll(const std::vector<RecordRegion>& regions) const {
    return FromRegions(regions, Projection::All(*root_));
  }

  /// Encodes `object` as one contiguous object image (see the file
  /// comment). The string is sized exactly. `object` must conform to the
  /// root schema (ValidateTuple); assemblies read from a model always do.
  std::string EncodeImage(const Tuple& object) const;

  /// Decodes an object image, with FromRegions' partial-read contract:
  /// unselected relation attributes come back as empty relations.
  /// Corruption when the image is truncated, has trailing bytes, or
  /// stores a sub-tuple count its remaining bytes cannot hold.
  Result<Tuple> DecodeImage(std::string_view image,
                            const Projection& projection) const;

  /// Decodes only the root tuple of an object image (relation attributes
  /// come back empty — the shape of StorageModel::GetRootRecord). Reads
  /// the root's flat image and nothing after it.
  Result<Tuple> DecodeImageRoot(std::string_view image) const;

  /// The link values of an object image in attribute order, recursively —
  /// the order of StorageModel::GetChildRefs, also where a relation
  /// attribute precedes a link attribute. Allocates only the result.
  Result<std::vector<uint64_t>> ImageLinks(std::string_view image) const;

  /// Encodes the flat image (atomics, links, sub-tuple counts) of one tuple
  /// of type `schema`.
  static std::string EncodeFlat(const Schema& schema, const Tuple& tuple);

  /// Like EncodeFlat, but relation-valued attributes take their counts from
  /// `counts` (attribute order) instead of the tuple's relation values.
  /// Used by in-place root-record updates, which must preserve the stored
  /// sub-tuple counts without materializing the sub-tuples.
  static std::string EncodeFlatWithCounts(const Schema& schema,
                                          const Tuple& tuple,
                                          const std::vector<uint32_t>& counts);

  /// Decodes a flat image. Relation attributes become empty relations;
  /// their stored counts are returned in `counts` (one entry per relation
  /// attribute, in attribute order) when non-null.
  static Result<Tuple> DecodeFlat(const Schema& schema, std::string_view bytes,
                                  std::vector<uint32_t>* counts = nullptr);

  /// Size in bytes of the flat image of `tuple` under `schema`.
  static uint32_t FlatSize(const Schema& schema, const Tuple& tuple);

  static PathId TagPath(uint32_t tag) { return static_cast<PathId>(tag & 0xFFFF); }
  static uint32_t TagOrdinal(uint32_t tag) { return tag >> 16; }
  static uint32_t MakeTag(PathId path, uint32_t ordinal) {
    return (ordinal << 16) | path;
  }

 private:
  Status AppendTuple(const Schema& schema, PathId path, const Tuple& tuple,
                     std::vector<uint32_t>* ordinals,
                     std::vector<RecordRegion>* out) const;

  Status ConsumeTuple(const Schema& schema, PathId path,
                      const std::vector<RecordRegion>& regions, size_t* cursor,
                      const Projection& projection, Tuple* out) const;

  void AppendImage(PathId path, const Tuple& tuple, std::string* out) const;

  /// Walks the image sub-tree of one tuple of `path` from the front of
  /// `*in`, consuming it. Decodes it into `out` when non-null (only the
  /// paths `projection` selects; the rest are skipped), and appends its
  /// link values to `links` when non-null.
  Status WalkImage(PathId path, std::string_view* in,
                   const Projection* projection, Tuple* out,
                   std::vector<uint64_t>* links) const;

  /// Per-path facts the image walk needs, computed once per serializer.
  struct PathPlan {
    const Schema* schema = nullptr;
    std::vector<PathId> child;  ///< child path per attribute (relations)
    uint32_t min_bytes = 0;     ///< smallest possible flat image
    bool has_relation = false;
  };

  std::shared_ptr<const Schema> root_;
  std::vector<PathPlan> plans_;  ///< indexed by PathId
};

}  // namespace starfish
