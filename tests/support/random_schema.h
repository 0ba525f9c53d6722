#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nf2/projection.h"
#include "nf2/schema.h"
#include "nf2/value.h"
#include "util/random.h"

/// \file random_schema.h
/// Random NF² schemas, conforming objects and projections for property
/// tests: random nesting, links anywhere (also after a relation attribute
/// of the same tuple type), plus the ground-truth link order every link
/// walk must reproduce.

namespace starfish::test {

/// Builds a random NF² schema: attribute 0 is the Int32 key; up to
/// `max_depth` levels of nesting; links sprinkled anywhere.
inline std::shared_ptr<const Schema> RandomSchema(Rng* rng, int depth,
                                                  int max_depth,
                                                  const std::string& name) {
  SchemaBuilder builder(name);
  if (depth == 0) builder.AddInt32("Key");
  const uint64_t n_attrs = 1 + rng->Uniform(4);
  for (uint64_t a = 0; a < n_attrs; ++a) {
    const std::string attr_name = "a" + std::to_string(depth) + "_" +
                                  std::to_string(a);
    switch (rng->Uniform(depth < max_depth ? 4 : 3)) {
      case 0:
        builder.AddInt32(attr_name);
        break;
      case 1:
        builder.AddString(attr_name);
        break;
      case 2:
        builder.AddLink(attr_name);
        break;
      default:
        builder.AddRelation(
            attr_name, RandomSchema(rng, depth + 1, max_depth,
                                    name + "_" + attr_name));
        break;
    }
  }
  return builder.Build();
}

/// Builds a random tuple conforming to `schema`.
inline Tuple RandomTuple(Rng* rng, const Schema& schema, int32_t key,
                         uint64_t n_objects, bool is_root) {
  Tuple tuple;
  bool first = true;
  for (const Attribute& attr : schema.attributes()) {
    if (first && is_root) {
      tuple.values.push_back(Value::Int32(key));
      first = false;
      continue;
    }
    first = false;
    switch (attr.type) {
      case AttrType::kInt32:
        tuple.values.push_back(
            Value::Int32(static_cast<int32_t>(rng->UniformInt(-1000, 1000))));
        break;
      case AttrType::kString:
        tuple.values.push_back(Value::Str(rng->RandomString(rng->Uniform(150))));
        break;
      case AttrType::kLink:
        tuple.values.push_back(Value::Link(rng->Uniform(n_objects)));
        break;
      case AttrType::kRelation: {
        std::vector<Tuple> subs;
        const uint64_t n = rng->Uniform(4);
        for (uint64_t s = 0; s < n; ++s) {
          subs.push_back(RandomTuple(rng, *attr.relation, 0, n_objects,
                                     /*is_root=*/false));
        }
        tuple.values.push_back(Value::Relation(std::move(subs)));
        break;
      }
    }
  }
  return tuple;
}

/// A random ancestor-closed projection: each path is kept with probability
/// 1/2 when its parent is kept (the root always is).
inline Projection RandomProjection(Rng* rng, const Schema& root) {
  std::vector<bool> kept(root.path_count(), false);
  std::vector<PathId> paths;
  for (PathId p = 0; p < root.path_count(); ++p) {
    // DFS pre-order: a parent's id is smaller than its children's.
    kept[p] = p == kRootPath || (kept[root.path(p).parent] && rng->Uniform(2));
    if (kept[p]) paths.push_back(p);
  }
  return Projection::OfPaths(root, paths).value();
}

/// Ground-truth link collection (document order).
inline void Links(const Schema& schema, const Tuple& tuple,
                  std::vector<uint64_t>* out) {
  for (size_t i = 0; i < schema.attributes().size(); ++i) {
    const Attribute& attr = schema.attributes()[i];
    if (attr.type == AttrType::kLink) {
      out->push_back(tuple.values[i].as_link());
    } else if (attr.type == AttrType::kRelation) {
      for (const Tuple& sub : tuple.values[i].as_relation()) {
        Links(*attr.relation, sub, out);
      }
    }
  }
}

}  // namespace starfish::test
