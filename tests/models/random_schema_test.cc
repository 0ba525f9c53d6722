// Property test: the storage models and the decomposition machinery are
// schema-generic. Random NF² schemas (random nesting, links anywhere) and
// random objects must round-trip through every storage model.
//
// Reproduce: STARFISH_SEED=<printed seed> overrides every case's seed, so
// any one gtest filter match replays the failing schema exactly.

#include <gtest/gtest.h>

#include "../support/env_seed.h"
#include "../support/random_schema.h"
#include "models/model_factory.h"
#include "util/random.h"

namespace starfish {
namespace {

using test::Links;
using test::RandomSchema;
using test::RandomTuple;

struct RandomSchemaCase {
  uint64_t seed;
  int max_depth;
};

class RandomSchemaTest : public ::testing::TestWithParam<RandomSchemaCase> {};

TEST_P(RandomSchemaTest, AllModelsRoundTripRandomSchemas) {
  const uint64_t seed = test::TestSeed(GetParam().seed);
  SCOPED_TRACE("STARFISH_SEED=" + std::to_string(seed));
  Rng rng(seed);
  auto schema = RandomSchema(&rng, 0, GetParam().max_depth, "T");
  constexpr uint64_t kObjects = 12;
  std::vector<Tuple> objects;
  for (uint64_t i = 0; i < kObjects; ++i) {
    objects.push_back(RandomTuple(&rng, *schema, static_cast<int32_t>(i) + 1,
                                  kObjects, /*is_root=*/true));
  }

  for (StorageModelKind kind : AllStorageModelKinds()) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " model " + ToString(kind));
    StorageEngine engine;
    ModelConfig mc;
    mc.schema = schema;
    mc.key_attr_index = 0;
    auto model = CreateStorageModel(kind, &engine, mc);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    for (uint64_t i = 0; i < kObjects; ++i) {
      ASSERT_TRUE((*model)->Insert(i, objects[i]).ok());
    }

    const Projection all = Projection::All(*schema);
    for (uint64_t i = 0; i < kObjects; ++i) {
      auto got = (*model)->GetByKey(static_cast<int64_t>(i) + 1, all);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), objects[i]) << "object " << i;

      auto children = (*model)->GetChildRefs(i);
      ASSERT_TRUE(children.ok());
      std::vector<ObjectRef> expected;
      Links(*schema, objects[i], &expected);
      EXPECT_EQ(children.value(), expected) << "object " << i;
    }

    // Structural replace of a third of the objects with fresh random data.
    for (uint64_t i = 0; i < kObjects; i += 3) {
      Tuple replacement = RandomTuple(&rng, *schema, static_cast<int32_t>(i) + 1,
                                      kObjects, /*is_root=*/true);
      ASSERT_TRUE((*model)->ReplaceObject(i, replacement).ok());
      auto got = (*model)->GetByKey(static_cast<int64_t>(i) + 1, all);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), replacement);
      objects[i] = std::move(replacement);
    }

    // Remove a couple and verify the scan shrinks accordingly.
    ASSERT_TRUE((*model)->Remove(1).ok());
    ASSERT_TRUE((*model)->Remove(5).ok());
    size_t count = 0;
    ASSERT_TRUE((*model)->ScanAll(all, [&](int64_t key, const Tuple& t) {
      EXPECT_EQ(t, objects[static_cast<size_t>(key - 1)]);
      ++count;
      return Status::OK();
    }).ok());
    EXPECT_EQ(count, kObjects - 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomSchemaTest,
    ::testing::Values(RandomSchemaCase{101, 1}, RandomSchemaCase{102, 2},
                      RandomSchemaCase{103, 2}, RandomSchemaCase{104, 3},
                      RandomSchemaCase{105, 3}, RandomSchemaCase{106, 3},
                      RandomSchemaCase{107, 2}, RandomSchemaCase{108, 1}),
    [](const ::testing::TestParamInfo<RandomSchemaCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_depth" +
             std::to_string(info.param.max_depth);
    });

}  // namespace
}  // namespace starfish
