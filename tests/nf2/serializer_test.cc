#include "nf2/serializer.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../support/env_seed.h"
#include "../support/random_schema.h"
#include "benchmark/generator.h"
#include "benchmark/station_schema.h"
#include "util/coding.h"
#include "util/random.h"

namespace starfish {
namespace {

Tuple MakeStation(int32_t key, int platforms, int conns_per_platform,
                  int sights) {
  std::vector<Tuple> platform_tuples;
  for (int p = 0; p < platforms; ++p) {
    std::vector<Tuple> conns;
    for (int c = 0; c < conns_per_platform; ++c) {
      conns.push_back(Tuple{{Value::Int32(c), Value::Int32(key + c),
                             Value::Link(static_cast<uint64_t>(c)),
                             Value::Str("times-" + std::to_string(c))}});
    }
    platform_tuples.push_back(Tuple{{Value::Int32(p), Value::Int32(2),
                                     Value::Int32(p * 10),
                                     Value::Str("info"),
                                     Value::Relation(std::move(conns))}});
  }
  std::vector<Tuple> sight_tuples;
  for (int s = 0; s < sights; ++s) {
    sight_tuples.push_back(Tuple{{Value::Int32(s), Value::Str("d"),
                                  Value::Str("l"), Value::Str("h"),
                                  Value::Str("r")}});
  }
  return Tuple{{Value::Int32(key), Value::Int32(platforms),
                Value::Int32(sights), Value::Str("name"),
                Value::Relation(std::move(platform_tuples)),
                Value::Relation(std::move(sight_tuples))}};
}

class SerializerTest : public ::testing::Test {
 protected:
  std::shared_ptr<const Schema> schema_ = bench::MakeStationSchema();
  ObjectSerializer serializer_{schema_};
};

TEST_F(SerializerTest, RegionsInDocumentOrder) {
  const Tuple station = MakeStation(1, 2, 2, 1);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  // station, p0, c, c, p1, c, c, sight = 8 regions.
  ASSERT_EQ(regions->size(), 8u);
  std::vector<PathId> paths;
  for (const auto& region : regions.value()) {
    paths.push_back(ObjectSerializer::TagPath(region.tag));
  }
  EXPECT_EQ(paths, (std::vector<PathId>{0, 1, 2, 2, 1, 2, 2, 3}));
}

TEST_F(SerializerTest, OrdinalsCountPerPath) {
  const Tuple station = MakeStation(1, 2, 1, 2);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  std::vector<uint32_t> connection_ordinals;
  for (const auto& region : regions.value()) {
    if (ObjectSerializer::TagPath(region.tag) == 2) {
      connection_ordinals.push_back(ObjectSerializer::TagOrdinal(region.tag));
    }
  }
  EXPECT_EQ(connection_ordinals, (std::vector<uint32_t>{0, 1}));
}

TEST_F(SerializerTest, FullRoundTrip) {
  const Tuple station = MakeStation(7, 2, 2, 3);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  auto back = serializer_.FromRegionsAll(regions.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), station);
}

TEST_F(SerializerTest, EmptySubrelationsRoundTrip) {
  const Tuple station = MakeStation(7, 0, 0, 0);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  ASSERT_EQ(regions->size(), 1u);
  auto back = serializer_.FromRegionsAll(regions.value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), station);
}

TEST_F(SerializerTest, ProjectedRoundTripDropsUnselected) {
  const Tuple station = MakeStation(7, 2, 2, 3);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  auto proj = Projection::OfPaths(*schema_, {0, 1, 2});
  ASSERT_TRUE(proj.ok());
  // Filter regions as a partial read would.
  std::vector<RecordRegion> filtered;
  for (const auto& region : regions.value()) {
    if (proj->Includes(ObjectSerializer::TagPath(region.tag))) {
      filtered.push_back(region);
    }
  }
  auto back = serializer_.FromRegions(filtered, proj.value());
  ASSERT_TRUE(back.ok());
  Tuple expected = station;
  expected.values[bench::StationAttrs::kSightseeings] = Value::Relation({});
  EXPECT_EQ(back.value(), expected);
}

TEST_F(SerializerTest, RootOnlyProjection) {
  const Tuple station = MakeStation(9, 2, 1, 2);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  std::vector<RecordRegion> root_only{regions.value()[0]};
  auto back = serializer_.FromRegions(root_only,
                                      Projection::RootOnly(*schema_));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->values[0], station.values[0]);
  EXPECT_EQ(back->values[3], station.values[3]);
  EXPECT_TRUE(back->values[4].as_relation().empty());
}

TEST_F(SerializerTest, CorruptRegionOrderDetected) {
  const Tuple station = MakeStation(1, 1, 1, 1);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  std::swap(regions.value()[1], regions.value()[2]);  // platform <-> conn
  EXPECT_TRUE(serializer_.FromRegionsAll(regions.value())
                  .status().IsCorruption());
}

TEST_F(SerializerTest, TruncatedRegionsDetected) {
  const Tuple station = MakeStation(1, 1, 2, 0);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  regions->pop_back();  // drop last connection
  EXPECT_TRUE(serializer_.FromRegionsAll(regions.value())
                  .status().IsCorruption());
}

TEST_F(SerializerTest, TrailingRegionsDetected) {
  const Tuple station = MakeStation(1, 0, 0, 0);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  regions->push_back(RecordRegion{ObjectSerializer::MakeTag(3, 0), "junk"});
  EXPECT_TRUE(serializer_.FromRegionsAll(regions.value())
                  .status().IsCorruption());
}

TEST_F(SerializerTest, FlatEncodeDecodeWithCounts) {
  const Tuple station = MakeStation(5, 2, 1, 3);
  const std::string flat = ObjectSerializer::EncodeFlat(*schema_, station);
  std::vector<uint32_t> counts;
  auto back = ObjectSerializer::DecodeFlat(*schema_, flat, &counts);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->values[0], station.values[0]);
  EXPECT_EQ(counts, (std::vector<uint32_t>{2, 3}));  // platforms, sights
  EXPECT_TRUE(back->values[4].as_relation().empty());
}

TEST_F(SerializerTest, EncodeFlatWithCountsOverridesRelationSizes) {
  Tuple root = MakeStation(5, 0, 0, 0);
  const std::string bytes =
      ObjectSerializer::EncodeFlatWithCounts(*schema_, root, {7, 9});
  std::vector<uint32_t> counts;
  auto back = ObjectSerializer::DecodeFlat(*schema_, bytes, &counts);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(counts, (std::vector<uint32_t>{7, 9}));
}

TEST_F(SerializerTest, FlatSizeMatchesEncodedLength) {
  const Tuple station = MakeStation(5, 2, 1, 3);
  EXPECT_EQ(ObjectSerializer::FlatSize(*schema_, station),
            ObjectSerializer::EncodeFlat(*schema_, station).size());
}

TEST_F(SerializerTest, DecodeFlatRejectsTruncation) {
  const Tuple station = MakeStation(5, 0, 0, 0);
  std::string flat = ObjectSerializer::EncodeFlat(*schema_, station);
  flat.resize(flat.size() - 1);
  EXPECT_TRUE(ObjectSerializer::DecodeFlat(*schema_, flat)
                  .status().IsCorruption());
}

TEST_F(SerializerTest, DecodeFlatRejectsTrailingBytes) {
  const Tuple station = MakeStation(5, 0, 0, 0);
  std::string flat = ObjectSerializer::EncodeFlat(*schema_, station);
  flat += "extra";
  EXPECT_TRUE(ObjectSerializer::DecodeFlat(*schema_, flat)
                  .status().IsCorruption());
}

TEST_F(SerializerTest, TagHelpers) {
  const uint32_t tag = ObjectSerializer::MakeTag(3, 17);
  EXPECT_EQ(ObjectSerializer::TagPath(tag), 3u);
  EXPECT_EQ(ObjectSerializer::TagOrdinal(tag), 17u);
}

TEST_F(SerializerTest, RandomizedRoundTripsOverGeneratedObjects) {
  bench::GeneratorConfig config;
  config.n_objects = 40;
  config.seed = 99;
  auto db = bench::BenchmarkDatabase::Generate(config);
  ASSERT_TRUE(db.ok());
  ObjectSerializer serializer(db->schema());
  for (const auto& object : db->objects()) {
    auto regions = serializer.ToRegions(object.tuple);
    ASSERT_TRUE(regions.ok());
    auto back = serializer.FromRegionsAll(regions.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), object.tuple);
  }
}

// ------------------------------------------------------------ object image --

/// The image format's definition: ToRegions' region bytes end to end.
std::string ConcatRegions(const std::vector<RecordRegion>& regions) {
  std::string out;
  for (const RecordRegion& region : regions) out += region.bytes;
  return out;
}

TEST_F(SerializerTest, ImageIsTheRegionStreamUnframed) {
  const Tuple station = MakeStation(3, 2, 2, 1);
  auto regions = serializer_.ToRegions(station);
  ASSERT_TRUE(regions.ok());
  const std::string image = serializer_.EncodeImage(station);
  EXPECT_EQ(image, ConcatRegions(regions.value()));
  EXPECT_EQ(image.capacity(), std::max(image.size(), std::string().capacity()))
      << "image not sized exactly";
}

TEST(ObjectImageTest, DecodeMatchesProjectedRegionsOverRandomSchemas) {
  const uint64_t base = test::TestSeed(2024);
  for (uint64_t seed = base; seed < base + (test::SeedPinned() ? 1 : 40);
       ++seed) {
    SCOPED_TRACE("STARFISH_SEED=" + std::to_string(seed));
    Rng rng(seed);
    auto schema = test::RandomSchema(&rng, 0, 1 + static_cast<int>(seed % 3),
                                     "T");
    ObjectSerializer serializer(schema);
    for (int i = 0; i < 8; ++i) {
      const Tuple object =
          test::RandomTuple(&rng, *schema, i, 50, /*is_root=*/true);
      auto regions = serializer.ToRegions(object);
      ASSERT_TRUE(regions.ok()) << regions.status().ToString();
      const std::string image = serializer.EncodeImage(object);
      ASSERT_EQ(image, ConcatRegions(regions.value()));

      auto all = serializer.DecodeImage(image, Projection::All(*schema));
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      EXPECT_EQ(all.value(), object);

      for (int p = 0; p < 4; ++p) {
        const Projection proj = test::RandomProjection(&rng, *schema);
        std::vector<RecordRegion> kept;
        for (const RecordRegion& region : regions.value()) {
          if (proj.Includes(ObjectSerializer::TagPath(region.tag))) {
            kept.push_back(region);
          }
        }
        auto expected = serializer.FromRegions(kept, proj);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        auto got = serializer.DecodeImage(image, proj);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), expected.value()) << proj.ToString();
      }

      auto root = serializer.DecodeImageRoot(image);
      auto root_expected = serializer.FromRegions(
          {regions.value()[0]}, Projection::RootOnly(*schema));
      ASSERT_TRUE(root.ok());
      ASSERT_TRUE(root_expected.ok());
      EXPECT_EQ(root.value(), root_expected.value());

      std::vector<uint64_t> links;
      test::Links(*schema, object, &links);
      auto walked = serializer.ImageLinks(image);
      ASSERT_TRUE(walked.ok()) << walked.status().ToString();
      EXPECT_EQ(walked.value(), links);
    }
  }
}

TEST(ObjectImageTest, LinkWalkKeepsAttributeOrderWhenARelationPrecedesALink) {
  // Root(Key, Subs{(Inner, Deep{(Far)})}, Near): in the image Near's bytes
  // come before every sub-tuple's, but in attribute order the sub-tuples'
  // links come first.
  auto deep = SchemaBuilder("Deep").AddLink("Far").Build();
  auto sub = SchemaBuilder("Sub")
                 .AddRelation("Deep", deep)
                 .AddLink("Inner")
                 .Build();
  auto root = SchemaBuilder("Root")
                  .AddInt32("Key")
                  .AddRelation("Subs", sub)
                  .AddLink("Near")
                  .Build();
  auto deep_tuple = [](uint64_t far) {
    return Tuple({Value::Link(far)});
  };
  const Tuple object({Value::Int32(1),
                      Value::Relation(
                          {Tuple({Value::Relation({deep_tuple(10),
                                                   deep_tuple(11)}),
                                  Value::Link(12)}),
                           Tuple({Value::Relation({deep_tuple(20)}),
                                  Value::Link(21)})}),
                      Value::Link(99)});
  ObjectSerializer serializer(root);
  std::vector<uint64_t> expected;
  test::Links(*root, object, &expected);
  ASSERT_EQ(expected, (std::vector<uint64_t>{10, 11, 12, 20, 21, 99}));
  auto walked = serializer.ImageLinks(serializer.EncodeImage(object));
  ASSERT_TRUE(walked.ok()) << walked.status().ToString();
  EXPECT_EQ(walked.value(), expected);
}

TEST_F(SerializerTest, ImageRejectsTruncationAtEveryLength) {
  const Tuple station = MakeStation(4, 2, 2, 2);
  const std::string image = serializer_.EncodeImage(station);
  const Projection all = Projection::All(*schema_);
  for (size_t n = 0; n < image.size(); ++n) {
    const std::string_view cut(image.data(), n);
    EXPECT_TRUE(serializer_.DecodeImage(cut, all).status().IsCorruption())
        << "length " << n;
    EXPECT_TRUE(serializer_.ImageLinks(cut).status().IsCorruption())
        << "length " << n;
  }
}

TEST_F(SerializerTest, ImageRejectsTrailingBytes) {
  const std::string image =
      serializer_.EncodeImage(MakeStation(4, 1, 1, 1)) + "x";
  EXPECT_TRUE(serializer_.DecodeImage(image, Projection::All(*schema_))
                  .status().IsCorruption());
  EXPECT_TRUE(serializer_.DecodeImage(image, Projection::RootOnly(*schema_))
                  .status().IsCorruption());
  EXPECT_TRUE(serializer_.ImageLinks(image).status().IsCorruption());
}

TEST_F(SerializerTest, ImageRejectsCountOverflow) {
  // The root's Platform count claims 65535 sub-tuples; the bytes left
  // cannot hold them. Decoding must refuse before sizing anything by it.
  const Tuple station = MakeStation(4, 1, 1, 0);
  std::string image = serializer_.EncodeImage(station);
  const size_t platform_count_at =
      ObjectSerializer::FlatSize(*schema_, station) - 4;  // two u16 counts
  ASSERT_EQ(DecodeFixed16(image.data() + platform_count_at), 1u);
  EncodeFixed16(&image[platform_count_at], 0xFFFF);
  for (const Projection& proj :
       {Projection::All(*schema_), Projection::RootOnly(*schema_)}) {
    auto got = serializer_.DecodeImage(image, proj);
    EXPECT_TRUE(got.status().IsCorruption()) << proj.ToString();
  }
  EXPECT_TRUE(serializer_.ImageLinks(image).status().IsCorruption());
}

TEST(ObjectImageTest, RandomByteFlipsNeverEscapeAStatus) {
  // Mutated images either decode to some object or return Corruption;
  // the ASan+UBSan build turns any out-of-bounds read here into a failure.
  const uint64_t seed = test::TestSeed(77);
  SCOPED_TRACE("STARFISH_SEED=" + std::to_string(seed));
  Rng rng(seed);
  auto schema = test::RandomSchema(&rng, 0, 3, "T");
  ObjectSerializer serializer(schema);
  const Projection all = Projection::All(*schema);
  for (int i = 0; i < 200; ++i) {
    std::string image = serializer.EncodeImage(
        test::RandomTuple(&rng, *schema, i, 10, /*is_root=*/true));
    if (image.empty()) continue;
    for (int f = 0; f < 4; ++f) {
      image[rng.Uniform(image.size())] = static_cast<char>(rng.Uniform(256));
    }
    auto got = serializer.DecodeImage(image, all);
    if (!got.ok()) EXPECT_TRUE(got.status().IsCorruption());
    auto links = serializer.ImageLinks(image);
    if (!links.ok()) EXPECT_TRUE(links.status().IsCorruption());
    EXPECT_EQ(got.ok(), links.ok()) << "decode and link walk disagree";
  }
}

}  // namespace
}  // namespace starfish
