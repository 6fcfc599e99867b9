// Index persistence through the paper's §6 paged layout: an adaptive index
// checkpointed with ClusterFileStore::PutAll + SaveDirectory, reopened from
// the file's one-block directory, and rebuilt with AdaptiveIndex::FromImages
// keeps its structure and answers, and keeps adapting (statistics restart
// empty, as §6 allows). File-level rejections (garbage, truncation, missing
// files) are covered by paged_store_test.
#include <gtest/gtest.h>

#include <cstdio>

#include "storage/paged_store.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

using testutil::Load;
using testutil::RandomBox;
using testutil::RunQuery;

AdaptiveConfig Cfg(Dim nd) {
  AdaptiveConfig cfg;
  cfg.nd = nd;
  cfg.reorg_period = 50;
  cfg.min_observation = 16;
  return cfg;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// Builds an index with real cluster structure.
std::unique_ptr<AdaptiveIndex> BuildStructured(Dim nd, size_t count,
                                               uint64_t seed) {
  auto idx = std::make_unique<AdaptiveIndex>(Cfg(nd));
  UniformSpec spec;
  spec.nd = nd;
  spec.count = count;
  spec.seed = seed;
  Load(*idx, GenerateUniform(spec));
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 600, 0.05,
                                      seed ^ 0xABC);
  std::vector<ObjectId> out;
  for (const Query& q : qs) {
    out.clear();
    idx->Execute(q, &out);
  }
  return idx;
}

// Checkpoints `idx` into a fresh page file at `path`, drops the store (only
// the file survives), and rebuilds an index from the reopened directory.
std::unique_ptr<AdaptiveIndex> SaveAndReload(const AdaptiveIndex& idx,
                                             const std::string& path) {
  {
    ClusterFileStore store(PagedFile::Create(path, 4096), idx.config().nd);
    if (!store.PutAll(idx) || !store.SaveDirectory()) return nullptr;
  }
  auto file = PagedFile::Open(path);
  if (file == nullptr) return nullptr;
  auto store = ClusterFileStore::Load(std::move(file));
  if (store == nullptr) return nullptr;
  std::vector<ClusterImage> images;
  if (!store->GetAll(&images)) return nullptr;
  return AdaptiveIndex::FromImages(idx.config(), images);
}

TEST(Persist, RoundTripPreservesStructureAndAnswers) {
  auto idx = BuildStructured(3, 5000, 1);
  ASSERT_GT(idx->cluster_count(), 1u);
  const std::string path = TempPath("accl_roundtrip.pf");
  auto loaded = SaveAndReload(*idx, path);
  ASSERT_NE(loaded, nullptr);
  loaded->CheckInvariants();
  EXPECT_EQ(loaded->size(), idx->size());
  EXPECT_EQ(loaded->cluster_count(), idx->cluster_count());

  Rng rng(2);
  for (int i = 0; i < 40; ++i) {
    Box qb = RandomBox(rng, 3, 0.4f);
    for (Relation rel : {Relation::kIntersects, Relation::kContainedBy,
                         Relation::kEncloses}) {
      Query q(qb, rel);
      EXPECT_EQ(RunQuery(*loaded, q), RunQuery(*idx, q));
    }
  }
  std::remove(path.c_str());
}

TEST(Persist, LoadedIndexKeepsAdapting) {
  auto idx = BuildStructured(2, 4000, 3);
  const std::string path = TempPath("accl_adapting.pf");
  auto loaded = SaveAndReload(*idx, path);
  ASSERT_NE(loaded, nullptr);
  // Statistics restart empty; further queries must still be answerable and
  // reorganization must still run without violating invariants.
  auto qs = GenerateQueriesWithExtent(2, Relation::kIntersects, 300, 0.05, 9);
  std::vector<ObjectId> out;
  for (const Query& q : qs) {
    out.clear();
    loaded->Execute(q, &out);
  }
  loaded->CheckInvariants();
  std::remove(path.c_str());
}

TEST(Persist, EmptyIndexRoundTrip) {
  AdaptiveIndex idx(Cfg(4));
  const std::string path = TempPath("accl_empty.pf");
  auto loaded = SaveAndReload(idx, path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->size(), 0u);
  EXPECT_EQ(loaded->cluster_count(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace accl
