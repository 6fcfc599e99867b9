// Property tests for the batched verification kernel: VerifyBatch must agree
// with the scalar Satisfies/SatisfiesCounting oracle on every relation,
// including degenerate point queries and boundary-equal coordinates, and its
// dims_checked accounting must match the scalar early-exit count exactly.
#include <gtest/gtest.h>

#include <vector>

#include "geometry/predicates.h"
#include "kernels/backend_registry.h"
#include "storage/slot_array.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

// The registry's resolved kernel (widest backend the host supports, or the
// ACCL_FORCE_BACKEND pin), resolved once. Per-backend parity is
// kernel_parity_test's job.
size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                   const BatchQuery& bq, std::vector<ObjectId>* out,
                   uint64_t* dims_checked) {
  static const kernels::VerifyBackend* const backend =
      kernels::BackendRegistry::Instance().Resolve("");
  return backend->VerifyBatch(coords, ids, n, bq, out, dims_checked);
}

constexpr Relation kRelations[] = {Relation::kIntersects,
                                   Relation::kContainedBy,
                                   Relation::kEncloses};

struct ScalarResult {
  std::vector<ObjectId> matches;
  uint64_t dims = 0;
};

ScalarResult ScalarOracle(const SlotArray& a, BoxView q, Relation rel) {
  ScalarResult r;
  for (size_t i = 0; i < a.size(); ++i) {
    uint32_t dc = 0;
    if (SatisfiesCounting(a.box(i), q, rel, &dc)) r.matches.push_back(a.id(i));
    r.dims += dc;
  }
  return r;
}

void ExpectAgrees(const SlotArray& a, const Box& q, Relation rel) {
  const ScalarResult expect = ScalarOracle(a, q.view(), rel);
  const BatchQuery bq(q.view(), rel);
  std::vector<ObjectId> got;
  uint64_t dims = 0;
  const size_t matches = VerifyBatch(a.coords_data(), a.ids().data(),
                                     a.size(), bq, &got, &dims);
  EXPECT_EQ(matches, expect.matches.size())
      << RelationName(rel) << " on " << q.ToString();
  EXPECT_EQ(got, expect.matches) << RelationName(rel);
  EXPECT_EQ(dims, expect.dims)
      << "early-exit accounting diverged for " << RelationName(rel);
}

TEST(BatchVerify, RandomBoxesAllRelations) {
  Rng rng(7);
  for (Dim nd : {1u, 2u, 3u, 7u, 8u, 16u, 17u, 40u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < 300; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.5f).view());
    }
    for (int t = 0; t < 20; ++t) {
      const Box q = testutil::RandomBox(rng, nd, 0.8f);
      for (Relation rel : kRelations) ExpectAgrees(a, q, rel);
    }
  }
}

TEST(BatchVerify, DegeneratePointQueries) {
  Rng rng(11);
  for (Dim nd : {2u, 16u, 19u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < 200; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.6f).view());
    }
    for (int t = 0; t < 20; ++t) {
      Box q(nd);
      for (Dim d = 0; d < nd; ++d) {
        const float x = rng.NextFloat();
        q.set(d, x, x);  // zero-extent query (point-enclosing case)
      }
      for (Relation rel : kRelations) ExpectAgrees(a, q, rel);
    }
  }
}

TEST(BatchVerify, BoundaryEqualCoordinates) {
  // Objects whose faces coincide exactly with the query's: every comparison
  // is an equality, which all relations treat as satisfied (closed
  // intervals). Mix in touching-from-outside and one-ulp-ish offsets.
  const Dim nd = 5;
  Box q(nd);
  for (Dim d = 0; d < nd; ++d) q.set(d, 0.25f, 0.75f);

  SlotArray a(nd);
  Box same(nd);
  for (Dim d = 0; d < nd; ++d) same.set(d, 0.25f, 0.75f);
  a.Append(0, same.view());  // identical box: matches all three relations
  Box touch_lo(nd);
  for (Dim d = 0; d < nd; ++d) touch_lo.set(d, 0.0f, 0.25f);
  a.Append(1, touch_lo.view());  // touches the query's lower face
  Box touch_hi(nd);
  for (Dim d = 0; d < nd; ++d) touch_hi.set(d, 0.75f, 1.0f);
  a.Append(2, touch_hi.view());
  Box inside(nd);
  for (Dim d = 0; d < nd; ++d) inside.set(d, 0.25f, 0.5f);
  a.Append(3, inside.view());  // shares the lower face, contained
  Box outside(nd);
  for (Dim d = 0; d < nd; ++d) outside.set(d, 0.0f, 1.0f);
  a.Append(4, outside.view());  // encloses the query, shares no face

  for (Relation rel : kRelations) ExpectAgrees(a, q, rel);

  // Spot-check the expected sets directly.
  {
    const BatchQuery bq(q.view(), Relation::kIntersects);
    std::vector<ObjectId> got;
    uint64_t dims = 0;
    VerifyBatch(a.coords_data(), a.ids().data(), a.size(), bq, &got, &dims);
    EXPECT_EQ(got, (std::vector<ObjectId>{0, 1, 2, 3, 4}));
  }
  {
    const BatchQuery bq(q.view(), Relation::kContainedBy);
    std::vector<ObjectId> got;
    uint64_t dims = 0;
    VerifyBatch(a.coords_data(), a.ids().data(), a.size(), bq, &got, &dims);
    EXPECT_EQ(got, (std::vector<ObjectId>{0, 3}));
  }
  {
    const BatchQuery bq(q.view(), Relation::kEncloses);
    std::vector<ObjectId> got;
    uint64_t dims = 0;
    VerifyBatch(a.coords_data(), a.ids().data(), a.size(), bq, &got, &dims);
    EXPECT_EQ(got, (std::vector<ObjectId>{0, 4}));
  }
}

TEST(BatchVerify, EmptyBlockAndBlockBoundaries) {
  const Dim nd = 3;
  SlotArray a(nd);
  Box q(nd);
  for (Dim d = 0; d < nd; ++d) q.set(d, 0.0f, 1.0f);
  for (Relation rel : kRelations) ExpectAgrees(a, q, rel);  // n = 0

  // Sizes around the 64-record block boundary.
  Rng rng(23);
  for (size_t n : {1u, 63u, 64u, 65u, 128u, 130u}) {
    SlotArray b(nd);
    for (ObjectId id = 0; id < n; ++id) {
      b.Append(id, testutil::RandomBox(rng, nd, 0.4f).view());
    }
    for (int t = 0; t < 5; ++t) {
      const Box qq = testutil::RandomBox(rng, nd, 0.9f);
      for (Relation rel : kRelations) ExpectAgrees(b, qq, rel);
    }
  }
}

}  // namespace
}  // namespace accl
