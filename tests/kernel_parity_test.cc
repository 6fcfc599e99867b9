// Cross-backend parity for the runtime-dispatched verify kernels.
//
// Every registered backend must be indistinguishable from the scalar
// reference on any input: byte-identical match sets (same ids, same order)
// and identical early-exit dims accounting — the dims contract on
// VerifyBackend promises logical reads, so a wider probe may never change
// the count. The fuzzer sweeps dimensionalities chosen to stress every
// chunk/tail split (below one chunk, exactly one chunk, chunk+1 float,
// unaligned tails) and batch sizes around the 64-record block boundary,
// plus degenerate point queries and boundary-touching coordinates. A
// guard-page case proves the masked tail probe reads nothing past the last
// record of a block.
//
// Also covered here: registry selection (the exact registered set, widest
// supported), the ACCL_FORCE_BACKEND env pin and its unknown-name
// fallback, including concurrent resolution.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive_index.h"
#include "kernels/backend_registry.h"
#include "storage/slot_array.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

using kernels::BackendRegistry;
using kernels::VerifyBackend;

constexpr Relation kRelations[] = {Relation::kIntersects,
                                   Relation::kContainedBy,
                                   Relation::kEncloses};

const VerifyBackend* Scalar() {
  const VerifyBackend* s = BackendRegistry::Instance().Find("scalar");
  EXPECT_NE(s, nullptr);
  return s;
}

struct KernelResult {
  std::vector<ObjectId> matches;
  uint64_t dims = 0;
  size_t returned = 0;
};

KernelResult Run(const VerifyBackend& b, const float* coords,
                 const SlotArray& a, const BatchQuery& bq) {
  KernelResult r;
  r.returned =
      b.VerifyBatch(coords, a.ids().data(), a.size(), bq, &r.matches, &r.dims);
  return r;
}

// `coords`, when given, is a copy of a's coordinate block that the backends
// under test read in place of a's own; the scalar reference reads a's.
void ExpectBackendParity(const SlotArray& a, const Box& q, Relation rel,
                         const float* coords = nullptr) {
  const BatchQuery bq(q.view(), rel);
  const KernelResult ref = Run(*Scalar(), a.coords_data(), a, bq);
  EXPECT_EQ(ref.returned, ref.matches.size());
  for (const VerifyBackend* b : BackendRegistry::Instance().All()) {
    const KernelResult got =
        Run(*b, coords != nullptr ? coords : a.coords_data(), a, bq);
    EXPECT_EQ(got.matches, ref.matches)
        << b->name() << " match set diverged, " << RelationName(rel)
        << " nd=" << a.dims() << " n=" << a.size();
    EXPECT_EQ(got.dims, ref.dims)
        << b->name() << " dims accounting diverged, " << RelationName(rel)
        << " nd=" << a.dims() << " n=" << a.size();
    EXPECT_EQ(got.returned, ref.returned) << b->name();
  }
}

TEST(KernelParity, RandomBatchesAllBackends) {
  Rng rng(101);
  // nd values stressing every chunk/tail split of the 16-float probe:
  // whole record below one chunk (nd<8), exactly one chunk (8), chunk+tail
  // (15,17), multi-chunk (16,31,33,40).
  for (Dim nd : {1u, 2u, 3u, 5u, 7u, 8u, 15u, 16u, 17u, 31u, 33u, 40u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < 300; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.5f).view());
    }
    for (int t = 0; t < 12; ++t) {
      const Box q = testutil::RandomBox(rng, nd, 0.8f);
      for (Relation rel : kRelations) ExpectBackendParity(a, q, rel);
    }
  }
}

TEST(KernelParity, BlockBoundarySizes) {
  Rng rng(202);
  const Dim nd = 9;  // one full chunk + 2-float tail
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < n; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.4f).view());
    }
    for (int t = 0; t < 6; ++t) {
      const Box q = testutil::RandomBox(rng, nd, 0.9f);
      for (Relation rel : kRelations) ExpectBackendParity(a, q, rel);
    }
  }
}

TEST(KernelParity, DegenerateAndBoundaryTouching) {
  Rng rng(303);
  for (Dim nd : {2u, 8u, 16u, 19u}) {
    SlotArray a(nd);
    // Random boxes plus constructions that put coordinates exactly on the
    // query faces: equality must stay "satisfied" (closed intervals) on
    // every backend — ordered-quiet SIMD compares and scalar > / < must
    // agree on ties.
    for (ObjectId id = 0; id < 150; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.6f).view());
    }
    Box q(nd);
    for (Dim d = 0; d < nd; ++d) q.set(d, 0.25f, 0.75f);
    Box same = q;
    a.Append(1000, same.view());
    Box touch(nd);
    for (Dim d = 0; d < nd; ++d) touch.set(d, 0.75f, 1.0f);
    a.Append(1001, touch.view());
    for (Relation rel : kRelations) ExpectBackendParity(a, q, rel);

    // Zero-extent (point) queries — the point-enclosing case.
    for (int t = 0; t < 8; ++t) {
      Box p(nd);
      for (Dim d = 0; d < nd; ++d) {
        const float x = rng.NextFloat();
        p.set(d, x, x);
      }
      for (Relation rel : kRelations) ExpectBackendParity(a, p, rel);
    }
  }
}

// A copy of a coordinate block whose last float is the last one before a
// PROT_NONE page, so a kernel that reads past the final record faults.
class GuardedCoords {
 public:
  explicit GuardedCoords(const SlotArray& a) {
    const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t bytes = a.size() * 2 * a.dims() * sizeof(float);
    const size_t data_len = (bytes + page - 1) / page * page;
    len_ = data_len + page;
    base_ = ::mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) {
      base_ = nullptr;
      ADD_FAILURE() << "mmap failed";
      return;
    }
    char* bytes_base = static_cast<char*>(base_);
    EXPECT_EQ(::mprotect(bytes_base + data_len, page, PROT_NONE), 0);
    coords_ = reinterpret_cast<float*>(bytes_base + data_len - bytes);
    std::memcpy(coords_, a.coords_data(), bytes);
  }
  ~GuardedCoords() {
    if (base_ != nullptr) ::munmap(base_, len_);
  }
  GuardedCoords(const GuardedCoords&) = delete;
  GuardedCoords& operator=(const GuardedCoords&) = delete;

  const float* data() const { return coords_; }

 private:
  void* base_ = nullptr;
  size_t len_ = 0;
  float* coords_ = nullptr;
};

// The masked tail must never read past the record. A SlotArray keeps spare
// capacity after its last record, so the random sweep above cannot catch an
// over-read; here the block ends flush against an unreadable page. The
// all-covering query makes every record match, so every probe runs to the
// last float of its record.
TEST(KernelParity, GuardPageLastRecordNoOverread) {
  Rng rng(404);
  // Sub-chunk records (1, 3, 6, 7), chunk + tail (9, 17).
  for (Dim nd : {1u, 3u, 6u, 7u, 9u, 17u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < 70; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.5f).view());
    }
    const GuardedCoords guarded(a);
    std::vector<Box> queries;
    Box all(nd);
    for (Dim d = 0; d < nd; ++d) all.set(d, -1.0f, 2.0f);
    queries.push_back(all);
    for (int t = 0; t < 6; ++t) {
      queries.push_back(testutil::RandomBox(rng, nd, 0.9f));
    }
    for (const Box& q : queries) {
      for (Relation rel : kRelations) {
        ExpectBackendParity(a, q, rel, guarded.data());
      }
    }
  }
}

// Shards construct their indexes concurrently, so Resolve (and its
// warn-once latch for an unknown pin) must be race-free; the TSan job runs
// this file. First in its suite so the latch is still unset.
TEST(KernelRegistry, ConcurrentResolveUnderUnknownPin) {
  const auto& reg = BackendRegistry::Instance();
  ::unsetenv("ACCL_FORCE_BACKEND");
  const VerifyBackend* widest = reg.Resolve("");
  ::setenv("ACCL_FORCE_BACKEND", "not-a-backend", 1);
  std::vector<const VerifyBackend*> got(4, nullptr);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&reg, &got, t] { got[t] = reg.Resolve(""); });
  }
  for (std::thread& th : threads) th.join();
  ::unsetenv("ACCL_FORCE_BACKEND");
  for (const VerifyBackend* b : got) EXPECT_EQ(b, widest);
}

TEST(KernelRegistry, ScalarAlwaysRegisteredAndWidestSelected) {
  const auto& reg = BackendRegistry::Instance();
  ASSERT_NE(reg.Find("scalar"), nullptr);

  // Exactly the compiled-in backends the host's CPUID flags admit, in
  // registration order.
  std::string expect = "scalar";
  std::string widest = "scalar";
#if defined(ACCL_KERNEL_HAVE_AVX2)
  if (reg.host().avx2) {
    expect += " avx2";
    widest = "avx2";
  }
#endif
#if defined(ACCL_KERNEL_HAVE_AVX512)
  if (reg.host().avx512f) {
    expect += " avx512";
    widest = "avx512";
  }
#endif
  EXPECT_EQ(reg.BackendNames(), expect)
      << "host: " << kernels::CpuFeatureString(reg.host());

  ::unsetenv("ACCL_FORCE_BACKEND");
  std::string note;
  const VerifyBackend* resolved = reg.Resolve("", &note);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(note, "widest supported on host");
  EXPECT_EQ(resolved->name(), widest)
      << "Resolve(\"\") must pick the widest registered backend";
  for (const VerifyBackend* b : reg.All()) {
    EXPECT_GE(resolved->vector_width_floats(), b->vector_width_floats());
    // Registration filtered on the CPUID probe.
    EXPECT_TRUE(b->SupportedOnHost(reg.host())) << b->name();
  }
}

TEST(KernelRegistry, EnvPinSelectsAndUnknownFallsBack) {
  const auto& reg = BackendRegistry::Instance();
  ::unsetenv("ACCL_FORCE_BACKEND");
  const VerifyBackend* widest = reg.Resolve("");

  ::setenv("ACCL_FORCE_BACKEND", "scalar", 1);
  std::string note;
  const VerifyBackend* pinned = reg.Resolve("", &note);
  ASSERT_NE(pinned, nullptr);
  EXPECT_STREQ(pinned->name(), "scalar");
  EXPECT_NE(note.find("ACCL_FORCE_BACKEND"), std::string::npos);

  // An unknown env name warns and falls through to the widest backend.
  ::setenv("ACCL_FORCE_BACKEND", "gpu-of-the-future", 1);
  EXPECT_EQ(reg.Resolve("", &note), widest);
  EXPECT_EQ(note, "widest supported on host");
  ::unsetenv("ACCL_FORCE_BACKEND");
}

// End-to-end: the same workload through AdaptiveIndex pinned to each
// backend must return identical answers with bit-identical metrics — the
// cost model sees the same dims_checked regardless of kernel width, so the
// clustering decisions (and thus the structure) cannot diverge by backend.
TEST(KernelParity, AdaptiveIndexPinnedBackendsAgree) {
  ::unsetenv("ACCL_FORCE_BACKEND");
  const auto& reg = BackendRegistry::Instance();
  const Dim nd = 16;
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 2000;
  spec.seed = 505;
  const Dataset ds = GenerateUniform(spec);
  const std::vector<Query> queries =
      GenerateQueriesWithExtent(nd, Relation::kIntersects, 300, 0.35, 606);

  struct Outcome {
    std::vector<std::vector<ObjectId>> results;
    std::vector<QueryMetrics> metrics;
    size_t clusters;
  };
  auto run = [&](const std::string& backend) {
    AdaptiveConfig cfg;
    cfg.nd = nd;
    cfg.reorg_period = 64;
    cfg.min_observation = 16;
    ::setenv("ACCL_FORCE_BACKEND", backend.c_str(), 1);
    AdaptiveIndex idx(cfg);
    ::unsetenv("ACCL_FORCE_BACKEND");
    EXPECT_EQ(std::string(idx.verify_kernel().backend), backend);
    testutil::Load(idx, ds);
    Outcome o;
    for (const Query& q : queries) {
      QueryMetrics m;
      o.results.push_back(testutil::RunQuery(idx, q, &m));
      o.metrics.push_back(m);
    }
    o.clusters = idx.cluster_count();
    return o;
  };

  const Outcome ref = run("scalar");
  for (const VerifyBackend* b : reg.All()) {
    if (std::string(b->name()) == "scalar") continue;
    const Outcome got = run(b->name());
    EXPECT_EQ(got.clusters, ref.clusters) << b->name();
    ASSERT_EQ(got.results.size(), ref.results.size());
    for (size_t i = 0; i < ref.results.size(); ++i) {
      EXPECT_EQ(got.results[i], ref.results[i]) << b->name() << " q#" << i;
      EXPECT_EQ(got.metrics[i].dims_checked, ref.metrics[i].dims_checked)
          << b->name() << " q#" << i;
      EXPECT_EQ(got.metrics[i].objects_verified,
                ref.metrics[i].objects_verified)
          << b->name() << " q#" << i;
      EXPECT_EQ(got.metrics[i].sim_time_ms, ref.metrics[i].sim_time_ms)
          << b->name() << " q#" << i << " (bit-identical cost model)";
    }
  }
}

}  // namespace
}  // namespace accl
