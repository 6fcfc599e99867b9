// Per-backend verification-kernel microbenchmark, harness flavor: measures
// VerifyBatch for every backend the registry offers on this host and
// records one BENCH_micro.json entry per (backend, dimensionality), so the
// JSON carries the whole kernel family's trajectory — plus the detected
// CPU features and the active (resolved) backend in the header — on every
// run, without needing google-benchmark.
//
// Timings follow the harness convention: ACCL_BENCH_WARMUP_PASSES untimed
// passes, then the median of ACCL_BENCH_REPS timed pass means.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "kernels/backend_registry.h"
#include "storage/slot_array.h"
#include "util/timer.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

// `*dims_total` receives one pass's summed dims_checked, the logical-reads
// figure every backend must report identically.
bench::CompetitorResult MeasureBackend(const kernels::VerifyBackend& backend,
                                       const SlotArray& a,
                                       const std::vector<Query>& queries,
                                       uint64_t* dims_total) {
  const size_t warmup =
      bench::EnvCount("ACCL_BENCH_WARMUP_PASSES", 1, /*scaled=*/false);
  const size_t reps = bench::EnvCount("ACCL_BENCH_REPS", 5, /*scaled=*/false);

  BatchQuery bq;
  std::vector<ObjectId> out;
  uint64_t matches = 0;
  const auto one_pass = [&](double* wall_ms) {
    matches = 0;
    *dims_total = 0;
    WallTimer t;
    for (const Query& q : queries) {
      bq.Assign(q.box.view(), q.rel);
      out.clear();
      matches += backend.VerifyBatch(a.coords_data(), a.ids().data(),
                                     a.size(), bq, &out, dims_total);
    }
    if (wall_ms != nullptr) *wall_ms = t.ElapsedMs();
  };

  for (size_t w = 0; w < warmup; ++w) one_pass(nullptr);
  std::vector<double> walls(reps);
  for (size_t rep = 0; rep < reps; ++rep) one_pass(&walls[rep]);
  std::nth_element(walls.begin(), walls.begin() + walls.size() / 2,
                   walls.end());

  bench::CompetitorResult r;
  r.name = backend.name();
  r.wall_ms_per_query =
      walls[walls.size() / 2] / static_cast<double>(queries.size());
  r.avg_results = static_cast<double>(matches) /
                  static_cast<double>(queries.size());
  r.objects_pct = 100.0;  // every record verified, by construction
  r.verify_backend = backend.name();
  r.vector_width_floats = backend.vector_width_floats();
  return r;
}

int Run() {
  const size_t n = bench::EnvCount("ACCL_VERIFY_BENCH_OBJECTS", 50000);
  const size_t nq = bench::EnvCount("ACCL_VERIFY_BENCH_QUERIES", 64,
                                    /*scaled=*/false);
  const auto& reg = kernels::BackendRegistry::Instance();
  std::printf("verify kernels: %zu objects, %zu queries/pass; host: %s; "
              "active backend: %s\n",
              n, nq, kernels::CpuFeatureString(reg.host()).c_str(),
              reg.Resolve("")->name());
  std::printf("%-6s | %-8s | %6s | %14s | %10s\n", "nd", "backend", "width",
              "ms/query", "avg.res");

  for (const Dim nd : {Dim(16), Dim(40)}) {
    UniformSpec spec;
    spec.nd = nd;
    spec.count = n;
    spec.seed = 9;
    const Dataset ds = GenerateUniform(spec);
    SlotArray a(nd);
    for (size_t i = 0; i < ds.size(); ++i) a.Append(ds.ids[i], ds.box(i));
    const auto queries =
        GenerateQueriesWithExtent(nd, Relation::kIntersects, nq, 0.3, 5);

    std::vector<bench::CompetitorResult> results;
    std::vector<uint64_t> dims(reg.All().size());
    for (size_t i = 0; i < reg.All().size(); ++i) {
      results.push_back(MeasureBackend(*reg.All()[i], a, queries, &dims[i]));
      const bench::CompetitorResult& r = results.back();
      std::printf("%-6u | %-8s | %6u | %14.4f | %10.1f\n", nd,
                  r.name.c_str(), r.vector_width_floats, r.wall_ms_per_query,
                  r.avg_results);
    }
    // All backends must agree on the answer count and the dims accounting
    // (the latter bites even when these selective queries match nothing);
    // a mismatch here means the parity tests are not being run.
    for (size_t i = 0; i < results.size(); ++i) {
      const bench::CompetitorResult& r = results[i];
      if (r.avg_results != results.front().avg_results ||
          dims[i] != dims.front()) {
        std::fprintf(stderr,
                     "KERNEL DIVERGENCE: %s averaged %.2f results/query and "
                     "%llu dims vs %s %.2f and %llu\n",
                     r.name.c_str(), r.avg_results,
                     static_cast<unsigned long long>(dims[i]),
                     results.front().name.c_str(),
                     results.front().avg_results,
                     static_cast<unsigned long long>(dims.front()));
        return 1;
      }
    }
    bench::RecordResults(StorageScenario::kMemory,
                         "BM_VerifyBatch/nd" + std::to_string(nd), results);
  }
  return 0;
}

}  // namespace
}  // namespace accl

int main() { return accl::Run(); }
