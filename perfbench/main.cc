// accl benchmark binary: runs one workload for a fixed time, checks
// its answers against an oracle, and prints the metrics by name and unit,
// ending with one JSON result line. See README.md in this directory.
//
//   perfbench --workload <index_select|pubsub_match|pubsub_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "kernels/backend_registry.h"
#include "obs/alloc_hook.h"

// Counts heap allocations for exec.heap_allocs_per_batch. The hook
// replaces global operator new for this whole binary, in the traced and
// the untraced run alike, so both measure the same program. (GCC pairs the
// inlined malloc/free of the replacement and mis-reports a mismatch.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer entries, in
// order; run.py checks the JSON line against that file.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"read_per_s", "1/s"},
    {"read_us_p50", "us"},
    {"read_us_tail", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"failed_frac", "ratio"},
    {"core.clusters", "count"},
    {"core.narrow_groups_explored", "count"},
    {"core.narrow_objects_verified", "count"},
    {"core.wide_groups_explored", "count"},
    {"core.wide_objects_verified", "count"},
    {"core.wide_verify_precision", "ratio"},
    {"core.dims_per_verified", "count"},
    {"core.model_over_wall_narrow", "ratio"},
    {"core.model_over_wall_wide", "ratio"},
    {"core.reorg_passes", "count"},
    {"core.reorg_splits", "count"},
    {"core.reorg_merges", "count"},
    {"core.reorg_query_us_p50", "us"},
    {"core.insert_us_p50", "us"},
    {"core.erase_us_p50", "us"},
    {"kernels.verify_ns_per_object", "ns"},
    {"kernels.wide_verify_share", "ratio"},
    {"seqscan.narrow_us_p50", "us"},
    {"seqscan.wide_us_p50", "us"},
    {"sdi.batch_us_p50", "us"},
    {"sdi.batch_us_p99", "us"},
    {"sdi.shard_visits_per_event", "count"},
    {"sdi.objects_verified_per_event", "count"},
    {"sdi.match_precision", "ratio"},
    {"sdi.shard_exec_skew", "ratio"},
    {"sdi.queue_wait_us_p50", "us"},
    {"sdi.generator_lag_us_p99", "us"},
    {"sdi.single_thread_events_per_s", "1/s"},
    {"exec.trylock_failures_per_batch", "count"},
    {"exec.ready_pop_retries_per_batch", "count"},
    {"exec.heap_allocs_per_batch", "count"},
    {"exec.epoch_grace_waits", "count"},
    {"durability.records_per_sync", "count"},
    {"durability.wal_bytes_per_write", "B"},
    {"durability.checkpoints", "count"},
    {"durability.checkpoint_ms", "ms"},
    {"durability.replay_records", "count"},
    {"durability.replay_ms", "ms"},
    {"durability.live_segments_at_close", "count"},
    {"adapt.dimension_switches", "count"},
    {"adapt.subscriptions_migrated", "count"},
    {"adapt.migration_call_us_max", "us"},
    {"adapt.visits_per_event_before_restart", "count"},
    {"adapt.visits_per_event_after_restart", "count"},
    {"obs.bench_trace_overhead", "ratio"},
};

template <size_t N>
const MetricDef* Find(const MetricDef (&defs)[N], const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0) || a->seconds > 600.0) {
        return false;
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

}  // namespace

void Report::Put(std::vector<Value>* to, const std::string& name, double v) {
  for (Value& x : *to) {
    if (x.name == name) {
      x.v = v;
      return;
    }
  }
  to->push_back(Value{name, v});
}

void Report::Figure(const std::string& name, double v, const char* unit,
                    size_t n) {
  if (n > 0) {
    std::printf("figure %-36s %14.4f %-6s (n=%zu)\n", name.c_str(), v, unit,
                n);
  } else {
    std::printf("figure %-36s %14.4f %s\n", name.c_str(), v, unit);
  }
}

void Report::Info(const std::string& line) {
  std::printf("info   %s\n", line.c_str());
}

void Report::Fail(const std::string& why) {
  failed.fetch_add(1);
  std::lock_guard<std::mutex> lk(fail_mu_);
  if (++fail_lines_ <= 20) std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

int Report::Finish(bool trace) const {
  const uint64_t att = attempted.load();
  const uint64_t fl = failed.load();
  const double failed_frac =
      att == 0 ? 1.0 : static_cast<double>(fl) / static_cast<double>(att);
  std::printf("figure %-36s %14.6g ratio  (%llu of %llu)\n", "failed_frac",
              failed_frac, static_cast<unsigned long long>(fl),
              static_cast<unsigned long long>(att));

  std::unordered_map<std::string, double> have;
  for (const Value& x : trace ? layer_ : e2e_) have[x.name] = x.v;
  have["failed_frac"] = failed_frac;
  bool ok = att > 0 && fl == 0;
  int code = ok ? 0 : 1;

  // Every value recorded must be a declared metric of its table.
  for (const Value& x : trace ? layer_ : e2e_) {
    if ((trace ? Find(kPerLayer, x.name) : Find(kEndToEnd, x.name)) ==
        nullptr) {
      std::fprintf(stderr, "undeclared metric %s\n", x.name.c_str());
      return 3;
    }
  }

  std::string json = "{\"correct\": ";
  json += ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(att > 0 ? att : 1);
  json += ", \"failed\": " + std::to_string(att > 0 ? fl : 1);
  json += ", \"metrics\": {";
  const auto emit = [&](const MetricDef& d, bool first) {
    auto it = have.find(d.name);
    double v = it == have.end() ? 0.0 : it->second;
    const bool finite = std::isfinite(v);
    if (!finite) v = 0.0;
    std::printf("%-6s %-40s %18.6f %-6s%s\n", trace ? "layer" : "e2e", d.name,
                v, d.unit,
                it == have.end() ? "  (layer idle in this workload)"
                : finite         ? ""
                                 : "  (not finite)");
    if (!trace && (it == have.end() || !finite || v == 0.0)) {
      std::fprintf(stderr, "end-to-end metric %s not measured\n", d.name);
      code = 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!first) json += ", ";
    json += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
  };
  bool first = true;
  if (trace) {
    for (const MetricDef& d : kPerLayer) {
      emit(d, first);
      first = false;
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      emit(d, first);
      first = false;
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return code;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "index_select") run = RunIndexSelect;
  if (args.workload == "pubsub_match") run = RunPubsubMatch;
  if (args.workload == "pubsub_churn") run = RunPubsubChurn;
  if (run == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  std::string note;
  const auto* backend = accl::kernels::BackendRegistry::Instance().Resolve(
      "", &note);
  std::printf("info   workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("info   nproc=%u cpu=\"%s\" verify_backend=%s (%s) build=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              backend->name(), note.c_str(), PERFBENCH_BUILD_TYPE);

  Tracer::Get().SetOn(args.trace);
  Report rep;
  run(args, &rep);
  Tracer::Get().SetOn(false);
  if (args.trace) {
    const std::string path = args.out_dir + "/spans-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!Tracer::Get().WriteOut(path)) {
      rep.Fail("cannot write span file " + path);
    } else {
      std::printf("info   spans written to %s\n", path.c_str());
    }
  }
  return rep.Finish(args.trace);
}
