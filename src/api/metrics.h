// Per-query and aggregated execution metrics. These are the performance
// indicators the paper reports: query execution time, number of accessed
// clusters/nodes, and the size (bytes) of verified data.
#pragma once

#include <cstdint>

#include "util/summary.h"

namespace accl {

/// Identity of the batched-verification kernel a structure executes with —
/// resolved once at construction from the kernel backend registry
/// (kernels/backend_registry.h). Surfaced so benchmark JSON and diagnostics
/// can record which ISA variant produced a measurement.
struct VerifyKernelInfo {
  const char* backend = "scalar";     ///< "scalar", "avx2" or "avx512"
  uint32_t vector_width_floats = 1;   ///< floats per SIMD lane group
};

/// Counters produced by a single spatial query execution.
struct QueryMetrics {
  /// Clusters (AC), tree nodes (R*), or scans (SS = 1) explored.
  uint64_t groups_explored = 0;
  /// Total groups that exist in the structure at query time (for ratios).
  uint64_t groups_total = 0;
  /// Objects individually checked against the selection criterion.
  uint64_t objects_verified = 0;
  /// Dimensions actually compared before accept/early-reject, summed over
  /// verified objects (models the CPU verification cost; see the paper's
  /// footnote on Sequential Scan CPU cost).
  uint64_t dims_checked = 0;
  /// Bytes of object data read/verified.
  uint64_t bytes_verified = 0;
  /// Number of matching objects returned.
  uint64_t result_count = 0;
  /// Simulated execution time (cost-model milliseconds) for the structure's
  /// configured storage scenario. Memory scenario: CPU terms only.
  /// Disk scenario: adds seek + transfer charges.
  double sim_time_ms = 0.0;
  /// Simulated disk seeks (random accesses) charged.
  uint64_t disk_seeks = 0;
  /// Simulated bytes transferred from disk.
  uint64_t disk_bytes = 0;

  void Clear() { *this = QueryMetrics(); }

  QueryMetrics& operator+=(const QueryMetrics& o) {
    groups_explored += o.groups_explored;
    groups_total += o.groups_total;
    objects_verified += o.objects_verified;
    dims_checked += o.dims_checked;
    bytes_verified += o.bytes_verified;
    result_count += o.result_count;
    sim_time_ms += o.sim_time_ms;
    disk_seeks += o.disk_seeks;
    disk_bytes += o.disk_bytes;
    return *this;
  }
};

/// Aggregation of many QueryMetrics plus wall-clock timings; used by the
/// benchmark harness to print the paper's table rows.
struct ExperimentStats {
  Summary wall_ms;            ///< measured execution time per query
  Summary sim_ms;             ///< cost-model time per query
  Summary groups_explored;    ///< clusters/nodes accessed per query
  Summary explored_ratio;     ///< explored / total groups (the tables' "Expl. %")
  Summary verified_ratio;     ///< objects verified / database size ("Objs. %")
  Summary result_count;

  void AddQuery(const QueryMetrics& m, double wall, uint64_t db_size) {
    wall_ms.Add(wall);
    sim_ms.Add(m.sim_time_ms);
    groups_explored.Add(static_cast<double>(m.groups_explored));
    if (m.groups_total > 0) {
      explored_ratio.Add(static_cast<double>(m.groups_explored) /
                         static_cast<double>(m.groups_total));
    }
    if (db_size > 0) {
      verified_ratio.Add(static_cast<double>(m.objects_verified) /
                         static_cast<double>(db_size));
    }
    result_count.Add(static_cast<double>(m.result_count));
  }
};

}  // namespace accl
