// Shared skeleton of the batched verification kernel.
//
// Every ISA variant is the same algorithm — 64-record blocks, a branch-free
// chunked fail probe per record, one masked probe for the floats past the
// last full chunk, early-exit dims accounting, bitmask-deferred id
// emission — differing only in how one chunk's "first failing float" is
// found. Keeping the skeleton in one template makes the parity contract
// structural: a backend cannot drift in blocking, ordering, or accounting,
// only in its Probe.
//
// Which per-record loop runs is decided once per call, never per record:
//   - kChunk == 0 (the scalar reference): a per-float early-exit loop over
//     the whole record. Only the scalar backend runs it.
//   - stride % kChunk == 0 (16-d, 40-d records): whole chunks only.
//   - otherwise (6-d, 9-d records): whole chunks, then one masked probe
//     over the remaining stride % kChunk floats. Masked-out lanes are never
//     loaded, so records and query images need no padding.
//
// Probe contract:
//   static constexpr size_t kChunk;   // floats examined per step (0 = none:
//                                     // the per-float loop does everything)
//   static size_t FirstFail(const float* o, const float* bg, const float* bl);
//     // smallest k in [0, kChunk) with o[k] > bg[k] || o[k] < bl[k],
//     // or kChunk when the whole chunk passes.
//   static size_t FirstFailMasked(const float* o, const float* bg,
//                                 const float* bl, size_t count);
//     // the same over the first `count` floats only (0 < count < kChunk),
//     // or kChunk when they all pass; reads no float at or past `count`.
//   Both are required only when kChunk > 0.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/types.h"
#include "geometry/predicates.h"

namespace accl::kernels::detail {

// One call's sweep. kMaskedTail is fixed per call by VerifyBatchImpl, so a
// record whose stride is a whole number of chunks never pays for a tail test.
template <typename Probe, bool kMaskedTail>
size_t VerifyBlocks(const float* coords, const ObjectId* ids, size_t n,
                    const BatchQuery& bq, std::vector<ObjectId>* out,
                    uint64_t* dims_checked) {
  const Dim nd = bq.dims();
  const size_t stride = 2 * static_cast<size_t>(nd);
  const float* __restrict__ bg = bq.gt_bounds();
  const float* __restrict__ bl = bq.lt_bounds();
  uint64_t dims = 0;
  size_t matches = 0;
  for (size_t block = 0; block < n; block += 64) {
    const size_t bn = std::min<size_t>(64, n - block);
    uint64_t match_mask = 0;
    const float* __restrict__ o = coords + block * stride;
    for (size_t j = 0; j < bn; ++j, o += stride) {
      // Stay a few records ahead of the hardware prefetcher: most records
      // are rejected after one or two dimensions, so the sweep consumes
      // lines faster than a freshly started stream is predicted.
      __builtin_prefetch(o + 4 * stride);
      size_t fail = stride;
      if constexpr (Probe::kChunk == 0) {
        for (size_t t = 0; t < stride; ++t) {
          if ((o[t] > bg[t]) | (o[t] < bl[t])) {
            fail = t;
            break;
          }
        }
      } else {
        // Chunked sweep: the fail test is evaluated branch-free for the
        // whole chunk and reduced to the first failing float. No
        // data-dependent branching per dimension, so mixed fail depths
        // cost no mispredictions; the one branch per chunk ("this chunk
        // decided it") is overwhelmingly taken on selective queries.
        size_t k = 0;
        for (; k + Probe::kChunk <= stride; k += Probe::kChunk) {
          const size_t idx = Probe::FirstFail(o + k, bg + k, bl + k);
          if (idx != Probe::kChunk) {
            fail = k + idx;
            break;
          }
        }
        if constexpr (kMaskedTail) {
          if (fail == stride) {
            const size_t idx =
                Probe::FirstFailMasked(o + k, bg + k, bl + k, stride - k);
            if (idx != Probe::kChunk) fail = k + idx;
          }
        }
      }
      if (fail == stride) {
        dims += nd;
        match_mask |= 1ull << j;
      } else {
        dims += fail / 2 + 1;  // logical reads: failing dimension + 1
      }
    }
    while (match_mask != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(match_mask));
      match_mask &= match_mask - 1;
      out->push_back(ids[block + j]);
      ++matches;
    }
  }
  *dims_checked += dims;
  return matches;
}

template <typename Probe>
size_t VerifyBatchImpl(const float* coords, const ObjectId* ids, size_t n,
                       const BatchQuery& bq, std::vector<ObjectId>* out,
                       uint64_t* dims_checked) {
  if constexpr (Probe::kChunk > 0) {
    if (2 * static_cast<size_t>(bq.dims()) % Probe::kChunk != 0) {
      return VerifyBlocks<Probe, true>(coords, ids, n, bq, out, dims_checked);
    }
  }
  return VerifyBlocks<Probe, false>(coords, ids, n, bq, out, dims_checked);
}

}  // namespace accl::kernels::detail
