// WAL segment files: the bounded, individually-checksummed units the
// write-ahead log is rotated into (durability/wal.h drives the lifecycle).
//
// A log is a directory-scanned chain of segment files named
// `<base>.<seq:08>`, each a PagedFile byte stream holding one 24-byte
// preamble followed by framed records. The segment sequence number doubles
// as the *generation stamp*: every frame written into a segment carries the
// segment's seq in its header and folds it into its checksum, and decoding
// rejects any frame whose stamp differs from the preamble's. Bytes past a
// segment's valid tail that were written under another generation (a
// reused physical region, a file copied or restored over a live name) may
// carry intact lengths, checksums, even plausible LSNs — but never this
// segment's stamp, so they can never replay. That closes the torn-write
// ABA hazard the single-file log documented.
//
// Truncated segments are unlinked, which bounds the log's on-disk
// footprint; rotation always creates a fresh file.
//
// SimDisk fault injection covers the file lifecycle, not just reads and
// writes: creating or unlinking a segment consults NextOpFails() first and
// charges one head repositioning (a directory update), so a crash-point
// matrix over io_ops() drives faults through rotation and segment GC as
// well.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/durability.h"
#include "api/types.h"
#include "storage/paged_store.h"
#include "storage/sim_disk.h"

namespace accl::durability {

/// Record kinds: a subscribe record carries one or more subscriptions
/// with contiguous ids; an unsubscribe record carries one id. (Value 2
/// belonged to a retired batch-subscribe kind with the subscribe encoding.)
enum class WalRecordType : uint8_t {
  kSubscribe = 1,
  kUnsubscribe = 3,
};

/// Decoded record handed to Replay callbacks.
struct WalRecord {
  WalRecordType type = WalRecordType::kSubscribe;
  Lsn lsn = kNoLsn;
  ObjectId first_id = kInvalidObject;  ///< id, or the first of `count`
  uint32_t count = 0;                  ///< subscriptions in the record
  Dim nd = 0;                          ///< 0 for kUnsubscribe
  std::vector<float> coords;           ///< count * 2 * nd floats
};

/// Frame layout: [u32 len][u32 crc][u64 lsn][u64 gen][payload]. The LSN
/// and the generation stamp live in the 24-byte header — not the payload —
/// so appenders can encode and hash the payload outside the log mutex and
/// the flusher folds the LSN and the target segment's generation into the
/// checksum in O(1) when it finally places the frame.
constexpr uint64_t kFrameHeaderBytes = 24;
/// Frames larger than this are treated as corruption, not allocated.
constexpr uint32_t kMaxFrameBytes = 1u << 26;

/// Segment preamble: [u32 magic][u32 version][u64 seq][u64 reserved = 0],
/// written and synced at creation, immutable afterwards. Readers ignore
/// the reserved field: segments from older builds store a base LSN there.
constexpr uint64_t kSegmentPreambleBytes = 24;
constexpr uint32_t kSegmentMagic = 0x41534547u;  // "ASEG"
constexpr uint32_t kSegmentVersion = 1;

/// Frame checksum: FNV-1a over the payload, then the LSN and the
/// generation stamp folded on top, folded to the 32 bits the frame stores.
uint32_t FrameChecksum(const uint8_t* payload, size_t n, Lsn lsn,
                       uint64_t gen);
/// Same, resuming from a precomputed payload hash (Fnv1aBytes over the
/// payload starting at kFnvOffsetBasis) — the flusher's O(1) finish.
uint32_t FrameChecksumFromHash(uint64_t payload_hash, Lsn lsn, uint64_t gen);

/// Segment file path: `<base>.<seq:08>`.
std::string SegmentPath(const std::string& base, uint64_t seq);

struct SegmentFileInfo {
  uint64_t seq = 0;
  std::string path;
};

/// Lists `base`'s segment files, ascending by seq (directory scan).
std::vector<SegmentFileInfo> ListSegmentFiles(const std::string& base);
/// Unlinks every segment file of `base` (tests and tools; the log itself
/// never removes files it did not decide to truncate).
void RemoveWalFiles(const std::string& base);

/// One segment file: a PagedFile stream with a validated preamble. Offsets
/// are absolute stream offsets; frames start at kSegmentPreambleBytes.
class WalSegment {
 public:
  /// Creates a fresh segment (truncating any existing file) with
  /// kDurablePageBytes pages and durably writes its preamble. Consults
  /// `disk` once for the file creation and once for the preamble
  /// write+sync; nullptr on failure (injected or real) — a torn creation
  /// leaves a file reopen garbage-collects.
  static std::unique_ptr<WalSegment> Create(const std::string& path,
                                            uint64_t seq, SimDisk* disk);

  /// Opens an existing segment and validates its preamble (magic, version,
  /// non-zero seq). No fault consults: open-time reads are recovery I/O.
  static std::unique_ptr<WalSegment> Open(const std::string& path);

  uint64_t seq() const { return seq_; }
  const std::string& path() const { return path_; }
  /// Bytes the file claims to back; the decode limit.
  uint64_t payload_limit() const { return file_->payload_bytes(); }

  bool Write(uint64_t off, const void* data, uint64_t len) {
    return file_->StreamWrite(off, data, len);
  }
  bool Sync() { return file_->Sync(); }

  /// Decodes the frame at `off`; false when invalid/torn — a valid-prefix
  /// walk stops there. Rejects frames whose generation stamp is not this
  /// segment's seq (stale bytes from another generation). A false with
  /// `*io_error` set means a read failed on bytes the file claims to back:
  /// the scan result is unreliable, not a clean tail. `*next` is the
  /// offset just past a decoded frame.
  bool DecodeFrameAt(uint64_t off, WalRecord* out, uint64_t* next,
                     bool* io_error);

 private:
  WalSegment(std::string path, std::unique_ptr<PagedFile> file, uint64_t seq)
      : path_(std::move(path)), file_(std::move(file)), seq_(seq) {}

  std::string path_;
  std::unique_ptr<PagedFile> file_;
  uint64_t seq_ = 0;
};

}  // namespace accl::durability
