// Crash recovery tests for the durable SDI engine.
//
// The centerpiece is the crash-point matrix: a deterministic mutation
// script (singles, batches, unsubscribes, checkpoints) is driven through a
// durable engine with SimDisk::FailAfter armed at EVERY logical I/O op
// index the fault-free run performs — WAL flushes, checkpoint blob writes,
// directory flips, WAL truncations. After each injected crash the files
// are reopened and the engine recovered; its match sets must be
// digest-equal to a brute-force oracle over exactly the mutations the
// crashed run acknowledged. The un-acknowledged tail may be absent (it is,
// by construction: a failed flush never wrote the record), but never
// corrupt and never resurrected. The engine serving after each crash must
// then accept a new durable subscription under a fresh id, and a second
// recovery must still hold it.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "geometry/query.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

constexpr Dim kNd = 3;

AttributeSchema UnitSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

EngineOptions Opts() {
  EngineOptions o;
  o.index.reorg_period = 20;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = 4;
  o.match_threads = 0;
  o.sharding = ShardingPolicy::kRange;
  return o;
}

DurabilityOptions DurOpts() {
  DurabilityOptions d;
  d.group_commit = true;
  // The script checkpoints explicitly, so op counts are deterministic.
  d.checkpoint_every_mutations = 0;
  // Tiny segments so the script's flushes rotate the WAL many times and
  // its checkpoints actually unlink segments: the crash-point matrix then
  // lands faults inside rotation and segment GC, not just inside flushes
  // and checkpoint writes.
  d.wal_segment_bytes = 256;
  return d;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct Paths {
  std::string wal;
  std::string ckpt;
  explicit Paths(const std::string& tag)
      : wal(TempPath("durrec_" + tag + ".wal")),
        ckpt(TempPath("durrec_" + tag + ".ck")) {}
  void Remove() const {
    durability::RemoveWalFiles(wal);  // the whole segment chain
    std::remove(ckpt.c_str());
  }
};

/// Drives the deterministic mutation script against `de`, recording every
/// ACKNOWLEDGED mutation's net effect in `*acked`. Mutations refused by a
/// broken WAL simply drop out — that is the acknowledged-prefix contract
/// the oracle checks.
void DriveScript(durability::DurableEngine& de,
                 std::map<SubscriptionId, Box>* acked) {
  Rng rng(2026);
  SubscriptionEngine& e = *de.engine;
  const auto subscribe_one = [&](const Box& b) {
    const SubscriptionId id = e.SubscribeBox(b);
    if (id != kInvalidObject) (*acked)[id] = b;
  };
  const auto unsubscribe_some = [&](size_t n) {
    for (size_t i = 0; i < n && !acked->empty(); ++i) {
      const SubscriptionId victim = acked->begin()->first;
      if (e.Unsubscribe(victim)) acked->erase(victim);
    }
  };
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 8; ++i) {
      subscribe_one(testutil::RandomBox(rng, kNd, 0.5f));
    }
    std::vector<Box> batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back(testutil::RandomBox(rng, kNd, 0.5f));
    }
    std::vector<SubscriptionId> ids;
    e.SubscribeBatch(Span<const Box>(batch.data(), batch.size()), &ids);
    for (size_t i = 0; i < ids.size(); ++i) (*acked)[ids[i]] = batch[i];
    unsubscribe_some(4);
    de.checkpointer->CheckpointNow();  // failure is part of the matrix
  }
  for (int i = 0; i < 4; ++i) {
    subscribe_one(testutil::RandomBox(rng, kNd, 0.5f));
  }
}

std::vector<Box> Probes() {
  Rng rng(777);
  std::vector<Box> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(testutil::RandomBox(rng, kNd, 0.6f));
  }
  return probes;
}

std::vector<SubscriptionId> Oracle(const std::map<SubscriptionId, Box>& subs,
                                   const Box& probe) {
  Query q(probe, Relation::kIntersects);
  std::vector<SubscriptionId> out;
  for (const auto& [id, box] : subs) {
    if (q.Matches(box.view())) out.push_back(id);
  }
  return out;  // map order is ascending — already sorted
}

/// Recovers from the files and asserts exact parity with `acked`.
void ExpectRecoveredParity(const Paths& paths,
                           const std::map<SubscriptionId, Box>& acked,
                           const std::string& context) {
  durability::DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                      paths.wal, paths.ckpt,
                                      /*disk=*/nullptr, &de, &st))
      << context << ": " << st.message();
  ASSERT_EQ(de.engine->subscription_count(), acked.size()) << context;
  for (const Box& probe : Probes()) {
    std::vector<SubscriptionId> got;
    de.engine->Match(Event::Range(probe), &got);
    ASSERT_EQ(got, Oracle(acked, probe)) << context;
  }
}

/// Recovers from the files and subscribes one full-domain box durably: its
/// id must be valid and past every acknowledged id. Records it in `acked`
/// so the next ExpectRecoveredParity checks that it survived.
void SubscribeAfterRecovery(const Paths& paths,
                            std::map<SubscriptionId, Box>* acked,
                            const std::string& context) {
  durability::DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                      paths.wal, paths.ckpt,
                                      /*disk=*/nullptr, &de, &st))
      << context << ": " << st.message();
  const SubscriptionId fresh = de.engine->SubscribeBox(Box::FullDomain(kNd));
  ASSERT_NE(fresh, kInvalidObject) << context;
  if (!acked->empty()) {
    ASSERT_GT(fresh, acked->rbegin()->first) << context;
  }
  (*acked)[fresh] = Box::FullDomain(kNd);
}

TEST(DurabilityRecovery, CleanRestartRestoresEverythingExactly) {
  const Paths paths("clean");
  paths.Remove();
  std::map<SubscriptionId, Box> acked;
  uint64_t fences_version = 0;
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    EXPECT_FALSE(de.recovery.checkpoint_loaded);  // fresh start
    DriveScript(de, &acked);
    // The script's checkpoints truncated the WAL as they went, and under
    // the tiny segment size that means real segment GC: files rotated in,
    // then unlinked once a checkpoint covered them —
    // the on-disk footprint is bounded, not just logically truncated.
    EXPECT_GT(de.checkpointer->stats().checkpoints_written, 0u);
    const WalStats ws = de.wal->stats();
    EXPECT_GT(ws.truncations, 0u);
    EXPECT_GT(ws.segments_rotated, 0u);
    EXPECT_GT(ws.segments_unlinked, 0u);
    EXPECT_LT(ws.live_segments, ws.segments_rotated + 1);
    fences_version = de.engine->routing_version();
    EXPECT_GT(acked.size(), 20u);  // the script really did build state
  }
  // Restart: checkpoint + WAL tail reproduce the acknowledged state.
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st));
    EXPECT_TRUE(de.recovery.checkpoint_loaded);
    EXPECT_GT(de.recovery.checkpoint_subscriptions, 0u);
    EXPECT_EQ(de.engine->subscription_count(), acked.size());
    for (const Box& probe : Probes()) {
      std::vector<SubscriptionId> got;
      de.engine->Match(Event::Range(probe), &got);
      EXPECT_EQ(got, Oracle(acked, probe));
    }
    // Recovered id allocation continues past every restored id: a new
    // durable subscription gets a fresh id and survives the next restart.
    const SubscriptionId fresh =
        de.engine->SubscribeBox(Box::FullDomain(kNd));
    ASSERT_NE(fresh, kInvalidObject);
    EXPECT_GT(fresh, acked.rbegin()->first);
    acked[fresh] = Box::FullDomain(kNd);
  }
  ExpectRecoveredParity(paths, acked, "second restart");
  (void)fences_version;
  paths.Remove();
}

TEST(DurabilityRecovery, LsnsAfterAFullyTruncatedLogSortPastTheImage) {
  const Paths paths("emptied");
  paths.Remove();
  std::map<SubscriptionId, Box> acked;
  Rng rng(31);
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    for (int i = 0; i < 12; ++i) {
      const Box b = testutil::RandomBox(rng, kNd, 0.5f);
      const SubscriptionId id = de.engine->SubscribeBox(b);
      ASSERT_NE(id, kInvalidObject);
      acked[id] = b;
    }
  }
  // A crash between a rotation's file create and its first write leaves an
  // empty tail segment past the last record.
  const auto segs = durability::ListSegmentFiles(paths.wal);
  ASSERT_FALSE(segs.empty());
  const uint64_t empty_seq = segs.back().seq + 1;
  ASSERT_NE(durability::WalSegment::Create(
                durability::SegmentPath(paths.wal, empty_seq), empty_seq,
                /*disk=*/nullptr),
            nullptr);
  // Checkpoint: the image covers every record, so the truncation drops
  // every sealed segment and leaves only the empty tail — the log is empty.
  Lsn image_lsn = kNoLsn;
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    ASSERT_TRUE(de.checkpointer->CheckpointNow());
    image_lsn = de.checkpointer->stats().last_lsn;
    EXPECT_EQ(image_lsn, 12u);
    EXPECT_EQ(de.wal->stats().live_segments, 1u);
  }
  ASSERT_EQ(durability::ListSegmentFiles(paths.wal).size(), 1u);
  // Recover from the image alone, then subscribe: the new record must sort
  // after the image, or the next recovery's replay (which starts past the
  // image LSN) would skip it.
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    EXPECT_TRUE(de.recovery.checkpoint_loaded);
    EXPECT_EQ(de.recovery.checkpoint_lsn, image_lsn);
    EXPECT_EQ(de.recovery.wal_records_scanned, 0u);
    const SubscriptionId fresh = de.engine->SubscribeBox(Box::FullDomain(kNd));
    ASSERT_NE(fresh, kInvalidObject);
    EXPECT_GT(fresh, acked.rbegin()->first);
    EXPECT_GT(de.wal->max_lsn(), image_lsn);
    acked[fresh] = Box::FullDomain(kNd);
  }
  ExpectRecoveredParity(paths, acked, "second recovery");
  paths.Remove();
}

TEST(DurabilityRecovery, CrashPointMatrixPreservesAcknowledgedPrefix) {
  // Dry run with a counting disk: its io_ops() is the matrix size.
  uint64_t total_ops = 0;
  {
    const Paths paths("dryrun");
    paths.Remove();
    SimDisk disk = SimDisk::Paper();
    std::map<SubscriptionId, Box> acked;
    {
      durability::DurableEngine de;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                          paths.wal, paths.ckpt, &disk, &de,
                                          nullptr));
      DriveScript(de, &acked);
      total_ops = disk.io_ops();
      EXPECT_EQ(disk.faults_injected(), 0u);
      // The matrix reaches rotation and segment unlinks, not just flushes.
      EXPECT_GT(de.wal->stats().segments_rotated, 0u);
      EXPECT_GT(de.wal->stats().segments_unlinked, 0u);
      EXPECT_GT(disk.file_unlinks(), 0u);
    }
    ExpectRecoveredParity(paths, acked, "dry run");
    SubscribeAfterRecovery(paths, &acked, "dry run");
    ExpectRecoveredParity(paths, acked, "dry run, after a new write");
    paths.Remove();
  }
  ASSERT_GT(total_ops, 30u);  // flushes + checkpoints + truncations

  for (uint64_t k = 0; k < total_ops; ++k) {
    const Paths paths("k" + std::to_string(k));
    paths.Remove();
    SimDisk disk = SimDisk::Paper();
    disk.FailAfter(k);
    std::map<SubscriptionId, Box> acked;
    {
      durability::DurableEngine de;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                          paths.wal, paths.ckpt, &disk, &de,
                                          nullptr));
      DriveScript(de, &acked);
      EXPECT_GT(disk.faults_injected(), 0u) << "crash point " << k;
    }  // "crash": tear everything down with the fault still armed
    const std::string context = "crash point " + std::to_string(k);
    ExpectRecoveredParity(paths, acked, context);
    SubscribeAfterRecovery(paths, &acked, context);
    ExpectRecoveredParity(paths, acked, context + ", after a new write");
    paths.Remove();
  }
}

}  // namespace
}  // namespace accl
