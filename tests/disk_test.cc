// Tests for disk volume control: packs, records, VTOCs, placement.
#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/disk/pack.h"

namespace mks {
namespace {

struct DiskFixture {
  Clock clock;
  CostModel cost{&clock};
  Metrics metrics;
  Tracer trace{&clock, &metrics};  // never enabled: records nothing
  VolumeControl volumes{&cost, &metrics, &trace};
  PrimaryMemory memory{4, &cost, &metrics};
};

TEST(Disk, AllocateAndFreeRecords) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 4);
  DiskPack* pack = fx.volumes.pack(id);
  EXPECT_EQ(pack->free_records(), 8u);
  auto r1 = pack->AllocateRecord();
  auto r2 = pack->AllocateRecord();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->value, r2->value);
  EXPECT_EQ(pack->free_records(), 6u);
  pack->FreeRecord(*r1);
  EXPECT_EQ(pack->free_records(), 7u);
}

TEST(Disk, PackFullWhenExhausted) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(3, 4);
  DiskPack* pack = fx.volumes.pack(id);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pack->AllocateRecord().ok());
  }
  EXPECT_EQ(pack->AllocateRecord().code(), Code::kPackFull);
  EXPECT_GT(fx.metrics.Get("disk.pack_full"), 0u);
}

TEST(Disk, RecordIoRoundTripAndLatency) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  auto in = NewPageImage();
  (*in)[0] = 11;
  (*in)[kPageWords - 1] = 99;
  const Cycles before = fx.clock.now();
  pack->WriteRecord(*rec, in);
  fx.volumes.ReadRecord(id, *rec, &fx.memory, FrameIndex(1));
  EXPECT_GE(fx.clock.now() - before, Costs::kDiskReadLatency + Costs::kDiskWriteLatency);
  EXPECT_EQ(fx.metrics.Get("disk.reads"), 1u);
  const std::span<const Word> out = fx.memory.FrameView(FrameIndex(1));
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(out[kPageWords - 1], 99u);
}

TEST(Disk, UnwrittenRecordReadsZero) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  auto rec = fx.volumes.pack(id)->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  fx.memory.WriteWord(0, 1);  // frame 0 holds data before the read-in
  fx.volumes.ReadRecord(id, *rec, &fx.memory, FrameIndex(0));
  for (Word w : fx.memory.FrameView(FrameIndex(0))) {
    ASSERT_EQ(w, 0u);
  }
}

TEST(Disk, VtocLifecycleFreesRecords) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto vtoc = pack->AllocateVtoc(SegmentUid(77), false);
  ASSERT_TRUE(vtoc.ok());
  VtocEntry* entry = pack->GetVtoc(*vtoc);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->uid.value, 77u);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  entry->mutable_map_entry(0).allocated = true;
  entry->mutable_map_entry(0).record = *rec;
  EXPECT_EQ(entry->RecordsUsed(), 1u);
  EXPECT_EQ(pack->free_records(), 7u);
  pack->FreeVtoc(*vtoc);
  EXPECT_EQ(pack->free_records(), 8u);
  EXPECT_EQ(pack->GetVtoc(*vtoc), nullptr);
}

TEST(Disk, FileMapIsAllocatedOnFirstUse) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto vtoc = pack->AllocateVtoc(SegmentUid(5), false);
  ASSERT_TRUE(vtoc.ok());
  VtocEntry* entry = pack->GetVtoc(*vtoc);
  EXPECT_TRUE(entry->file_map.empty());
  // Every page of an empty map reads as never used.
  EXPECT_FALSE(entry->map_entry(0).allocated);
  EXPECT_FALSE(entry->map_entry(kMaxSegmentPages - 1).zero);
  EXPECT_EQ(entry->RecordsUsed(), 0u);
  entry->mutable_map_entry(7).zero = true;
  EXPECT_EQ(entry->file_map.size(), kMaxSegmentPages);
  EXPECT_TRUE(entry->map_entry(7).zero);
  EXPECT_FALSE(entry->map_entry(6).zero);
  // A reused slot starts empty again.
  pack->FreeVtoc(*vtoc);
  auto again = pack->AllocateVtoc(SegmentUid(6), false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->value, vtoc->value);
  EXPECT_TRUE(pack->GetVtoc(*again)->file_map.empty());
}

TEST(Disk, VtocSlotsExhaust) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 2);
  DiskPack* pack = fx.volumes.pack(id);
  ASSERT_TRUE(pack->AllocateVtoc(SegmentUid(1), false).ok());
  ASSERT_TRUE(pack->AllocateVtoc(SegmentUid(2), false).ok());
  EXPECT_EQ(pack->AllocateVtoc(SegmentUid(3), false).code(), Code::kNoVtocSlot);
}

TEST(Disk, VtocReusesLowestFreeSlotAfterOutOfOrderFrees) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 8);
  DiskPack* pack = fx.volumes.pack(id);
  for (uint32_t i = 0; i < 6; ++i) {
    auto v = pack->AllocateVtoc(SegmentUid(10 + i), false);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->value, i);
  }
  pack->FreeVtoc(VtocIndex(4));
  pack->FreeVtoc(VtocIndex(1));
  pack->FreeVtoc(VtocIndex(3));
  EXPECT_EQ(pack->vtoc_in_use(), 3u);
  for (const uint32_t expected : {1u, 3u, 4u, 6u, 7u}) {
    auto v = pack->AllocateVtoc(SegmentUid(100 + expected), false);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->value, expected);
  }
  EXPECT_EQ(pack->AllocateVtoc(SegmentUid(200), false).code(), Code::kNoVtocSlot);
  pack->FreeVtoc(VtocIndex(2));
  auto again = pack->AllocateVtoc(SegmentUid(201), false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->value, 2u);
  std::vector<std::string> findings;
  fx.volumes.AuditIntegrity(&findings);
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(Disk, VtocCountMatchesRecountThroughChurn) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(8, 64);
  DiskPack* pack = fx.volumes.pack(id);
  Rng rng(20260);
  std::vector<uint32_t> live;
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || (live.size() < 64 && rng.NextBool(0.55))) {
      // Reference: the lowest slot a full scan finds free.
      uint32_t lowest = 0;
      while (pack->GetVtoc(VtocIndex(lowest)) != nullptr) {
        ++lowest;
      }
      auto v = pack->AllocateVtoc(SegmentUid(step), false);
      ASSERT_TRUE(v.ok()) << step;
      ASSERT_EQ(v->value, lowest) << step;
      live.push_back(v->value);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      pack->FreeVtoc(VtocIndex(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    }
    uint32_t recount = 0;
    for (uint32_t v = 0; v < pack->vtoc_slots(); ++v) {
      recount += pack->GetVtoc(VtocIndex(v)) != nullptr ? 1 : 0;
    }
    ASSERT_EQ(pack->vtoc_in_use(), recount) << step;
    ASSERT_EQ(recount, live.size()) << step;
  }
  std::vector<std::string> findings;
  fx.volumes.AuditIntegrity(&findings);
  EXPECT_TRUE(findings.empty()) << findings.front();
}

TEST(Disk, ChoosePackPrefersEmptiest) {
  DiskFixture fx;
  const PackId a = fx.volumes.AddPack(8, 4);
  const PackId b = fx.volumes.AddPack(8, 4);
  // Drain pack a.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(fx.volumes.pack(a)->AllocateRecord().ok());
  }
  auto chosen = fx.volumes.ChoosePack();
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ(chosen->value, b.value);
}

TEST(Disk, ChoosePackExcludingNeedsHeadroom) {
  DiskFixture fx;
  const PackId a = fx.volumes.AddPack(8, 4);
  const PackId b = fx.volumes.AddPack(4, 4);
  auto ok = fx.volumes.ChoosePackExcluding(a, 4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->value, b.value);
  EXPECT_EQ(fx.volumes.ChoosePackExcluding(a, 5).code(), Code::kPackFull);
  EXPECT_EQ(fx.volumes.ChoosePackExcluding(b, 9).code(), Code::kPackFull);
}

TEST(Disk, PlacementSkipsPacksWithFullVtocs) {
  DiskFixture fx;
  const PackId a = fx.volumes.AddPack(16, 1);  // most records, one VTOC slot
  const PackId b = fx.volumes.AddPack(8, 4);
  const PackId c = fx.volumes.AddPack(4, 4);
  auto first = fx.volumes.ChoosePack();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->value, a.value);
  ASSERT_TRUE(fx.volumes.pack(a)->AllocateVtoc(SegmentUid(1), false).ok());
  // Pack a still has every record free, but no VTOC slot.
  EXPECT_EQ(fx.volumes.pack(a)->free_records(), 16u);
  auto placed = fx.volumes.ChoosePack();
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed->value, b.value);
  auto moved = fx.volumes.ChoosePackExcluding(b, 1);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->value, c.value);
  moved = fx.volumes.ChoosePackExcluding(c, 1);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->value, b.value);
  // Freeing the slot makes pack a eligible again.
  fx.volumes.pack(a)->FreeVtoc(VtocIndex(0));
  moved = fx.volumes.ChoosePackExcluding(b, 1);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->value, a.value);
  placed = fx.volumes.ChoosePack();
  ASSERT_TRUE(placed.ok());
  EXPECT_EQ(placed->value, a.value);
}

TEST(Disk, CopyAndStoreSkipLatency) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  auto in = NewPageImage();
  in->fill(5);
  const Cycles before = fx.clock.now();
  pack->StoreRecord(*rec, in);
  const PageRef out = pack->Share(*rec);
  EXPECT_EQ(fx.clock.now(), before);  // no latency charged
  ASSERT_NE(out, nullptr);
  EXPECT_EQ((*out)[100], 5u);
}

TEST(Disk, DetachLendsTheRecordUntilItsNextWrite) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  auto image = NewPageImage();
  pack->StoreRecord(*rec, image);
  EXPECT_EQ(pack->Share(*rec), image);  // by reference
  EXPECT_FALSE(pack->Detach(*rec, nullptr));  // not the image it holds
  EXPECT_TRUE(pack->Detach(*rec, image.get()));
  EXPECT_TRUE(pack->lent(*rec));
  EXPECT_EQ(image.use_count(), 1);
  pack->WriteRecord(*rec, image);
  EXPECT_FALSE(pack->lent(*rec));
  ASSERT_TRUE(pack->Detach(*rec, image.get()));
  pack->ClearRecord(*rec);
  EXPECT_FALSE(pack->lent(*rec));
  EXPECT_EQ(pack->Share(*rec), nullptr);  // reads zeros
}

TEST(Disk, PrefetchRecordIsAHostHintOnly) {
  // The peek page control makes before it picks a victim: on a record whose
  // image a frame shares, on an empty record and on a lent one, it neither
  // aborts nor moves the image's count, the read count or the clock.
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto shared = pack->AllocateRecord();
  auto empty = pack->AllocateRecord();
  auto lent = pack->AllocateRecord();
  ASSERT_TRUE(shared.ok() && empty.ok() && lent.ok());
  auto image = NewPageImage();
  pack->StoreRecord(*shared, image);
  fx.volumes.BindRecord(id, *shared, &fx.memory, FrameIndex(1));
  auto lent_image = NewPageImage();
  pack->StoreRecord(*lent, lent_image);
  ASSERT_TRUE(pack->Detach(*lent, lent_image.get()));
  ASSERT_EQ(image.use_count(), 3);
  const Cycles before = fx.clock.now();
  for (const uint32_t word : {0u, kPageWords / 2, kPageWords - 1}) {
    pack->PrefetchRecord(*shared, word);
    pack->PrefetchRecord(*empty, word);
    pack->PrefetchRecord(*lent, word);
  }
  EXPECT_EQ(image.use_count(), 3);
  EXPECT_EQ(lent_image.use_count(), 1);
  EXPECT_TRUE(pack->lent(*lent));
  EXPECT_EQ(pack->Share(*empty), nullptr);
  EXPECT_EQ(fx.metrics.Get("disk.reads"), 0u);
  EXPECT_EQ(fx.clock.now(), before);
}

TEST(Disk, WriteToAFrameAQueuedWriteHoldsCopies) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  auto image = NewPageImage();
  (*image)[0] = 1;
  pack->StoreRecord(*rec, std::move(image));
  const FrameIndex frame(2);
  const uint64_t word0 = uint64_t{2} * kPageWords;
  fx.volumes.ReadRecord(id, *rec, &fx.memory, frame);
  EXPECT_EQ(fx.memory.ReadWord(word0), 1u);
  fx.memory.WriteWord(word0, 2);  // the record lends its image to the frame
  EXPECT_TRUE(pack->lent(*rec));
  pack->QueueWrite(*rec, fx.memory.Snapshot(frame, fx.volumes.Home(id, *rec)), 0);
  EXPECT_EQ(fx.memory.page_copies(), 0u);
  fx.memory.WriteWord(word0, 3);  // the queued write still holds the image
  EXPECT_EQ(fx.memory.page_copies(), 1u);
  EXPECT_TRUE(pack->lent(*rec));  // until the write is dispatched
  ASSERT_EQ(pack->DispatchBatch(8, nullptr), 1u);
  EXPECT_FALSE(pack->lent(*rec));
  const PageRef out = pack->Share(*rec);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ((*out)[0], 2u);  // the data as of queue time
  EXPECT_EQ(fx.memory.ReadWord(word0), 3u);
}

TEST(DiskDeathTest, ReadOfALentRecordAborts) {
  DiskFixture fx;
  const PackId id = fx.volumes.AddPack(4, 4);
  DiskPack* pack = fx.volumes.pack(id);
  auto rec = pack->AllocateRecord();
  ASSERT_TRUE(rec.ok());
  auto image = NewPageImage();
  pack->StoreRecord(*rec, image);
  ASSERT_TRUE(pack->Detach(*rec, image.get()));
  EXPECT_DEATH((void)pack->Share(*rec), "writeback was lost");
}

}  // namespace
}  // namespace mks
