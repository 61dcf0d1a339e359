#include "src/disk/pack.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace mks {

namespace {

// A lent record's data went to a frame's first write and comes back only
// with that page's writeback, so a read of it before then means the
// writeback was lost.
[[noreturn]] void LostWriteback(PackId pack, RecordIndex record) {
  std::fprintf(stderr,
               "DiskPack %u: record %u read while lent to a frame's first write: the page's "
               "writeback was lost\n",
               static_cast<unsigned>(pack.value), static_cast<unsigned>(record.value));
  std::abort();
}

}  // namespace

const FileMapEntry& VtocEntry::map_entry(uint32_t page) const {
  static const FileMapEntry kNeverUsed{};
  assert(page < kMaxSegmentPages);
  return file_map.empty() ? kNeverUsed : file_map[page];
}

FileMapEntry& VtocEntry::mutable_map_entry(uint32_t page) {
  assert(page < kMaxSegmentPages);
  if (file_map.empty()) {
    file_map.resize(kMaxSegmentPages);
  }
  return file_map[page];
}

uint32_t VtocEntry::RecordsUsed() const {
  uint32_t used = 0;
  for (const FileMapEntry& fm : file_map) {
    if (fm.allocated) {
      ++used;
    }
  }
  return used;
}

DiskPack::DiskPack(PackId id, uint32_t record_count, uint32_t vtoc_slots, CostModel* cost,
                   Metrics* metrics, Tracer* trace)
    : id_(id),
      record_count_(record_count),
      free_records_(record_count),
      record_used_(record_count, false),
      record_data_(record_count),
      record_lent_(record_count, false),
      vtoc_(vtoc_slots),
      cost_(cost),
      metrics_(metrics),
      trace_(trace),
      ev_batch_round_(trace != nullptr ? trace->InternEvent("disk.batch_round") : 0),
      id_pack_full_(metrics->Intern("disk.pack_full")),
      id_reads_(metrics->Intern("disk.reads")),
      id_writes_(metrics->Intern("disk.writes")),
      id_batch_dispatches_(metrics->Intern("disk.batch_dispatches")),
      id_batched_records_(metrics->Intern("disk.batched_records")) {}

Result<RecordIndex> DiskPack::AllocateRecord() {
  if (free_records_ == 0) {
    metrics_->Inc(id_pack_full_);
    return Status(Code::kPackFull, "pack " + std::to_string(id_.value));
  }
  for (uint32_t i = 0; i < record_count_; ++i) {
    const uint32_t candidate = (alloc_cursor_ + i) % record_count_;
    if (!record_used_[candidate]) {
      record_used_[candidate] = true;
      alloc_cursor_ = candidate + 1;
      --free_records_;
      return RecordIndex(candidate);
    }
  }
  metrics_->Inc(id_pack_full_);
  return Status(Code::kPackFull, "pack " + std::to_string(id_.value));
}

void DiskPack::FreeRecord(RecordIndex record) {
  assert(record.value < record_count_ && record_used_[record.value]);
  record_used_[record.value] = false;
  ClearRecord(record);
  ++free_records_;
}

void DiskPack::ReadRecord(RecordIndex record, std::span<Word> out) {
  ChargeRead(record);
  CopyRecord(record, out);
}

void DiskPack::ChargeRead(RecordIndex record) {
  assert(record.value < record_count_);
  (void)record;
  cost_->Charge(CodeStyle::kOptimized, Costs::kDiskReadLatency);
  metrics_->Inc(id_reads_);
}

void DiskPack::WriteRecord(RecordIndex record, PageRef image) {
  cost_->Charge(CodeStyle::kOptimized, Costs::kDiskWriteLatency);
  metrics_->Inc(id_writes_);
  StoreRecord(record, std::move(image));
}

PageRef DiskPack::Share(RecordIndex record) const {
  assert(record.value < record_count_);
  if (record_lent_[record.value]) {
    LostWriteback(id_, record);
  }
  return record_data_[record.value];
}

void DiskPack::CopyRecord(RecordIndex record, std::span<Word> out) const {
  assert(out.size() == kPageWords);
  const PageRef image = Share(record);
  if (image != nullptr) {
    std::copy(image->begin(), image->end(), out.begin());
  } else {
    std::fill(out.begin(), out.end(), 0);
  }
}

void DiskPack::StoreRecord(RecordIndex record, PageRef image) {
  assert(record.value < record_count_);
  record_data_[record.value] = std::move(image);
  record_lent_[record.value] = false;
}

bool DiskPack::Detach(RecordIndex record, const PageImage* image) {
  assert(record.value < record_count_);
  if (record_data_[record.value].get() != image) {
    return false;
  }
  record_data_[record.value].reset();
  record_lent_[record.value] = true;
  return true;
}

void DiskPack::PrefetchRecord(RecordIndex record, uint32_t word) const {
  assert(record.value < record_count_ && word < kPageWords);
  const PageImage* image = record_data_[record.value].get();
  if (image == nullptr) {
    return;
  }
  // An arena slot starts on a cache line with the shared count, and the
  // image follows it on the same line.
  __builtin_prefetch(image->data());
  __builtin_prefetch(image->data() + word);
}

void DiskPack::ClearRecord(RecordIndex record) {
  assert(record.value < record_count_);
  record_data_[record.value].reset();
  record_lent_[record.value] = false;
}

void DiskPack::QueueRead(RecordIndex record, uint64_t cookie) {
  assert(record.value < record_count_);
  io_queue_.push_back(IoRequest{false, record, cookie, nullptr});
}

void DiskPack::QueueWrite(RecordIndex record, PageRef image, uint64_t cookie) {
  assert(record.value < record_count_);
  io_queue_.push_back(IoRequest{true, record, cookie, std::move(image)});
}

size_t DiskPack::DispatchBatch(size_t max_batch, std::vector<uint64_t>* completed_reads) {
  if (io_queue_.empty() || max_batch == 0) {
    return 0;
  }
  const size_t take = io_queue_.size() < max_batch ? io_queue_.size() : max_batch;
  const Cycles trace_begin = trace_ != nullptr ? trace_->Begin() : 0;
  const auto round = io_queue_.begin();
  // One arm sweep per round: service in record order so every request after
  // the first rides the same seek.
  std::sort(round, round + take,
            [](const IoRequest& a, const IoRequest& b) { return a.record.value < b.record.value; });
  metrics_->Inc(id_batch_dispatches_);
  bool first = true;
  for (IoRequest& req : std::span(round, take)) {
    if (first) {
      cost_->Charge(CodeStyle::kOptimized,
                    req.write ? Costs::kDiskWriteLatency : Costs::kDiskReadLatency);
      first = false;
    } else {
      cost_->Charge(CodeStyle::kOptimized, Costs::kDiskBatchedTransfer);
      metrics_->Inc(id_batched_records_);
    }
    if (req.write) {
      metrics_->Inc(id_writes_);
      StoreRecord(req.record, std::move(req.image));
    } else {
      metrics_->Inc(id_reads_);
      if (completed_reads != nullptr) {
        completed_reads->push_back(req.cookie);
      }
    }
  }
  io_queue_.erase(round, round + take);
  if (trace_ != nullptr) {
    trace_->CloseSpan(trace_begin, ev_batch_round_, id_.value,
                      static_cast<uint32_t>(take));
  }
  return take;
}

Result<VtocIndex> DiskPack::AllocateVtoc(SegmentUid uid, bool is_directory) {
  for (uint32_t i = vtoc_free_hint_; i < vtoc_.size(); ++i) {
    if (!vtoc_[i].in_use) {
      vtoc_[i] = VtocEntry{};
      vtoc_[i].in_use = true;
      vtoc_[i].uid = uid;
      vtoc_[i].is_directory = is_directory;
      ++vtoc_used_;
      vtoc_free_hint_ = i + 1;
      return VtocIndex(i);
    }
  }
  vtoc_free_hint_ = static_cast<uint32_t>(vtoc_.size());
  return Status(Code::kNoVtocSlot, "pack " + std::to_string(id_.value));
}

void DiskPack::FreeVtoc(VtocIndex index) {
  assert(index.value < vtoc_.size() && vtoc_[index.value].in_use);
  VtocEntry& entry = vtoc_[index.value];
  for (FileMapEntry& fm : entry.file_map) {
    if (fm.allocated) {
      FreeRecord(fm.record);
      fm.allocated = false;
    }
  }
  entry = VtocEntry{};
  --vtoc_used_;
  vtoc_free_hint_ = std::min(vtoc_free_hint_, index.value);
}

VtocEntry* DiskPack::GetVtoc(VtocIndex index) {
  if (index.value >= vtoc_.size() || !vtoc_[index.value].in_use) {
    return nullptr;
  }
  return &vtoc_[index.value];
}

const VtocEntry* DiskPack::GetVtoc(VtocIndex index) const {
  if (index.value >= vtoc_.size() || !vtoc_[index.value].in_use) {
    return nullptr;
  }
  return &vtoc_[index.value];
}

void DiskPack::AuditIntegrity(std::vector<std::string>* findings) const {
  uint32_t used = 0;
  for (uint32_t i = 0; i < vtoc_.size(); ++i) {
    if (vtoc_[i].in_use) {
      ++used;
    } else if (i < vtoc_free_hint_) {
      findings->push_back("pack " + std::to_string(id_.value) + ": VTOC slot " +
                          std::to_string(i) + " is free below the free hint " +
                          std::to_string(vtoc_free_hint_));
    }
  }
  if (used != vtoc_used_) {
    findings->push_back("pack " + std::to_string(id_.value) + ": VTOC count " +
                        std::to_string(vtoc_used_) + " but " + std::to_string(used) +
                        " slots in use");
  }
}

void VolumeControl::ReadRecord(PackId id, RecordIndex record, PrimaryMemory* memory,
                               FrameIndex frame) {
  pack(id)->ChargeRead(record);
  BindRecord(id, record, memory, frame);
}

void VolumeControl::BindRecord(PackId id, RecordIndex record, PrimaryMemory* memory,
                               FrameIndex frame) {
  memory->Bind(frame, pack(id)->Share(record), Home(id, record));
}

PackId VolumeControl::AddPack(uint32_t record_count, uint32_t vtoc_slots) {
  PackId id(static_cast<uint16_t>(packs_.size()));
  packs_.emplace_back(id, record_count, vtoc_slots, cost_, metrics_, trace_);
  return id;
}

DiskPack* VolumeControl::pack(PackId id) {
  assert(id.value < packs_.size());
  return &packs_[id.value];
}

const DiskPack* VolumeControl::pack(PackId id) const {
  assert(id.value < packs_.size());
  return &packs_[id.value];
}

Result<PackId> VolumeControl::ChoosePack() const {
  const DiskPack* best = nullptr;
  for (const DiskPack& p : packs_) {
    if (p.free_records() == 0 || p.vtoc_in_use() == p.vtoc_slots()) {
      continue;
    }
    if (best == nullptr || p.free_records() > best->free_records()) {
      best = &p;
    }
  }
  if (best == nullptr) {
    return Status(Code::kPackFull, "no pack with free space");
  }
  return best->id();
}

Result<PackId> VolumeControl::ChoosePackExcluding(PackId exclude,
                                                  uint32_t needed_records) const {
  const DiskPack* best = nullptr;
  for (const DiskPack& p : packs_) {
    if (p.id() == exclude || p.free_records() < needed_records ||
        p.vtoc_in_use() == p.vtoc_slots()) {
      continue;
    }
    if (best == nullptr || p.free_records() > best->free_records()) {
      best = &p;
    }
  }
  if (best == nullptr) {
    return Status(Code::kPackFull, "no relocation target");
  }
  return best->id();
}

void VolumeControl::AuditIntegrity(std::vector<std::string>* findings) const {
  for (const DiskPack& p : packs_) {
    p.AuditIntegrity(findings);
  }
}

}  // namespace mks
