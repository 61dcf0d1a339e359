#include "src/hw/machine.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace mks {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kMissingSegment:
      return "missing_segment";
    case FaultKind::kMissingPage:
      return "missing_page";
    case FaultKind::kLockedDescriptor:
      return "locked_descriptor";
    case FaultKind::kQuotaException:
      return "quota_exception";
    case FaultKind::kOutOfBounds:
      return "out_of_bounds";
    case FaultKind::kAccessViolation:
      return "access_violation";
    case FaultKind::kRingViolation:
      return "ring_violation";
  }
  return "unknown";
}

AssociativeMemory::AssociativeMemory(uint16_t entries) {
  // Round down to a power-of-two number of kWays-wide sets; fewer than one
  // full set degenerates to a single direct set of `entries` ways.
  if (entries == 0) {
    return;
  }
  if (entries < kWays) {
    set_count_ = 1;
    slots_.assign(entries, Entry{});
    return;
  }
  size_t sets = 1;
  while (sets * 2 * kWays <= entries) {
    sets *= 2;
  }
  set_count_ = sets;
  slots_.assign(sets * kWays, Entry{});
}

size_t AssociativeMemory::SetBase(uint64_t key) const {
  // Mix segno and page so consecutive pages of one segment spread over sets.
  uint64_t h = key * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>((h >> 32) & (set_count_ - 1)) * kWays;
}

AssociativeMemory::Entry* AssociativeMemory::Lookup(uint64_t key) {
  if (set_count_ == 0) {
    return nullptr;
  }
  const size_t base = SetBase(key);
  const size_t ways = std::min(slots_.size() - base, static_cast<size_t>(kWays));
  for (size_t w = 0; w < ways; ++w) {
    Entry& e = slots_[base + w];
    if (e.valid && e.key == key) {
      e.stamp = ++stamp_;
      return &e;
    }
  }
  return nullptr;
}

void AssociativeMemory::Insert(uint64_t key, Ptw* ptw, bool read, bool write, bool execute,
                               uint8_t ring_bracket) {
  if (set_count_ == 0) {
    return;
  }
  const size_t base = SetBase(key);
  const size_t ways = std::min(slots_.size() - base, static_cast<size_t>(kWays));
  Entry* victim = &slots_[base];
  for (size_t w = 0; w < ways; ++w) {
    Entry& e = slots_[base + w];
    if (e.valid && e.key == key) {
      victim = &e;  // refresh in place
      break;
    }
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.stamp < victim->stamp || !victim->valid) {
      victim = &e;
    }
  }
  if (victim->valid) {
    ReleasePtw(victim->ptw);
  }
  ++ptw->assoc_refs;
  *victim = Entry{true, key, ptw, read, write, execute, ring_bracket, ++stamp_};
}

uint32_t AssociativeMemory::InvalidateTag(uint32_t tag) {
  uint32_t dropped = 0;
  for (Entry& e : slots_) {
    if (e.valid && static_cast<uint32_t>(e.key >> 32) == tag) {
      e.valid = false;
      ReleasePtw(e.ptw);
      ++dropped;
    }
  }
  return dropped;
}

uint32_t AssociativeMemory::InvalidatePtw(const Ptw* ptw) {
  uint32_t dropped = 0;
  for (Entry& e : slots_) {
    if (e.valid && e.ptw == ptw) {
      e.valid = false;
      ReleasePtw(e.ptw);
      ++dropped;
      if (ptw->assoc_refs == 0) {
        break;  // no cache anywhere still holds this PTW
      }
    }
  }
  return dropped;
}

uint32_t AssociativeMemory::InvalidatePageTable(const PageTable* pt) {
  if (pt->ptws.empty()) {
    return 0;
  }
  const Ptw* first = pt->ptws.data();
  const Ptw* last = first + pt->ptws.size();
  uint32_t dropped = 0;
  for (Entry& e : slots_) {
    if (e.valid && e.ptw >= first && e.ptw < last) {
      e.valid = false;
      ReleasePtw(e.ptw);
      ++dropped;
    }
  }
  return dropped;
}

void AssociativeMemory::Flush() {
  for (Entry& e : slots_) {
    if (e.valid) {
      e.valid = false;
      ReleasePtw(e.ptw);
    }
  }
}

namespace {

size_t FrameBytes(uint32_t frame_count) {
  return static_cast<size_t>(frame_count) * kPageWords * sizeof(Word);
}

Word* MapZeroedWords(size_t bytes) {
  if (bytes == 0) {
    return nullptr;
  }
  void* mapped = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  return static_cast<Word*>(mapped);
}

// The arena page images live in.  A page-bound workload binds a new image on
// nearly every reference, and with each 8 KB image a heap block of its own
// those touches miss the TLB; packed into 2 MB chunks on huge pages, a
// thousand images share one TLB entry.  A chunk is cut into fixed slots, each
// holding one allocate_shared block (reference count, then image) and a gap
// after it; released slots go on a LIFO free list.  Chunks are never
// unmapped: a chunk could go back only once all of its slots were free, and
// each kernel a process boots takes its images back up to about the last
// one's peak.  Host execution is single-threaded, so nothing is locked.
//
// Under AddressSanitizer a chunk starts poisoned, a slot's block is
// unpoisoned while it holds an image, and the gap stays poisoned, so a view
// that outlives its image, or runs off its end, is reported.
class PageArena {
 public:
  static constexpr size_t kChunkBytes = size_t{2} << 20;
  static constexpr size_t kSlotBytes = sizeof(PageImage) + 64;  // whole cache lines
  static constexpr size_t kSlotsPerChunk = kChunkBytes / kSlotBytes;
  // Poisoned bytes a slot keeps after its block, at the least.
  static constexpr size_t kGapBytes = 32;

  // A slot with its first `bytes` bytes usable.
  void* Take(size_t bytes) {
    std::byte* slot;
    if (free_ != nullptr) {
      slot = reinterpret_cast<std::byte*>(free_);
      ASAN_UNPOISON_MEMORY_REGION(slot, bytes);
      free_ = free_->next;
    } else {
      if (next_ == end_) {
        MapChunk();
      }
      slot = next_;
      next_ += kSlotBytes;
      ASAN_UNPOISON_MEMORY_REGION(slot, bytes);
    }
    ++live_;
    return slot;
  }

  // Returns a slot whose block, `bytes` long, has been destroyed.
  void Give(void* slot, size_t bytes) {
    free_ = new (slot) FreeSlot{free_};
    ASAN_POISON_MEMORY_REGION(slot, bytes);
    --live_;
  }

  PageArenaCounts counts() const { return PageArenaCounts{.live = live_, .chunks = chunks_}; }

 private:
  struct FreeSlot {
    FreeSlot* next;
  };

  // Maps one chunk, 2 MB-aligned so it can sit on one huge page: over-map by
  // a chunk and give back what lies outside the aligned one.  Where
  // transparent huge pages are off the advice does nothing, or fails and is
  // ignored, and the chunk is ordinary pages.
  void MapChunk() {
    const size_t span = 2 * kChunkBytes;
    auto* raw = reinterpret_cast<std::byte*>(MapZeroedWords(span));
    const size_t lead = (kChunkBytes - reinterpret_cast<uintptr_t>(raw) % kChunkBytes) % kChunkBytes;
    std::byte* chunk = raw + lead;
    if (lead != 0) {
      munmap(raw, lead);
    }
    munmap(chunk + kChunkBytes, span - lead - kChunkBytes);
    (void)madvise(chunk, kChunkBytes, MADV_HUGEPAGE);
    ASAN_POISON_MEMORY_REGION(chunk, kChunkBytes);
    next_ = chunk;
    end_ = chunk + kSlotsPerChunk * kSlotBytes;
    ++chunks_;
  }

  FreeSlot* free_ = nullptr;
  std::byte* next_ = nullptr;  // the newest chunk's first never-used slot
  std::byte* end_ = nullptr;
  uint64_t live_ = 0;
  uint64_t chunks_ = 0;
};

// Constant-initialized and never destroyed, so images released during static
// destruction still find it.
constinit PageArena page_arena;

// The stateless allocator allocate_shared takes page images' slots with.
template <typename T>
struct PageArenaAllocator {
  using value_type = T;

  PageArenaAllocator() = default;
  template <typename U>
  PageArenaAllocator(const PageArenaAllocator<U>& /*other*/) {}

  T* allocate(size_t n) {
    static_assert(sizeof(T) + PageArena::kGapBytes <= PageArena::kSlotBytes &&
                  alignof(T) <= 64);
    assert(n == 1);
    (void)n;
    return static_cast<T*>(page_arena.Take(sizeof(T)));
  }
  void deallocate(T* block, size_t /*n*/) { page_arena.Give(block, sizeof(T)); }

  template <typename U>
  bool operator==(const PageArenaAllocator<U>& /*other*/) const {
    return true;
  }
};

// What zero frames view.
const PageImage kZeroImage{};

}  // namespace

PageRef NewPageImage() { return std::allocate_shared<PageImage>(PageArenaAllocator<PageImage>{}); }

PageArenaCounts PageArenaNow() { return page_arena.counts(); }

void PrimaryMemory::Unmap::operator()(Word* words) const { munmap(words, bytes); }

PrimaryMemory::PrimaryMemory(uint32_t frame_count, CostModel* cost, Metrics* metrics)
    : frame_count_(frame_count),
      words_(MapZeroedWords(FrameBytes(frame_count)), Unmap{FrameBytes(frame_count)}),
      views_(frame_count),
      bindings_(frame_count),
      cost_(cost),
      metrics_(metrics),
      id_zero_scans_(metrics->Intern("hw.zero_scans")) {
  for (uint32_t f = 0; f < frame_count; ++f) {
    views_[f] = View{HomeWords(f), HomeWords(f)};
  }
}

void PrimaryMemory::Bind(FrameIndex frame, PageRef image, PageHome home) {
  assert(frame.value < frame_count_);
  const Word* read = image != nullptr ? image->data() : kZeroImage.data();
  bindings_[frame.value] = Binding{std::move(image), home};
  views_[frame.value] = View{read, nullptr};
}

void PrimaryMemory::ZeroFrame(FrameIndex frame) { Bind(frame, nullptr, PageHome{}); }

std::span<Word> PrimaryMemory::HomeSpan(FrameIndex first, uint32_t count) {
  assert(first.value + count <= frame_count_);
  for (uint32_t f = first.value; f < first.value + count; ++f) {
    assert(views_[f].write == HomeWords(f));
  }
  return std::span<Word>(HomeWords(first.value), static_cast<size_t>(count) * kPageWords);
}

Word* PrimaryMemory::PrepareWrite(uint32_t frame) {
  Binding& b = bindings_[frame];
  if (b.image == nullptr) {
    b.image = NewPageImage();  // a zero frame's first write
  } else if (b.image.use_count() > 1) {
    // Only the frame's own record may lend its reference; any other holder
    // (a queued write, a second record) keeps the words it was given.
    const bool detached = b.image.use_count() == 2 && b.home.src != nullptr &&
                          b.home.src->Detach(b.home.cookie, b.image.get());
    if (!detached) {
      PageRef copy = NewPageImage();
      *copy = *b.image;
      b.image = std::move(copy);
      ++page_copies_;
    }
  }
  assert(b.image.use_count() == 1);
  Word* words = b.image->data();
  views_[frame] = View{words, words};
  return words;
}

PageRef PrimaryMemory::Snapshot(FrameIndex frame, PageHome home) {
  assert(frame.value < frame_count_);
  Binding& b = bindings_[frame.value];
  b.home = home;
  View& view = views_[frame.value];
  if (view.read == HomeWords(frame.value)) {
    ++page_copies_;
    PageRef copy = NewPageImage();
    std::copy_n(view.read, kPageWords, copy->begin());
    return copy;
  }
  view.write = nullptr;  // the next write detaches `home` or copies
  return b.image;
}

std::span<const Word> PrimaryMemory::FrameView(FrameIndex frame) const {
  assert(frame.value < frame_count_);
  return std::span<const Word>(views_[frame.value].read, kPageWords);
}

bool PrimaryMemory::FrameIsZero(FrameIndex frame) {
  assert(frame.value < frame_count_);
  cost_->Charge(CodeStyle::kOptimized, Costs::kPageScanPerWord * kPageWords);
  metrics_->Inc(id_zero_scans_);
  const std::span<const Word> words = FrameView(frame);
  if (words.data() == kZeroImage.data()) {
    return true;  // a zero frame: the scan's answer without the scan
  }
  return std::all_of(words.begin(), words.end(), [](Word w) { return w == 0; });
}

Processor::Processor(HwFeatures features, CostModel* cost, Metrics* metrics, uint16_t index)
    : features_(features),
      cost_(cost),
      metrics_(metrics),
      index_(index),
      bit_(uint64_t{1} << index),
      assoc_(features.associative_memory ? features.associative_entries : 0),
      id_translations_(metrics->Intern("hw.translations")),
      id_assoc_hits_(metrics->Intern("hw.assoc_hits")),
      id_assoc_misses_(metrics->Intern("hw.assoc_misses")),
      id_assoc_flushes_(metrics->Intern("hw.assoc_flushes")),
      id_locked_descriptor_faults_(metrics->Intern("hw.locked_descriptor_faults")),
      id_missing_page_faults_(metrics->Intern("hw.missing_page_faults")) {}

const Sdw* Processor::Descriptor(Segno segno) const {
  // With the second descriptor-base register, low segment numbers translate
  // through the per-processor system space.
  DescriptorSegment* ds = user_ds_;
  uint16_t index = segno.value;
  if (features_.second_dsbr && segno.value < kSystemSegnoLimit) {
    ds = system_ds_;
  } else if (features_.second_dsbr) {
    index = static_cast<uint16_t>(segno.value - kSystemSegnoLimit);
  }
  return ds == nullptr ? nullptr : ds->Get(index);
}

void Processor::ClearAssociative(Segno segno) {
  if (assoc_.InvalidateTag(segno.value) > 0) {
    metrics_->Inc(id_assoc_flushes_);
  }
}

void Processor::InvalidateAssociative(const Ptw* ptw) {
  if (assoc_.InvalidatePtw(ptw) > 0) {
    metrics_->Inc(id_assoc_flushes_);
  }
}

void Processor::InvalidateAssociative(const PageTable* pt) {
  if (assoc_.InvalidatePageTable(pt) > 0) {
    metrics_->Inc(id_assoc_flushes_);
  }
}

void Processor::FlushAssociative() {
  if (assoc_.enabled()) {
    assoc_.Flush();
    metrics_->Inc(id_assoc_flushes_);
  }
}

AccessResult Processor::Access(Segno segno, uint32_t offset, AccessMode mode, uint8_t ring) {
  metrics_->Inc(id_translations_);
  const uint32_t ref_page = offset / kPageWords;
  const uint32_t word = offset % kPageWords;

  // Fast path: the associative memory.  A hit is served only when the cached
  // SDW bits admit the access and the (live) PTW is plainly resident — any
  // other state falls through to the full walk, so every fault is generated
  // by exactly the same code whether or not the cache is present.  With the
  // feature on, a miss pays the two descriptor fetches from core explicitly;
  // zero entries therefore models the pre-associative hardware where every
  // reference makes both fetches.
  if (features_.associative_memory) {
    const uint64_t key = AssociativeMemory::MakeKey(segno.value, ref_page);
    if (AssociativeMemory::Entry* entry = assoc_.Lookup(key)) {
      Ptw* ptw = entry->ptw;
      const bool permitted = (mode == AccessMode::kRead && entry->read) ||
                             (mode == AccessMode::kWrite && entry->write) ||
                             (mode == AccessMode::kExecute && entry->execute);
      if (permitted && ring <= entry->ring_bracket && !ptw->locked && !ptw->unallocated &&
          ptw->in_core) {
        cost_->Charge(CodeStyle::kOptimized, Costs::kAssocSearch);
        metrics_->Inc(id_assoc_hits_);
        ptw->used = true;
        if (mode == AccessMode::kWrite) {
          ptw->modified = true;
        }
        AccessResult result;
        result.ok = true;
        result.abs_addr = static_cast<uint64_t>(ptw->frame) * kPageWords + word;
        result.fault.segno = segno;
        result.fault.page = ref_page;
        result.fault.word = word;
        return result;
      }
      // The cached pairing no longer resolves cleanly; drop it and re-walk.
      assoc_.InvalidateEntry(entry);
    }
    metrics_->Inc(id_assoc_misses_);
    cost_->Charge(CodeStyle::kOptimized, 2 * Costs::kDescriptorFetch);
  }
  cost_->Charge(CodeStyle::kOptimized, Costs::kAddressTranslation);

  AccessResult result;
  result.fault.segno = segno;
  result.fault.page = ref_page;
  result.fault.word = word;

  const Sdw* sdw = Descriptor(segno);
  if (sdw == nullptr || !sdw->present) {
    result.fault.kind = FaultKind::kMissingSegment;
    return result;
  }
  if (ring > sdw->ring_bracket) {
    result.fault.kind = FaultKind::kRingViolation;
    return result;
  }
  const bool permitted = (mode == AccessMode::kRead && sdw->read) ||
                         (mode == AccessMode::kWrite && sdw->write) ||
                         (mode == AccessMode::kExecute && sdw->execute);
  if (!permitted) {
    result.fault.kind = FaultKind::kAccessViolation;
    return result;
  }
  if (ref_page >= sdw->bound_pages || sdw->page_table == nullptr ||
      ref_page >= sdw->page_table->ptws.size()) {
    result.fault.kind = FaultKind::kOutOfBounds;
    return result;
  }

  Ptw* ptw = &sdw->page_table->ptws[ref_page];

  if (ptw->locked) {
    // Only generated by the new hardware; without the lock bit PTWs are
    // never locked.
    result.fault.kind = FaultKind::kLockedDescriptor;
    metrics_->Inc(id_locked_descriptor_faults_);
    return result;
  }
  if (ptw->unallocated) {
    if (features_.quota_exception_bit) {
      result.fault.kind = FaultKind::kQuotaException;
    } else {
      // Baseline hardware cannot distinguish growth from an ordinary missing
      // page; software must re-diagnose it.
      result.fault.kind = FaultKind::kMissingPage;
      metrics_->Inc(id_missing_page_faults_);
    }
    return result;
  }
  if (!ptw->in_core) {
    if (features_.descriptor_lock_bit) {
      ptw->locked = true;
    }
    result.fault.kind = FaultKind::kMissingPage;
    metrics_->Inc(id_missing_page_faults_);
    return result;
  }

  ptw->used = true;
  if (mode == AccessMode::kWrite) {
    ptw->modified = true;
  }
  result.ok = true;
  result.abs_addr = static_cast<uint64_t>(ptw->frame) * kPageWords + word;
  result.fault.kind = FaultKind::kNone;
  if (features_.associative_memory) {
    assoc_.Insert(AssociativeMemory::MakeKey(segno.value, ref_page), ptw, sdw->read, sdw->write,
                  sdw->execute, sdw->ring_bracket);
  }
  return result;
}

namespace {

// The CPUs that can hold a translation into `pt`: those with a space
// connecting it loaded.
uint64_t Targets(const PageTable& pt) {
  uint64_t targets = 0;
  for (const DescriptorSegment* ds : pt.connected) {
    targets |= ds->loaded_on;
  }
  return targets;
}

uint64_t RemoteSignals(uint64_t targets, uint16_t sender) {
  return static_cast<uint64_t>(std::popcount(targets & ~(uint64_t{1} << sender)));
}

// The completeness check behind targeting: an associative memory outside
// the targets still holds a translation, so a connection or a DSBR load
// escaped the bookkeeping.  Serving it later would hand out a freed frame.
[[noreturn]] void ShootdownMissed(const char* form, uint64_t targets, uint16_t sender) {
  std::fprintf(stderr,
               "ProcessorPool::InvalidateAssociative(%s) from cpu %u: targets %#llx, but an "
               "untargeted associative memory still caches the table (PageTable::connected "
               "or DescriptorSegment::loaded_on is out of step)\n",
               form, static_cast<unsigned>(sender), static_cast<unsigned long long>(targets));
  std::abort();
}

}  // namespace

ProcessorPool::ProcessorPool(uint16_t cpu_count, HwFeatures features, CostModel* cost,
                             Metrics* metrics, Tracer* trace)
    : cost_(cost),
      metrics_(metrics),
      trace_(trace),
      id_connect_signals_(metrics->Intern("hw.connect_signals")),
      id_connect_cycles_(metrics->Intern("hw.connect_cycles")) {
  if (cpu_count == 0) {
    cpu_count = 1;
  }
  if (cpu_count > kMaxCpus) {
    std::fprintf(stderr, "ProcessorPool: %u CPUs, but loaded-on masks name at most %u\n",
                 static_cast<unsigned>(cpu_count), static_cast<unsigned>(kMaxCpus));
    std::abort();
  }
  cpus_.reserve(cpu_count);
  for (uint16_t k = 0; k < cpu_count; ++k) {
    cpus_.emplace_back(features, cost, metrics, k);
  }
  if (trace_ != nullptr) {
    ev_connect_ = trace_->InternEvent("hw.connect");
  }
}

void ProcessorPool::ChargeConnect(uint64_t remote) {
  if (connect_cost_ == 0 || remote == 0) {
    return;
  }
  const Cycles total = connect_cost_ * remote;
  cost_->Charge(CodeStyle::kOptimized, total);
  metrics_->Inc(id_connect_signals_, remote);
  metrics_->Inc(id_connect_cycles_, total);
}

void ProcessorPool::ClearAssociative(Segno segno) {
  for (Processor& p : cpus_) {
    p.ClearAssociative(segno);
  }
  ChargeConnect(cpus_.size() - 1);
  if (trace_ != nullptr) {
    trace_->Instant(ev_connect_, segno.value,
                    static_cast<uint32_t>(ConnectKind::kClearSegno));
  }
}

void ProcessorPool::InvalidateAssociative(const Ptw* ptw, const PageTable& pt, uint16_t sender) {
  const uint64_t targets = Targets(pt);
  // The host-side scan stops once the presence count says no copies remain.
  for (uint64_t left = targets; left != 0 && ptw->assoc_refs != 0; left &= left - 1) {
    cpus_[std::countr_zero(left)].InvalidateAssociative(ptw);
  }
  if (ptw->assoc_refs != 0) {
    ShootdownMissed("ptw", targets, sender);
  }
  ChargeConnect(RemoteSignals(targets, sender));
  if (trace_ != nullptr) {
    trace_->Instant(ev_connect_, 0, static_cast<uint32_t>(ConnectKind::kInvalidatePtw));
  }
}

void ProcessorPool::InvalidateAssociative(const PageTable& pt, uint16_t sender) {
  const uint64_t targets = Targets(pt);
  for (uint64_t left = targets; left != 0; left &= left - 1) {
    cpus_[std::countr_zero(left)].InvalidateAssociative(&pt);
  }
  for (const Ptw& ptw : pt.ptws) {
    if (ptw.assoc_refs != 0) {
      ShootdownMissed("page table", targets, sender);
    }
  }
  ChargeConnect(RemoteSignals(targets, sender));
  if (trace_ != nullptr) {
    trace_->Instant(ev_connect_, 0,
                    static_cast<uint32_t>(ConnectKind::kInvalidatePageTable));
  }
}

void ProcessorPool::FlushAssociative() {
  for (Processor& p : cpus_) {
    p.FlushAssociative();
  }
  ChargeConnect(cpus_.size() - 1);
  if (trace_ != nullptr) {
    trace_->Instant(ev_connect_, 0, static_cast<uint32_t>(ConnectKind::kFlush));
  }
}

void ProcessorPool::SetSystemDs(DescriptorSegment* ds) {
  for (Processor& p : cpus_) {
    p.set_system_ds(ds);
  }
}

void ProcessorPool::DropUserDs(const DescriptorSegment* ds) {
  for (Processor& p : cpus_) {
    if (p.user_ds() == ds) {
      p.set_user_ds(nullptr);
    }
  }
}

void ProcessorPool::AuditAssociative(std::vector<std::string>* findings) const {
  for (const Processor& p : cpus_) {
    for (const AssociativeMemory::Entry& e : p.associative().slots()) {
      if (!e.valid) {
        continue;
      }
      const Segno segno(static_cast<uint16_t>(e.key >> 32));
      const uint32_t page = static_cast<uint32_t>(e.key);
      const Sdw* sdw = p.Descriptor(segno);
      const PageTable* pt = sdw != nullptr && sdw->present ? sdw->page_table : nullptr;
      if (pt == nullptr || page >= pt->ptws.size() || &pt->ptws[page] != e.ptw) {
        findings->push_back("cpu " + std::to_string(p.index()) + ": associative entry for segno " +
                            std::to_string(segno.value) + " page " + std::to_string(page) +
                            " caches a PTW its loaded spaces do not reach");
      }
    }
  }
}

}  // namespace mks
