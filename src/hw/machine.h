// Simulated Multics-class hardware: primary memory, segment/page descriptor
// words, descriptor segments, and processors.
//
// The machine is word-addressed with 1024-word pages.  A processor translates
// (segment number, offset) through a descriptor segment (array of SDWs) to a
// page table (array of PTWs) to an absolute address, reporting typed faults
// instead of trapping.  Two descriptor-base registers are modelled, per the
// kernel design: segment numbers below kSystemSegnoLimit translate through a
// per-processor *system* descriptor segment whose descriptors refer only to
// permanently-resident storage, so system modules cannot depend on the user
// virtual-memory machinery.
//
// HwFeatures gates the paper's proposed processor additions (descriptor lock
// bit, quota-exception bit, second descriptor-base register) so the same
// substrate serves the baseline supervisor (features off) and the new kernel
// (features on), making the paper's "minor hardware adjustments make a
// significant difference" conclusion an ablation knob.  The paper's other two
// additions carry no state here: the wakeup-waiting switch is subsumed by
// eventcount waits, which register a waiter in one step, and the lock-address
// register by the fault itself, which names its descriptor by (segno, page).
#ifndef MKS_HW_MACHINE_H_
#define MKS_HW_MACHINE_H_

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/sim/clock.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"

namespace mks {

using Word = uint64_t;

inline constexpr uint32_t kPageWords = 1024;
// Maximum segment length: 256 pages (the historical 6180 limit of 256K words,
// scaled down to 1024-word pages to keep simulations small).
inline constexpr uint32_t kMaxSegmentPages = 256;
// Segment numbers below this bound translate through the per-processor system
// descriptor segment (the second descriptor-base register of the new design).
inline constexpr uint16_t kSystemSegnoLimit = 64;

enum class AccessMode : uint8_t { kRead, kWrite, kExecute };

// Page table word.  `unallocated` marks a never-before-used page of a
// segment; with HwFeatures::quota_exception_bit the hardware converts a
// reference to such a page into a distinct quota exception, otherwise it
// surfaces as an ordinary missing page that software must re-diagnose.
struct Ptw {
  uint32_t frame = 0;
  bool in_core = false;
  bool unallocated = true;
  bool locked = false;    // descriptor lock bit (new hardware)
  bool used = false;
  bool modified = false;
  // Number of associative-memory entries (across every CPU) currently caching
  // this PTW.  Maintained by AssociativeMemory; lets an invalidation skip
  // caches once every cached pairing is gone, and proves afterwards that a
  // targeted invalidation missed no cache.  Pure host-side bookkeeping —
  // never charged, never traced.
  uint16_t assoc_refs = 0;
};

struct DescriptorSegment;

// A segment's page table.  In the real system page tables live in the active
// segment table region of permanently-resident core; here the container is a
// C++ vector and residency is accounted by the core-segment manager.
//
// The readahead fields are page control's per-segment sequentiality hints,
// kept beside the PTWs exactly because the page table is the one structure
// already in hand at fault time: `last_fault_page` records the most recent
// demand fault and `prefetch_until` the end of the last anticipatory window,
// so a fault at either frontier is recognized as a continuing forward scan.
//
// `connected` lists the address spaces whose SDWs name this table, one entry
// per SDW, kept by whoever connects and disconnects them.  Only a processor
// that has one of those spaces loaded can cache a translation into the table,
// so the pool's targeted invalidations signal exactly those processors.
struct PageTable {
  std::vector<Ptw> ptws;
  uint32_t last_fault_page = UINT32_MAX;  // UINT32_MAX: no fault seen yet
  uint32_t prefetch_until = 0;            // exclusive end of the last window
  std::vector<const DescriptorSegment*> connected;
};

// Segment descriptor word.
struct Sdw {
  bool present = false;
  PageTable* page_table = nullptr;
  uint32_t bound_pages = 0;  // addressable length in pages
  bool read = false;
  bool write = false;
  bool execute = false;
  uint8_t ring_bracket = 7;  // highest ring permitted to use this descriptor
};

// An address space: an array of SDWs indexed by segment number (relative to
// the space's base segno).
struct DescriptorSegment {
  std::vector<Sdw> sdws;
  // Bit k set: processor k's user DSBR holds this segment.  Kept by
  // Processor::set_user_ds; a pool has at most 64 processors.
  uint64_t loaded_on = 0;

  Sdw* Get(uint16_t index) {
    return index < sdws.size() ? &sdws[index] : nullptr;
  }
};

struct HwFeatures {
  bool descriptor_lock_bit = false;
  bool quota_exception_bit = false;
  bool second_dsbr = false;
  // Associative memory: a small set-associative cache of recently resolved
  // (segno, page) translations, like the 6180's SDW/PTW associative memory.
  // Modelled as an HwFeatures knob (like the descriptor lock bit) so benches
  // can ablate it.  When the flag is off, translation keeps the legacy
  // abstract charge (kAddressTranslation); when on, a miss additionally pays
  // the two descriptor fetches the cache exists to avoid, and a hit pays
  // only the associative search.
  bool associative_memory = false;
  uint16_t associative_entries = 16;  // total entries; 0 disables the cache

  static HwFeatures Baseline() { return HwFeatures{}; }
  static HwFeatures KernelDesign() {
    return HwFeatures{.descriptor_lock_bit = true,
                      .quota_exception_bit = true,
                      .second_dsbr = true,
                      .associative_memory = true};
  }
};

enum class FaultKind : uint8_t {
  kNone = 0,
  kMissingSegment,
  kMissingPage,
  kLockedDescriptor,  // only with descriptor_lock_bit
  kQuotaException,    // only with quota_exception_bit
  kOutOfBounds,
  kAccessViolation,
  kRingViolation,
};

std::string_view FaultKindName(FaultKind kind);

struct Fault {
  FaultKind kind = FaultKind::kNone;
  Segno segno{};
  uint32_t page = 0;
  uint32_t word = 0;  // the referenced word within `page`, as the 6180's fault data names it
};

struct AccessResult {
  bool ok = false;
  uint64_t abs_addr = 0;
  Fault fault;
};

// The descriptor associative memory: a small set-associative cache of
// resolved translations, keyed by an opaque 64-bit tag the owner composes
// (the Processor uses (segno, page)).  An entry caches the PTW address plus
// the access bits of the SDW it was resolved through.  The cache is a pure
// accelerator: it only ever serves translations that the full descriptor
// walk would resolve identically, and the owner must invalidate on every
// descriptor mutation (page eviction, deactivation, SDW disconnect/re-bound,
// DSBR reload) so a stale pairing is never consulted.
class AssociativeMemory {
 public:
  static constexpr uint16_t kWays = 4;

  struct Entry {
    bool valid = false;
    uint64_t key = 0;
    Ptw* ptw = nullptr;
    bool read = false;
    bool write = false;
    bool execute = false;
    uint8_t ring_bracket = 0;
    uint64_t stamp = 0;  // LRU within the set
  };

  // `entries` is the total capacity; rounded down to a whole number of
  // kWays-wide sets (a power of two).  0 leaves the cache disabled.
  explicit AssociativeMemory(uint16_t entries);

  bool enabled() const { return set_count_ != 0; }
  uint16_t capacity() const { return static_cast<uint16_t>(slots_.size()); }
  // Every slot, valid or not (audits).
  std::span<const Entry> slots() const { return slots_; }

  // Returns the valid entry for `key`, or nullptr.  Refreshes LRU.
  Entry* Lookup(uint64_t key);
  // Installs (or refreshes) the translation for `key`, evicting the set's
  // LRU entry if needed.
  void Insert(uint64_t key, Ptw* ptw, bool read, bool write, bool execute,
              uint8_t ring_bracket);

  // Invalidation protocol.  All are O(capacity); invalidation events are
  // orders of magnitude rarer than lookups.  Every path that drops a valid
  // entry gives back its PTW presence count, so `Ptw::assoc_refs == 0` is an
  // exact "no cache anywhere holds this PTW" test.
  void InvalidateEntry(Entry* entry) {
    if (entry->valid) {
      entry->valid = false;
      ReleasePtw(entry->ptw);
    }
  }
  // Drops every entry whose key's high 32 bits equal `tag` (the Processor's
  // segno).  Returns entries dropped.
  uint32_t InvalidateTag(uint32_t tag);
  // Drops every entry caching `ptw` (page eviction).
  uint32_t InvalidatePtw(const Ptw* ptw);
  // Drops every entry whose PTW lies inside `pt`'s table (deactivation: the
  // slot's PTW storage is about to be reused by another segment).
  uint32_t InvalidatePageTable(const PageTable* pt);
  void Flush();

  static uint64_t MakeKey(uint32_t tag, uint32_t page) {
    return (static_cast<uint64_t>(tag) << 32) | page;
  }

 private:
  size_t SetBase(uint64_t key) const;

  static void ReleasePtw(Ptw* ptw) {
    assert(ptw != nullptr && ptw->assoc_refs > 0);
    --ptw->assoc_refs;
  }

  std::vector<Entry> slots_;  // set_count_ sets of kWays consecutive entries
  size_t set_count_ = 0;
  uint64_t stamp_ = 0;
};

// One page's words in host memory.  A disk record, a queued write and a page
// frame hold the same image by reference, so moving a page between core and
// disk moves a pointer, not 8 KB: a read-in binds the frame to the record's
// image, a writeback hands the frame's image to the record, and the only copy
// left is copy-on-write (PrimaryMemory::page_copies).  This is host-side data
// movement only: every simulated transfer is charged where it always was.
using PageImage = std::array<Word, kPageWords>;
using PageRef = std::shared_ptr<PageImage>;

// A new zeroed page image.  Every image comes from one process-wide arena:
// 2 MB chunks advised onto transparent huge pages, each cut into slots that
// hold one image and its reference count, so images share TLB entries
// instead of costing one each (DESIGN.md, "Page data moves by reference").
// Released slots are reused; chunks stay mapped until the process exits.
PageRef NewPageImage();

// Host-side counts of that arena, outside Metrics like page_copies(): the
// images alive now, and the chunks mapped so far.
struct PageArenaCounts {
  uint64_t live = 0;
  uint64_t chunks = 0;
};
PageArenaCounts PageArenaNow();

// The store a frame's image came from, or was last written back to (the disk
// volume layer implements it; `cookie` names the record).  On a bound frame's
// first write, when the only other holder of its image may be that record,
// memory asks the record to give the image up.  Detach returns true when the
// record held exactly `image` and has dropped its reference, after which the
// record counts as lent until the page is written back; false when it holds
// anything else, and the frame copies instead.
class PageSource {
 public:
  virtual ~PageSource() = default;
  virtual bool Detach(uint64_t cookie, const PageImage* image) = 0;
};

// Where a frame's page lives on disk, as its PageSource names it.
struct PageHome {
  PageSource* src = nullptr;
  uint64_t cookie = 0;
};

// Primary (core) memory: an array of page frames.
//
// A frame views one of three things:
//  * its home storage, a slot of one contiguous anonymous mapping.  Every
//    frame starts there, and core segments stay there for good (HomeSpan),
//    which lets a core segment be one span over its frames.
//  * a page image it shares (Bind, the read-in of a page).  The frame writes
//    in place only while it is the image's sole holder; its first write
//    otherwise detaches its record (see PageSource) or copies the image.
//  * zeros (ZeroFrame), until its first write gives it a zeroed image of its
//    own.
class PrimaryMemory {
 public:
  PrimaryMemory(uint32_t frame_count, CostModel* cost, Metrics* metrics);

  uint32_t frame_count() const { return frame_count_; }
  uint64_t size_words() const { return static_cast<uint64_t>(frame_count_) * kPageWords; }

  Word ReadWord(uint64_t abs_addr) {
    assert(abs_addr < size_words());
    cost_->Charge(CodeStyle::kOptimized, Costs::kMemoryReference);
    return views_[abs_addr / kPageWords].read[abs_addr % kPageWords];
  }

  void WriteWord(uint64_t abs_addr, Word value) {
    assert(abs_addr < size_words());
    cost_->Charge(CodeStyle::kOptimized, Costs::kMemoryReference);
    const uint32_t frame = static_cast<uint32_t>(abs_addr / kPageWords);
    Word* words = views_[frame].write;
    if (words == nullptr) {
      words = PrepareWrite(frame);
    }
    words[abs_addr % kPageWords] = value;
  }

  // Points `frame` at `image` without a copy: the read-in of a page whose
  // record, named by `home`, holds the image too.  An empty image reads as
  // zeros.  Drops whatever the frame viewed before.
  void Bind(FrameIndex frame, PageRef image, PageHome home);
  // Points `frame` at zeros until its first write, dropping any image it held
  // (which is also how a released frame gives its reference up).
  void ZeroFrame(FrameIndex frame);
  // The home storage of `count` frames from `first`, as one span.  The
  // frames must never have been bound or zeroed: they still view that
  // storage, so the span and word accesses see the same words, and it reads
  // as zeros until written.
  std::span<Word> HomeSpan(FrameIndex first, uint32_t count);

  // The frame's image for a writeback to `home`, by reference.  The frame
  // keeps viewing it, and its next write detaches `home` or copies.  A zero
  // frame gives an empty image (the record then reads zeros); home storage
  // cannot be lent, so it is copied.
  PageRef Snapshot(FrameIndex frame, PageHome home);

  // The frame's words, read-only: looking changes nothing about the sharing.
  std::span<const Word> FrameView(FrameIndex frame) const;
  // Scans the frame for the zero-page optimization; charges one cycle per
  // word scanned, which is the cost the paper notes the removal algorithm
  // must pay ("searching the contents of pages about to be removed").
  bool FrameIsZero(FrameIndex frame);

  // Page copies made so far: copy-on-write of a shared image, and snapshots
  // of home storage.  A plain host-side count, outside Metrics, so no
  // metrics dump or digest sees it.
  uint64_t page_copies() const { return page_copies_; }

 private:
  // Per frame: the words reads see, and the words writes may change in place
  // (nullptr while the frame is not its image's sole holder, or views zeros).
  struct View {
    const Word* read = nullptr;
    Word* write = nullptr;
  };
  // Per frame: the image it shares (empty for home storage and zeros), and
  // the record its first write may detach.
  struct Binding {
    PageRef image;
    PageHome home;
  };

  Word* HomeWords(uint32_t frame) const {
    return words_.get() + static_cast<size_t>(frame) * kPageWords;
  }
  // The write slow path: gives a zero frame an image of its own, or makes the
  // frame its image's sole holder by detaching its record or copying.
  Word* PrepareWrite(uint32_t frame);

  // Releases the frame storage's anonymous mapping.
  struct Unmap {
    size_t bytes = 0;
    void operator()(Word* words) const;
  };

  uint32_t frame_count_;
  // Home storage lives in an anonymous mapping, which reads as zeros: frames
  // that never use it take no host memory, and the storage returns to the
  // host when the machine is destroyed.
  std::unique_ptr<Word[], Unmap> words_;
  std::vector<View> views_;
  std::vector<Binding> bindings_;
  uint64_t page_copies_ = 0;
  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_zero_scans_;
};

// A simulated processor.
class Processor {
 public:
  // `index` is the processor's place in its pool (bit `index` of
  // DescriptorSegment::loaded_on).
  Processor(HwFeatures features, CostModel* cost, Metrics* metrics, uint16_t index = 0);

  // Loading a descriptor-base register clears the associative memory, as on
  // the real hardware: cached translations belong to the outgoing space.  So
  // the processor can only ever hold translations made through the user
  // space it has loaded (or the system space), which the segments' loaded-on
  // masks record.
  void set_user_ds(DescriptorSegment* ds) {
    if (ds != user_ds_) {
      FlushAssociative();
      if (user_ds_ != nullptr) {
        user_ds_->loaded_on &= ~bit_;
      }
      if (ds != nullptr) {
        ds->loaded_on |= bit_;
      }
    }
    user_ds_ = ds;
  }
  void set_system_ds(DescriptorSegment* ds) { system_ds_ = ds; }
  DescriptorSegment* user_ds() const { return user_ds_; }
  const HwFeatures& features() const { return features_; }
  uint16_t index() const { return index_; }

  // The SDW `segno` translates through: the system space below
  // kSystemSegnoLimit when the second DSBR is present, else the user space.
  // nullptr when the space is unloaded or too short.
  const Sdw* Descriptor(Segno segno) const;

  // Translates and access-checks one reference.  On success returns the
  // absolute address and marks the PTW used/modified.  On failure returns a
  // typed fault; with the descriptor lock bit enabled, a missing page also
  // locks the offending descriptor.
  AccessResult Access(Segno segno, uint32_t offset, AccessMode mode, uint8_t ring);

  // Associative-memory invalidation protocol, called by the kernel at every
  // descriptor-mutation site.  Each counts toward hw.assoc_flushes.
  // Drops cached translations for one segment number (SDW disconnect or
  // re-bound).
  void ClearAssociative(Segno segno);
  // Drops cached translations through one PTW (page eviction).
  void InvalidateAssociative(const Ptw* ptw);
  // Drops cached translations into one page table (segment deactivation:
  // the table's storage is about to describe a different segment).
  void InvalidateAssociative(const PageTable* pt);
  // Drops everything (address-space teardown, DSBR reload).
  void FlushAssociative();

  const AssociativeMemory& associative() const { return assoc_; }

 private:
  HwFeatures features_;
  CostModel* cost_;
  Metrics* metrics_;
  uint16_t index_;
  uint64_t bit_;  // 1 << index_
  DescriptorSegment* user_ds_ = nullptr;
  DescriptorSegment* system_ds_ = nullptr;
  AssociativeMemory assoc_;
  MetricId id_translations_;
  MetricId id_assoc_hits_;
  MetricId id_assoc_misses_;
  MetricId id_assoc_flushes_;
  MetricId id_locked_descriptor_faults_;
  MetricId id_missing_page_faults_;
};

// The machine's processor pool.  The 6180 was a multiprocessor; modelling the
// pool at the hardware layer makes the per-processor state of the new design
// (associative memory, the two descriptor-base registers) *actually*
// per-processor.  Host
// execution stays single-threaded — the simulation loop interleaves the CPUs
// deterministically — so the pool is a vector, not threads.
//
// All CPUs share one Metrics instance and intern the same hw.* counter names
// (Intern is idempotent), so aggregate hardware counters are independent of
// pool size.
//
// The pool's invalidations exist because a descriptor mutation made while
// running on one CPU (page eviction, deactivation, SDW disconnect) can leave
// stale translations cached in other CPUs' associative memories; on the real
// hardware the sender reached them with the connect ("clear associative
// memory") signal.  The sender knows which CPUs those can be: a CPU caches
// only translations made through its loaded user space or the resident system
// space, so a page table's translations can only sit on the CPUs that have a
// space connecting it loaded (PageTable::connected, DescriptorSegment::
// loaded_on).  The page-table-scoped forms signal just those CPUs; the segno
// clear and the flush still reach every CPU.
class ProcessorPool {
 public:
  // Largest pool: the loaded-on masks are 64-bit.
  static constexpr uint16_t kMaxCpus = 64;

  // `trace`, when given, records each invalidation as an `hw.connect`
  // instant (arg = ConnectKind) — invalidation storms show up in the trace
  // lanes.  Aborts when `cpu_count` exceeds kMaxCpus.
  ProcessorPool(uint16_t cpu_count, HwFeatures features, CostModel* cost, Metrics* metrics,
                Tracer* trace = nullptr);

  uint16_t count() const { return static_cast<uint16_t>(cpus_.size()); }
  Processor& cpu(uint16_t k) { return cpus_[k]; }
  const Processor& cpu(uint16_t k) const { return cpus_[k]; }

  // Virtual cycles one connect signal costs the sending CPU per *remote*
  // processor it signals.  0 — the default — keeps invalidations free, the
  // pre-interconnect-model behaviour; nonzero makes invalidation storms real
  // work on whichever CPU mutates descriptors.
  void set_connect_cost(Cycles cost) { connect_cost_ = cost; }
  Cycles connect_cost() const { return connect_cost_; }

  // Broadcast forms of the Processor invalidation protocol: every CPU drops
  // the affected translations and every other CPU is signalled.
  void ClearAssociative(Segno segno);
  void FlushAssociative();

  // Targeted forms for page-table-scoped mutations made on CPU `sender`:
  // only the CPUs that have a space in `pt.connected` loaded drop the
  // affected translations, and only the remote ones among them are
  // signalled.  Afterwards no associative memory anywhere may still hold an
  // affected PTW; if one does, the targeting bookkeeping is broken and the
  // pool aborts with a message.
  // One PTW of `pt` (page eviction).
  void InvalidateAssociative(const Ptw* ptw, const PageTable& pt, uint16_t sender);
  // Every PTW of `pt` (segment deactivation: the table's storage is about to
  // describe a different segment).
  void InvalidateAssociative(const PageTable& pt, uint16_t sender);

  // Loads the system descriptor-base register of every CPU (boot).
  void SetSystemDs(DescriptorSegment* ds);
  // A dying address space's descriptor segment must not stay latched in any
  // CPU's user DSBR.
  void DropUserDs(const DescriptorSegment* ds);

  // Integrity audit: every valid associative-memory entry must still be
  // reachable through its CPU's loaded spaces — the SDW at the entry's segno
  // names the page table holding the entry's PTW — which is what makes the
  // targeted forms exact.
  void AuditAssociative(std::vector<std::string>* findings) const;

 private:
  // Charges `remote` connect signals and bumps the hw.connect_* counters;
  // no-op at cost 0 or when nobody is signalled.
  void ChargeConnect(uint64_t remote);

  std::vector<Processor> cpus_;
  CostModel* cost_;
  Metrics* metrics_;
  Tracer* trace_;
  TraceEventId ev_connect_ = 0;
  Cycles connect_cost_ = 0;
  MetricId id_connect_signals_ = 0;
  MetricId id_connect_cycles_ = 0;
};

// `arg` values of the hw.connect trace instant — which invalidation form fired.
enum class ConnectKind : uint32_t {
  kClearSegno = 0,
  kInvalidatePtw = 1,
  kInvalidatePageTable = 2,
  kFlush = 3,
};

}  // namespace mks

#endif  // MKS_HW_MACHINE_H_
