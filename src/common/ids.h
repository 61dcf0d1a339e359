// Strongly-typed identifiers used throughout the simulator.
//
// Each identifier is a distinct type so that a pack identifier can never be
// passed where a segment number is expected.  Identifiers are cheap value
// types with hashing support so they can key hash tables.
#ifndef MKS_COMMON_IDS_H_
#define MKS_COMMON_IDS_H_

#include <cstdint>
#include <functional>
#include <ostream>

namespace mks {

// Generic strongly-typed integer id.  Tag is an empty struct naming the
// id space; Rep is the underlying representation.
template <typename Tag, typename Rep = uint32_t>
struct Id {
  using rep_type = Rep;

  Rep value{0};

  constexpr Id() = default;
  constexpr explicit Id(Rep v) : value(v) {}

  friend constexpr bool operator==(Id a, Id b) { return a.value == b.value; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value != b.value; }
  friend constexpr bool operator<(Id a, Id b) { return a.value < b.value; }

  friend std::ostream& operator<<(std::ostream& os, Id id) { return os << id.value; }
};

// Disk objects.
struct PackIdTag {};
struct VtocIndexTag {};
struct RecordIndexTag {};
using PackId = Id<PackIdTag, uint16_t>;
using VtocIndex = Id<VtocIndexTag, uint32_t>;
using RecordIndex = Id<RecordIndexTag, uint32_t>;

// Memory objects.
struct FrameIndexTag {};
struct CoreSegIdTag {};
using FrameIndex = Id<FrameIndexTag, uint32_t>;
using CoreSegId = Id<CoreSegIdTag, uint16_t>;

// Segment naming.  SegmentUid is the system-wide unique identifier recorded
// in directory entries; Segno is a per-address-space segment number.
struct SegmentUidTag {};
struct SegnoTag {};
using SegmentUid = Id<SegmentUidTag, uint64_t>;
using Segno = Id<SegnoTag, uint16_t>;

// Directory-search results: real unique identifiers or Bratt "mythical"
// identifiers, indistinguishable to the caller.
struct EntryIdTag {};
using EntryId = Id<EntryIdTag, uint64_t>;

// Processes and processors.
struct VpIdTag {};
struct ProcessIdTag {};
using VpId = Id<VpIdTag, uint16_t>;
using ProcessId = Id<ProcessIdTag, uint32_t>;

// Synchronization.
struct EventcountIdTag {};
using EventcountId = Id<EventcountIdTag, uint32_t>;

// Resource control.
struct QuotaCellIdTag {};
using QuotaCellId = Id<QuotaCellIdTag, uint32_t>;
inline constexpr QuotaCellId kNoQuotaCell{UINT32_MAX};  // storage charged to no cell

// Dependency analysis.
struct ModuleIdTag {};
using ModuleId = Id<ModuleIdTag, uint16_t>;

// Networking.
struct ChannelIdTag {};
struct SubchannelIdTag {};
using ChannelId = Id<ChannelIdTag, uint16_t>;
using SubchannelId = Id<SubchannelIdTag, uint16_t>;

}  // namespace mks

namespace std {
template <typename Tag, typename Rep>
struct hash<mks::Id<Tag, Rep>> {
  size_t operator()(mks::Id<Tag, Rep> id) const noexcept { return std::hash<Rep>{}(id.value); }
};
}  // namespace std

#endif  // MKS_COMMON_IDS_H_
