// The redesigned network configuration [Ciccarelli, 1977]: a small,
// network-independent demultiplexer is all that remains in the kernel; the
// protocol interpretation (NCP, terminal canonicalization/echo) moves to
// unprivileged user-domain modules.
//
// The kernel part only routes: frame in, bounded per-subchannel queue out.
// It neither parses payloads nor knows what an "ACK" is, so attaching a new
// network adds a channel registration, not a code body — the kernel "only
// grows slightly as new networks are attached".
#ifndef MKS_NET_DEMUX_H_
#define MKS_NET_DEMUX_H_

#include <map>

#include "src/net/kernel_stack.h"

namespace mks {

// --- the kernel-resident part ---
class GenericDemux {
 public:
  GenericDemux(CostModel* cost, Metrics* metrics, size_t queue_capacity = 64)
      : cost_(cost),
        metrics_(metrics),
        id_demux_drops_(metrics->Intern("net.demux_drops")),
        id_demux_frames_(metrics->Intern("net.demux_frames")),
        queue_capacity_(queue_capacity) {}

  void AttachChannel(MultiplexedChannel* channel) { channels_.push_back(channel); }

  // Routes every pending frame to its subchannel queue.  Returns frames
  // routed; overflowing queues count drops (backpressure is the user
  // module's problem, not the kernel's).
  uint64_t Pump();

  // The single gate user-domain protocol modules call.
  std::optional<Frame> ReadSubchannel(ChannelId channel, SubchannelId sub);

  uint64_t dropped() const { return dropped_; }
  size_t attached_networks() const { return channels_.size(); }

 private:
  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_demux_drops_;
  MetricId id_demux_frames_;
  size_t queue_capacity_;
  std::vector<MultiplexedChannel*> channels_;
  std::map<std::pair<uint16_t, uint16_t>, std::deque<Frame>> queues_;
  uint64_t dropped_ = 0;
};

// --- user-domain protocol modules ---

class NcpProtocolUser {
 public:
  NcpProtocolUser(CostModel* cost, Metrics* metrics, GenericDemux* demux, ChannelId channel)
      : cost_(cost),
        metrics_(metrics),
        id_out_of_order_(metrics->Intern("net.out_of_order")),
        demux_(demux),
        channel_(channel) {}

  // Drains one subchannel through the kernel gate, running the same NCP
  // logic as the baseline handler — but in the user domain.
  uint64_t PumpSubchannel(SubchannelId sub);

  std::optional<Frame> Receive(SubchannelId sub);
  const std::deque<Frame>& acks_sent() const { return acks_; }

 private:
  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_out_of_order_;
  GenericDemux* demux_;
  ChannelId channel_;
  std::map<SubchannelId, NcpConnection> connections_;
  std::deque<Frame> acks_;
};

class TerminalProtocolUser {
 public:
  // Takes the same arguments as NcpProtocolUser; line assembly counts nothing,
  // so the metrics go unused.
  TerminalProtocolUser(CostModel* cost, Metrics* /*metrics*/, GenericDemux* demux,
                       ChannelId channel)
      : cost_(cost), demux_(demux), channel_(channel) {}

  uint64_t PumpLine(SubchannelId line);
  std::optional<std::string> ReadLine(SubchannelId line);

 private:
  CostModel* cost_;
  GenericDemux* demux_;
  ChannelId channel_;
  std::map<SubchannelId, TerminalLine> lines_;
};

}  // namespace mks

#endif  // MKS_NET_DEMUX_H_
