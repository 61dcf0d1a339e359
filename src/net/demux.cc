#include "src/net/demux.h"

namespace mks {

namespace {
constexpr Cycles kRouteCost = 3;  // the kernel's entire per-frame work
constexpr Cycles kParseCost = 12;
constexpr Cycles kDeliverCost = 6;
constexpr Cycles kAckCost = 8;
}  // namespace

uint64_t GenericDemux::Pump() {
  uint64_t routed = 0;
  for (MultiplexedChannel* channel : channels_) {
    while (auto frame = channel->Poll()) {
      // Structured (auditable) code, but tiny: route by (channel, sub).
      cost_->Charge(CodeStyle::kStructured, kRouteCost);
      auto& queue = queues_[{channel->id().value, frame->subchannel.value}];
      if (queue.size() >= queue_capacity_) {
        ++dropped_;
        metrics_->Inc(id_demux_drops_);
        continue;
      }
      queue.push_back(std::move(*frame));
      metrics_->Inc(id_demux_frames_);
      ++routed;
    }
  }
  return routed;
}

std::optional<Frame> GenericDemux::ReadSubchannel(ChannelId channel, SubchannelId sub) {
  // A gate crossing: the user-domain protocol module calling into the
  // kernel's one remaining network entry point.
  cost_->Charge(CodeStyle::kOptimized, Costs::kGateCall);
  auto it = queues_.find({channel.value, sub.value});
  if (it == queues_.end() || it->second.empty()) {
    return std::nullopt;
  }
  Frame f = std::move(it->second.front());
  it->second.pop_front();
  return f;
}

uint64_t NcpProtocolUser::PumpSubchannel(SubchannelId sub) {
  uint64_t processed = 0;
  while (auto frame = demux_->ReadSubchannel(channel_, sub)) {
    // The identical protocol logic as the in-kernel handler, now charged as
    // user-domain structured code.
    cost_->Charge(CodeStyle::kStructured, kParseCost);
    NcpConnection& conn = connections_[sub];
    switch (frame->type) {
      case frame_type::kOpen:
        conn.open = true;
        conn.next_seq = 0;
        break;
      case frame_type::kClose:
        conn.open = false;
        break;
      case frame_type::kData: {
        if (!conn.open) {
          conn.open = true;
        }
        if (frame->seq != conn.next_seq) {
          metrics_->Inc(id_out_of_order_);
          break;
        }
        ++conn.next_seq;
        cost_->Charge(CodeStyle::kStructured, kDeliverCost);
        conn.delivered.push_back(*frame);
        Frame ack;
        ack.subchannel = sub;
        ack.type = frame_type::kAck;
        ack.seq = frame->seq;
        cost_->Charge(CodeStyle::kStructured, kAckCost);
        acks_.push_back(std::move(ack));
        break;
      }
      default:
        break;
    }
    ++processed;
  }
  return processed;
}

std::optional<Frame> NcpProtocolUser::Receive(SubchannelId sub) {
  auto it = connections_.find(sub);
  if (it == connections_.end() || it->second.delivered.empty()) {
    return std::nullopt;
  }
  Frame f = std::move(it->second.delivered.front());
  it->second.delivered.pop_front();
  return f;
}

uint64_t TerminalProtocolUser::PumpLine(SubchannelId line_id) {
  uint64_t processed = 0;
  while (auto frame = demux_->ReadSubchannel(channel_, line_id)) {
    cost_->Charge(CodeStyle::kStructured, kParseCost);
    TerminalLine& line = lines_[line_id];
    for (Word w : frame->payload) {
      const char c = static_cast<char>(w & 0x7f);
      cost_->Charge(CodeStyle::kStructured, 1);
      if (c == '\n') {
        line.lines.push_back(line.partial_line);
        line.partial_line.clear();
      } else {
        line.partial_line.push_back(c);
      }
    }
    ++processed;
  }
  return processed;
}

std::optional<std::string> TerminalProtocolUser::ReadLine(SubchannelId line_id) {
  auto it = lines_.find(line_id);
  if (it == lines_.end() || it->second.lines.empty()) {
    return std::nullopt;
  }
  std::string line = std::move(it->second.lines.front());
  it->second.lines.pop_front();
  return line;
}

}  // namespace mks
