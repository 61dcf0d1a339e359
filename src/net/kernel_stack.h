// The baseline (1973) network configuration: one complete protocol handler
// per attached network, all inside the kernel.
//
// "At the start of the project, approximately 7,000 lines of PL/I were
// dedicated to handling these multiplexed lines, about 20% of ring zero...
// If a third network were to be connected to Multics, the original strategy
// would require that yet a third handler be added."  ArpanetHandler and
// FrontEndHandler are two deliberately separate code bodies that duplicate
// the demultiplexing skeleton; attaching another network means writing
// another one (AttachGenericNetwork clones the pattern to make the linear
// growth measurable).
#ifndef MKS_NET_KERNEL_STACK_H_
#define MKS_NET_KERNEL_STACK_H_

#include <map>
#include <memory>

#include "src/net/channel.h"
#include "src/sim/clock.h"
#include "src/sim/metrics.h"

namespace mks {

// Per-subchannel protocol state shared by the toy NCP.
struct NcpConnection {
  bool open = false;
  uint32_t next_seq = 0;
  std::deque<Frame> delivered;  // to the (in-kernel) consumer interface
};

struct TerminalLine {
  std::string partial_line;
  std::deque<std::string> lines;  // assembled input lines
};

class InKernelNetworkStack {
 public:
  InKernelNetworkStack(CostModel* cost, Metrics* metrics)
      : cost_(cost),
        metrics_(metrics),
        id_out_of_order_(metrics->Intern("net.out_of_order")) {}

  void AttachArpanet(MultiplexedChannel* channel) { arpanet_ = channel; }
  void AttachFrontEnd(MultiplexedChannel* channel) { front_end_ = channel; }
  // The third network: a verbatim copy of the handler pattern.
  void AttachGenericNetwork(MultiplexedChannel* channel) { extra_nets_.push_back(channel); }

  // Drains every attached channel, running the full protocol in the kernel.
  // Returns the number of frames processed.
  uint64_t PumpAll();

  // The in-kernel consumer interfaces.
  std::optional<Frame> ReceiveArpanet(SubchannelId sub);
  std::optional<std::string> ReadTerminalLine(SubchannelId line);

  const std::deque<Frame>& acks_sent() const { return acks_; }
  size_t attached_networks() const {
    return (arpanet_ != nullptr ? 1 : 0) + (front_end_ != nullptr ? 1 : 0) + extra_nets_.size();
  }

 private:
  uint64_t PumpArpanetFrame(const Frame& frame);
  uint64_t PumpFrontEndFrame(const Frame& frame);

  CostModel* cost_;
  Metrics* metrics_;
  MetricId id_out_of_order_;
  MultiplexedChannel* arpanet_ = nullptr;
  MultiplexedChannel* front_end_ = nullptr;
  std::vector<MultiplexedChannel*> extra_nets_;
  std::map<SubchannelId, NcpConnection> connections_;
  std::map<SubchannelId, TerminalLine> lines_;
  std::map<SubchannelId, NcpConnection> extra_connections_;
  std::deque<Frame> acks_;
};

}  // namespace mks

#endif  // MKS_NET_KERNEL_STACK_H_
