#include "src/sync/eventcount.h"

#include <cassert>

namespace mks {

EventcountId EventcountTable::Create() {
  EventcountId id(static_cast<uint32_t>(cells_.size()));
  cells_.push_back(Cell{});
  return id;
}

uint64_t EventcountTable::Read(EventcountId ec) const {
  assert(ec.value < cells_.size());
  return cells_[ec.value].value;
}

void EventcountTable::Advance(EventcountId ec, std::vector<EcWaiter>* woken) {
  assert(ec.value < cells_.size());
  Cell& cell = cells_[ec.value];
  ++cell.value;
  woken->clear();
  // One pass: satisfied waiters move to the caller's scratch in
  // registration order, the rest stay.
  std::erase_if(cell.waiters, [&](const Waiter& w) {
    if (w.target > cell.value) {
      return false;
    }
    woken->push_back(w.who);
    return true;
  });
  metrics_->Inc(id_wakeups_, woken->size());
}

bool EventcountTable::AwaitOrEnqueue(EventcountId ec, uint64_t target, EcWaiter waiter) {
  assert(ec.value < cells_.size());
  Cell& cell = cells_[ec.value];
  if (cell.value >= target) {
    return true;
  }
  cell.waiters.push_back(Waiter{waiter, target});
  return false;
}

void EventcountTable::CancelWait(EventcountId ec, EcWaiter waiter) {
  assert(ec.value < cells_.size());
  std::erase_if(cells_[ec.value].waiters, [&](const Waiter& w) { return w.who == waiter; });
}

size_t EventcountTable::WaiterCount(EventcountId ec) const {
  assert(ec.value < cells_.size());
  return cells_[ec.value].waiters.size();
}

}  // namespace mks
