#include "src/fabric/scheduler.h"

#include <algorithm>
#include <cassert>

namespace autonet {

void SchedulerEngine::Enqueue(PortNum inport, PortVector want,
                              bool broadcast) {
  assert(!HasRequest(inport) && "one outstanding request per receive port");
  queue_.push_back(Request{inport, want, broadcast, PortVector()});
  EnsureCycleScheduled();
}

bool SchedulerEngine::HasRequest(PortNum inport) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [inport](const Request& r) { return r.inport == inport; });
}

void SchedulerEngine::Remove(PortNum inport) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->inport == inport) {
      reserved_total_ &= ~it->reserved;
      queue_.erase(it);
      // Released reservations may unblock younger requests.
      EnsureCycleScheduled();
      return;
    }
  }
}

void SchedulerEngine::Clear() {
  queue_.clear();
  reserved_total_ = PortVector();
}

void SchedulerEngine::Kick() { EnsureCycleScheduled(); }

void SchedulerEngine::EnsureCycleScheduled() {
  if (cycle_scheduled_ || queue_.empty()) {
    return;
  }
  cycle_scheduled_ = true;
  sim_->ScheduleAfter(kRouterCycleNs, [this] { RunCycle(); });
}

void SchedulerEngine::RunCycle() {
  cycle_scheduled_ = false;
  if (queue_.empty()) {
    return;
  }
  PortVector free = free_ports_() & ~reserved_total_;
  bool progress = false;
  bool granted_one = false;
  std::size_t grant_index = queue_.size();

  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Request& r = queue_[i];
    if (r.broadcast) {
      PortVector need = r.want & ~r.reserved;
      PortVector take = need & free;
      if (!take.empty()) {
        r.reserved |= take;
        reserved_total_ |= take;
        free &= ~take;
        progress = true;
      }
      if (!granted_one && (r.want & ~r.reserved).empty()) {
        granted_one = true;
        grant_index = i;
      }
    } else {
      PortVector match = free & r.want;
      if (!granted_one && !match.empty()) {
        PortNum chosen = match.Lowest();
        free.Clear(chosen);
        r.reserved = PortVector::Single(chosen);
        granted_one = true;
        grant_index = i;
        progress = true;
      }
    }
    if (fcfs_) {
      break;  // strict in-order service: only the oldest request considered
    }
  }

  if (granted_one) {
    Request granted = queue_[grant_index];
    reserved_total_ &= ~granted.reserved;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(grant_index));
    ++grants_;
    if (grants_metric_ != nullptr) {
      grants_metric_->Increment();
    }
    PortVector ports = granted.broadcast ? granted.want : granted.reserved;
    grant_(granted, ports);
  } else if (blocked_cycles_metric_ != nullptr) {
    blocked_cycles_metric_->Increment();
  }

  // Only keep cycling while the pass achieved something; otherwise wait for
  // a Kick() (output port freed) or a new request.  The hardware polls
  // continuously, but grantability only changes on those occasions, so this
  // is behaviour-equivalent and keeps the simulation event-driven.
  if (progress && !queue_.empty()) {
    EnsureCycleScheduled();
  }
}

}  // namespace autonet
