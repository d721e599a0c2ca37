#include "obs/trace.h"

#include <algorithm>

#include "common/file.h"

namespace pmkm {

uint32_t TraceRecorder::TidLocked(std::thread::id id) {
  auto [it, inserted] =
      tids_.emplace(id, static_cast<uint32_t>(tids_.size() + 1));
  (void)inserted;
  return it->second;
}

void TraceRecorder::Add(TraceEvent event) {
  MutexLock lock(mu_);
  event.tid = TidLocked(std::this_thread::get_id());
  ++total_;
  if (capacity_ == 0 || events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  // Ring is full: overwrite the oldest slot.
  events_[(total_ - 1) % capacity_] = std::move(event);
  ++dropped_;
}

void TraceRecorder::SetCapacity(size_t max_events) {
  MutexLock lock(mu_);
  if (max_events != 0 && events_.size() > max_events) {
    std::vector<TraceEvent> kept = OrderedLocked(max_events);
    dropped_ += events_.size() - kept.size();
    events_ = std::move(kept);
    total_ = events_.size();
  } else if (capacity_ != 0 && events_.size() == capacity_) {
    // Un-rotate so future appends (to a larger/unbounded store) keep
    // chronological order.
    events_ = OrderedLocked(events_.size());
    total_ = events_.size();
  }
  capacity_ = max_events;
}

std::vector<TraceEvent> TraceRecorder::OrderedLocked(size_t n) const {
  std::vector<TraceEvent> out;
  const size_t have = events_.size();
  n = std::min(n, have);
  out.reserve(n);
  // Once the ring wrapped, the oldest retained event sits at the next
  // write slot; before that events_ is already chronological.
  const size_t start =
      (capacity_ != 0 && have == capacity_ && total_ > capacity_)
          ? total_ % capacity_
          : 0;
  for (size_t i = have - n; i < have; ++i) {
    out.push_back(events_[(start + i) % have]);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  MutexLock lock(mu_);
  return OrderedLocked(events_.size());
}

std::vector<TraceEvent> TraceRecorder::Recent(size_t n) const {
  MutexLock lock(mu_);
  return OrderedLocked(n);
}

void TraceRecorder::SetRunId(const std::string& run_id) {
  MutexLock lock(mu_);
  run_id_ = run_id;
}

JsonValue TraceRecorder::ToJson() const {
  MutexLock lock(mu_);
  JsonValue root = JsonValue::Object();
  if (!run_id_.empty()) root.Set("run_id", run_id_);
  JsonValue events = JsonValue::Array();
  for (const TraceEvent& e : OrderedLocked(events_.size())) {
    JsonValue j = JsonValue::Object();
    j.Set("name", e.name);
    j.Set("cat", e.category);
    j.Set("ph", "X");
    j.Set("ts", e.start_us);
    j.Set("dur", e.dur_us);
    j.Set("pid", 1);
    j.Set("tid", e.tid);
    if (!e.args.empty()) {
      JsonValue args = JsonValue::Object();
      for (const auto& [k, v] : e.args) args.Set(k, v);
      j.Set("args", std::move(args));
    }
    events.Append(std::move(j));
  }
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ms");
  return root;
}

Status TraceRecorder::WriteJson(const std::string& path) const {
  return AtomicWriteFile(path, ToJson().Dump(1) + "\n");
}

}  // namespace pmkm
