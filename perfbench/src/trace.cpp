#include "trace.h"

namespace perfbench {

namespace {

// The calling thread's log in the tracer it last used.
struct ThreadSlot {
  const void* owner = nullptr;
  void* log = nullptr;
};
thread_local ThreadSlot slot;

}  // namespace

Tracer::ThreadLog& Tracer::log() {
  if (slot.owner != this) {
    auto fresh = std::make_unique<ThreadLog>();
    fresh->kept.reserve(1024);
    std::lock_guard lock(mutex_);
    logs_.push_back(std::move(fresh));
    slot.owner = this;
    slot.log = logs_.back().get();
  }
  return *static_cast<ThreadLog*>(slot.log);
}

std::uint64_t Tracer::open(const char* name, std::uint64_t request) {
  ThreadLog& l = log();
  Open open;
  open.span.name = name;
  open.span.id = new_id();
  open.span.parent = l.stack.empty() ? 0 : l.stack.back().span.id;
  open.span.request =
      request != 0 || l.stack.empty() ? request : l.stack.back().span.request;
  open.span.start_ns = now_ns();
  l.stack.push_back(open);
  return open.span.id;
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  ThreadLog& l = log();
  if (l.stack.empty()) return;
  Open open = l.stack.back();
  l.stack.pop_back();
  open.span.end_ns = end;
  const std::int64_t duration = end - open.span.start_ns;
  if (!l.stack.empty()) l.stack.back().child_ns += duration;
  finish(l, open.span, open.child_ns);
}

std::uint64_t Tracer::record(const char* name, std::uint64_t request,
                             std::uint64_t parent, std::int64_t start_ns,
                             std::int64_t end_ns, std::int64_t child_ns,
                             std::uint64_t id) {
  Span span;
  span.name = name;
  span.id = id != 0 ? id : new_id();
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  finish(log(), span, child_ns);
  return span.id;
}

void Tracer::finish(ThreadLog& l, const Span& span, std::int64_t child_ns) {
  auto it = l.totals.begin();
  while (it != l.totals.end() && it->first != span.name) ++it;
  if (it == l.totals.end()) {
    l.totals.emplace_back(span.name, SpanTotals{});
    it = l.totals.end() - 1;
  }
  SpanTotals& t = it->second;
  const double duration =
      static_cast<double>(span.end_ns - span.start_ns) / 1e9;
  ++t.count;
  t.total_s += duration;
  t.self_s += duration - static_cast<double>(child_ns) / 1e9;
  ++l.recorded;
  if (l.kept.size() < kKeepPerThread) l.kept.push_back(span);
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  std::map<std::string, SpanTotals> out;
  for (const auto& l : logs_) {
    for (const auto& [name, t] : l->totals) {
      SpanTotals& o = out[name];
      o.count += t.count;
      o.total_s += t.total_s;
      o.self_s += t.self_s;
    }
  }
  return out;
}

std::uint64_t Tracer::spans_recorded() const {
  std::lock_guard lock(mutex_);
  std::uint64_t n = 0;
  for (const auto& l : logs_) n += l->recorded;
  return n;
}

mcdc::api::Json Tracer::to_json() const {
  using mcdc::api::Json;
  Json out = Json::object();
  Json spans = Json::array();
  {
    std::lock_guard lock(mutex_);
    for (std::size_t thread = 0; thread < logs_.size(); ++thread) {
      for (const Span& s : logs_[thread]->kept) {
        Json j = Json::object();
        j["name"] = s.name;
        j["id"] = static_cast<double>(s.id);
        j["parent"] = static_cast<double>(s.parent);
        j["request"] = static_cast<double>(s.request);
        j["thread"] = thread;
        j["start_ns"] = static_cast<double>(s.start_ns);
        j["end_ns"] = static_cast<double>(s.end_ns);
        spans.push_back(std::move(j));
      }
    }
  }
  out["spans"] = std::move(spans);
  Json totals = Json::object();
  for (const auto& [name, t] : this->totals()) {
    Json j = Json::object();
    j["count"] = static_cast<double>(t.count);
    j["total_s"] = t.total_s;
    j["self_s"] = t.self_s;
    totals[name] = std::move(j);
  }
  out["totals"] = std::move(totals);
  out["spans_recorded"] = static_cast<double>(spans_recorded());
  return out;
}

}  // namespace perfbench
