// The benchmark's own spans, kept in per-thread buffers and written out
// when the run ends, plus the readers of the program's obs spans.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "obs/json.h"
#include "obs/obs.h"

namespace perfbench {

namespace {

struct ThreadSpans {
  std::vector<SpanRecord> done;
  std::vector<std::uint64_t> open;  ///< ids of the spans open on this thread
  std::uint64_t op = 0;
};

struct TracerState {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> next_id{1};
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadSpans>> threads;  // guarded by mutex
};

/// Leaked on purpose: threads of the daemon and the pool may still hold
/// their buffer pointers during static destruction.
TracerState& state() {
  static TracerState* const s = new TracerState();
  return *s;
}

thread_local ThreadSpans* tl_spans = nullptr;

ThreadSpans& this_thread_spans() {
  if (tl_spans == nullptr) {
    TracerState& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.threads.push_back(std::make_unique<ThreadSpans>());
    tl_spans = s.threads.back().get();
  }
  return *tl_spans;
}

void append_number(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  out += buf;
}

/// Benchmark spans of one thread, sorted by start; spans on one thread nest.
using ThreadIndex = std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>>;

/// The innermost span of `spans` (one thread's, sorted by start) whose
/// interval holds [start, end]; nullptr when none does.
const SpanRecord* innermost(const std::vector<const SpanRecord*>& spans,
                            const std::unordered_map<std::uint64_t, const SpanRecord*>& by_id,
                            double start, double end) {
  auto it = std::upper_bound(spans.begin(), spans.end(), start,
                             [](double t, const SpanRecord* s) { return t < s->start; });
  if (it == spans.begin()) return nullptr;
  const SpanRecord* s = *(it - 1);
  while (s != nullptr && !(s->start <= start && s->end >= end)) {
    const auto parent = by_id.find(s->parent);
    s = parent == by_id.end() ? nullptr : parent->second;
  }
  return s;
}

/// Self time of every span: its duration minus its children's.
std::vector<std::pair<const SpanRecord*, double>> self_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent] += s.end - s.start;
  }
  std::vector<std::pair<const SpanRecord*, double>> out;
  out.reserve(spans.size());
  for (const auto& s : spans) {
    const auto it = children.find(s.id);
    out.emplace_back(&s, (s.end - s.start) - (it == children.end() ? 0.0 : it->second));
  }
  return out;
}

}  // namespace

void set_tracing(bool on) {
  state().on.store(on, std::memory_order_relaxed);
  storsubsim::obs::set_tracing_enabled(on);
}

bool tracing() { return state().on.load(std::memory_order_relaxed); }

Span::Span(const char* name, const char* layer) {
  if (!tracing()) return;
  ThreadSpans& t = this_thread_spans();
  active_ = true;
  record_.name = name;
  record_.layer = layer;
  record_.id = state().next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t.open.empty() ? 0 : t.open.back();
  if (record_.parent == 0) t.op = record_.id;
  record_.op = t.op;
  record_.tid = storsubsim::obs::trace_thread_id();
  t.open.push_back(record_.id);
  record_.start = now();
}

Span::~Span() {
  if (!active_) return;
  record_.end = now();
  ThreadSpans& t = this_thread_spans();
  t.open.pop_back();
  t.done.push_back(record_);
}

std::vector<SpanRecord> collected_spans() {
  TracerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<SpanRecord> out;
  for (const auto& t : s.threads) out.insert(out.end(), t->done.begin(), t->done.end());
  return out;
}

std::vector<ObsSpan> collected_obs_spans() {
  std::vector<ObsSpan> out;
  const auto doc = storsubsim::obs::parse_json(storsubsim::obs::trace_json());
  if (!doc) return out;
  const auto* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const auto& e : events->array) {
    const auto* name = e.find("name");
    const auto* ts = e.find("ts");
    const auto* dur = e.find("dur");
    const auto* tid = e.find("tid");
    if (name == nullptr || ts == nullptr || dur == nullptr || tid == nullptr) continue;
    out.push_back(ObsSpan{name->string, ts->number * 1e-6,
                          (ts->number + dur->number) * 1e-6,
                          static_cast<std::uint32_t>(tid->number)});
  }
  return out;
}

double median_self(const std::vector<SpanRecord>& spans, const char* name) {
  std::vector<double> values;
  for (const auto& [span, self] : self_times(spans)) {
    if (std::string_view(span->name) == name) values.push_back(self);
  }
  return median(std::move(values));
}

double untraced_fraction(const std::vector<SpanRecord>& spans, const char* root) {
  double total = 0.0;
  double uncovered = 0.0;
  for (const auto& [span, self] : self_times(spans)) {
    if (span->parent != 0 || std::string_view(span->name) != root) continue;
    total += span->end - span->start;
    uncovered += self;
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

bool write_chrome_trace(const std::string& path, const std::vector<SpanRecord>& spans,
                        const std::vector<ObsSpan>& obs_spans) {
  std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
  ThreadIndex by_tid;
  std::vector<const SpanRecord*> roots;
  std::uint64_t next_id = 1;
  for (const auto& s : spans) {
    by_id.emplace(s.id, &s);
    by_tid[s.tid].push_back(&s);
    if (s.parent == 0) roots.push_back(&s);
    next_id = std::max(next_id, s.id + 1);
  }
  const auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start < b->start;
  };
  for (auto& [tid, list] : by_tid) std::sort(list.begin(), list.end(), by_start);
  std::sort(roots.begin(), roots.end(), by_start);
  // prefix_end[i]: latest end among roots[0..i), to tell whether an obs span
  // on a thread without benchmark spans falls inside exactly one operation.
  std::vector<double> prefix_end(roots.size() + 1, -1.0);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    prefix_end[i + 1] = std::max(prefix_end[i], roots[i]->end);
  }

  struct Event {
    std::string name;
    const char* cat;
    double start, end;
    std::uint32_t tid;
    std::uint64_t id, parent, op;
  };
  std::vector<Event> events;
  events.reserve(spans.size() + obs_spans.size());
  for (const auto& s : spans) {
    events.push_back(Event{s.name, s.layer, s.start, s.end, s.tid, s.id, s.parent, s.op});
  }
  for (const auto& o : obs_spans) {
    const SpanRecord* parent = nullptr;
    if (const auto it = by_tid.find(o.tid); it != by_tid.end()) {
      parent = innermost(it->second, by_id, o.start, o.end);
    }
    if (parent == nullptr) {
      // Another thread (a pool worker, a daemon thread): attribute the span
      // to the one operation whose root holds it, if exactly one does.
      const auto it = std::upper_bound(
          roots.begin(), roots.end(), o.start,
          [](double t, const SpanRecord* s) { return t < s->start; });
      const std::size_t i = static_cast<std::size_t>(it - roots.begin());
      if (i > 0 && roots[i - 1]->end >= o.end && prefix_end[i - 1] < o.end) {
        parent = innermost(by_tid[roots[i - 1]->tid], by_id, o.start, o.end);
      }
    }
    events.push_back(Event{o.name, "obs", o.start, o.end, o.tid, next_id++,
                           parent != nullptr ? parent->id : 0,
                           parent != nullptr ? parent->op : 0});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.id < b.id;
  });

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& e : events) {
    if (!first) out += ',';
    first = false;
    out += "\n {\"name\": \"";
    out += storsubsim::obs::json_escape(e.name);
    out += "\", \"cat\": \"";
    out += e.cat;
    out += "\", \"ph\": \"X\", \"ts\": ";
    append_number(out, e.start * 1e6);
    out += ", \"dur\": ";
    append_number(out, (e.end - e.start) * 1e6);
    out += ", \"pid\": 1, \"tid\": ";
    out += std::to_string(e.tid);
    out += ", \"args\": {\"id\": " + std::to_string(e.id) +
           ", \"parent\": " + std::to_string(e.parent) + ", \"op\": " + std::to_string(e.op) +
           "}}";
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << out;
  return static_cast<bool>(file);
}

std::uint64_t obs_value(const char* name) {
  const auto snapshot = storsubsim::obs::registry().snapshot();
  const auto* metric = snapshot.find(name);
  return metric == nullptr ? 0 : metric->value;
}

}  // namespace perfbench
