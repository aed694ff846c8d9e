#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

namespace gpuvar::e2e {

namespace {

/// The innermost span open on this thread (0: none).
thread_local std::uint64_t t_open_span = 0;

std::string fixed3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b <= a) continue;
    covered += b - a;
    reach = b;
  }
  return covered;
}

}  // namespace

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void SpanLog::add(const SpanRecord& record) {
  MutexLock lock(mu_);
  spans_.push_back(record);
}

std::vector<SpanRecord> SpanLog::sorted() const {
  std::vector<SpanRecord> out;
  {
    MutexLock lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const SpanRecord& a,
                                       const SpanRecord& b) {
    return a.id < b.id;
  });
  return out;
}

std::vector<double> SpanLog::durations_ms(std::string_view name,
                                          std::uint64_t op) const {
  std::vector<double> out;
  for (const SpanRecord& s : sorted()) {
    if (name == s.name && (op == kAnyOp || op == s.op)) out.push_back(s.ms());
  }
  return out;
}

double SpanLog::total_ms(std::string_view name, std::uint64_t op) const {
  double total = 0.0;
  for (double ms : durations_ms(name, op)) total += ms;
  return total;
}

void SpanLog::write_json(std::ostream& out) const {
  const std::vector<SpanRecord> spans = sorted();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  struct NameTotals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> by_name;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const auto kids = children.find(s.id);
    const std::int64_t child_ns =
        kids == children.end()
            ? 0
            : covered_ns(kids->second, s.start_ns, s.end_ns);
    const double self_ms =
        static_cast<double>(s.end_ns - s.start_ns - child_ns) / 1e6;
    NameTotals& t = by_name[s.name];
    ++t.count;
    t.total_ms += s.ms();
    t.self_ms += self_ms;
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"name\": \"" << s.name << "\", \"start_us\": "
        << fixed3(static_cast<double>(s.start_ns) / 1e3)
        << ", \"end_us\": " << fixed3(static_cast<double>(s.end_ns) / 1e3)
        << ", \"self_ms\": " << fixed3(self_ms) << "}";
  }
  out << "\n], \"by_name\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
        << t.count << ", \"total_ms\": " << fixed3(t.total_ms)
        << ", \"self_ms\": " << fixed3(t.self_ms) << "}";
    first = false;
  }
  out << "\n}}\n";
}

Span::Span(SpanLog* log, const char* name, std::uint64_t op)
    : Span(log, name, op, t_open_span) {}

Span::Span(SpanLog* log, const char* name, std::uint64_t op,
           std::uint64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  record_.id = log_->next_id();
  record_.parent = parent;
  record_.op = op;
  record_.name = name;
  enclosing_ = t_open_span;
  t_open_span = record_.id;
  record_.start_ns = log_->now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  record_.end_ns = log_->now_ns();
  t_open_span = enclosing_;
  log_->add(record_);
}

}  // namespace gpuvar::e2e
