#pragma once

// In-memory span recorder for the traced benchmark run. Spans are recorded
// by the benchmark around its calls into each layer's public functions
// (nothing inside the program is instrumented). Calls that happen
// hundreds of thousands of times per run — sink observers, result sinks —
// are folded into one aggregate record (count + total time) per parent
// span instead of one span each.
//
// A span's layer is its name up to the first '.', e.g. "net.routing_build"
// belongs to layer "net". A layer's self time is the duration of its spans
// minus the time their child spans and aggregates cover.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Record {
    std::string name;
    int parent = -1;            ///< index of the enclosing span, -1 = root
    std::int64_t start_ns = 0;  ///< spans only
    std::int64_t end_ns = 0;    ///< spans only
    bool aggregate = false;     ///< aggregate of many short calls
    std::uint64_t count = 1;    ///< calls folded into an aggregate
    std::int64_t total_ns = 0;  ///< duration (span) or summed time (aggregate)
  };

  int open(std::string name) {
    Record record;
    record.name = std::move(name);
    record.parent = top();
    record.start_ns = now_ns();
    records_.push_back(std::move(record));
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    Record& record = records_.at(static_cast<std::size_t>(index));
    record.end_ns = now_ns();
    record.total_ns = record.end_ns - record.start_ns;
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  /// The span currently open, or -1.
  int top() const noexcept { return stack_.empty() ? -1 : stack_.back(); }

  /// Index of the aggregate record `name` under the current span, created
  /// on first use.
  int aggregate(const std::string& name) {
    const auto key = std::make_pair(top(), name);
    const auto found = aggregates_.find(key);
    if (found != aggregates_.end()) return found->second;
    Record record;
    record.name = name;
    record.parent = top();
    record.aggregate = true;
    record.count = 0;
    records_.push_back(std::move(record));
    const int index = static_cast<int>(records_.size()) - 1;
    aggregates_.emplace(key, index);
    return index;
  }

  void add(int aggregate_index, std::uint64_t calls, std::int64_t ns) {
    Record& record = records_.at(static_cast<std::size_t>(aggregate_index));
    record.count += calls;
    record.total_ns += ns;
  }

  std::size_t size() const noexcept { return records_.size(); }

  /// Self seconds per layer over the records from `first` on.
  std::map<std::string, double> self_seconds(std::size_t first) const {
    std::vector<std::int64_t> covered(records_.size(), 0);
    for (std::size_t i = first; i < records_.size(); ++i) {
      const int parent = records_[i].parent;
      if (parent >= 0) covered[static_cast<std::size_t>(parent)] += records_[i].total_ns;
    }
    std::map<std::string, double> self;
    for (std::size_t i = first; i < records_.size(); ++i) {
      const Record& record = records_[i];
      const std::string layer = record.name.substr(0, record.name.find('.'));
      self[layer] += static_cast<double>(record.total_ns - covered[i]) * 1e-9;
    }
    return self;
  }

  /// One JSON object per record, in creation order.
  void write_jsonl(std::ostream& os) const {
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << r.name
         << "\",\"parent\":" << r.parent;
      if (r.aggregate) {
        os << ",\"count\":" << r.count << ",\"total_ns\":" << r.total_ns;
      } else {
        os << ",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns;
      }
      os << "}\n";
    }
  }

 private:
  std::vector<Record> records_;
  std::vector<int> stack_;
  std::map<std::pair<int, std::string>, int> aggregates_;
};

/// RAII span; a no-op when `tracer` is null (the untraced run).
class Span {
 public:
  Span(Tracer* tracer, std::string name)
      : tracer_(tracer), index_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Runs `call` inside a span named `name`; returns its wall seconds, which
/// the untraced run measures too.
template <typename F>
double timed(Tracer* tracer, std::string name, F&& call) {
  Span span(tracer, std::move(name));
  const std::int64_t start = now_ns();
  call();
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// Times calls folded into the aggregate `name` under whichever span is
/// open at call time.
class AggregateTimer {
 public:
  AggregateTimer(Tracer& tracer, std::string name)
      : tracer_(tracer), name_(std::move(name)) {}

  template <typename F>
  void time(F&& call) {
    const std::int64_t start = now_ns();
    call();
    const std::int64_t elapsed = now_ns() - start;
    if (tracer_.top() != parent_ || record_ < 0) {
      parent_ = tracer_.top();
      record_ = tracer_.aggregate(name_);
    }
    tracer_.add(record_, 1, elapsed);
    total_ns_ += elapsed;
  }

  double seconds() const noexcept { return static_cast<double>(total_ns_) * 1e-9; }

 private:
  Tracer& tracer_;
  std::string name_;
  int parent_ = -1;
  int record_ = -1;
  std::int64_t total_ns_ = 0;
};

}  // namespace perfbench
