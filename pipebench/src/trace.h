// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into the library's
// public functions (ReadEdgeListFile, RunOca, CommunityStore::Open, ...):
// name, start, end and the enclosing span. Nothing is written until the
// run ends.
//
// The untraced run passes a null recorder: ScopedSpan then does one
// pointer test and reads no clock.
#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the recorder was made
  double end_s = 0.0;
  int parent = -1;  // record index of the enclosing span, -1 at top level
  double seconds() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int Begin(const char* name);
  void End(int id);

  /// Durations of every span with this name, in record order.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes every span as one JSON line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
