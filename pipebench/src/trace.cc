#include "trace.h"

#include <cstdio>

namespace pipebench {

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.seconds());
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %d}\n",
                 i, s.name.c_str(), s.start_s, s.end_s, s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace pipebench
