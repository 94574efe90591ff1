#include "spans.h"

#include <algorithm>
#include <cstring>
#include <fstream>

namespace rjoin::perfbench {
namespace {

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string("bench") : std::string(name, dot);
}

}  // namespace

double SpanLog::TotalSeconds(const std::string& name) const {
  uint64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::vector<uint64_t> SpanLog::Durations(const std::string& name) const {
  std::vector<uint64_t> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer(
    uint64_t from_ns, uint64_t to_ns) const {
  // Children are sequential and nested inside their parent, so the time a
  // parent's children cover is the sum of their durations.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
    const uint64_t dur = s.end_ns - s.start_ns;
    out[LayerOf(s.name)] +=
        static_cast<double>(dur - std::min(dur, child_ns[i])) * 1e-9;
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"benchmark\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"cat\":\""
        << LayerOf(s.name) << "\",\"name\":\"" << s.name
        << "\",\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"tuple\":" << s.tuple << "}}";
  }
  out << "]}\n";
  return out.good();
}

}  // namespace rjoin::perfbench
