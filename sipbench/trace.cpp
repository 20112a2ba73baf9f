#include "trace.hpp"

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace sipbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_s_(sia::wall_seconds()) {}

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.start_us = (sia::wall_seconds() - origin_s_) * 1e6;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  if (open_.empty() || open_.back() != id) {
    throw sia::InternalError("sipbench: span closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_us =
      (sia::wall_seconds() - origin_s_) * 1e6;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& other_json) const {
  std::ofstream out(path);
  if (!out) throw sia::Error("sipbench: cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\": %.3f, \"dur\": %.3f",
                  span.start_us, span.end_us - span.start_us);
    out << "  {\"name\": " << json_quote(span.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " << times
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"otherData\": " << other_json << "}\n";
  if (!out) throw sia::Error("sipbench: failed writing trace " + path);
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

}  // namespace sipbench
