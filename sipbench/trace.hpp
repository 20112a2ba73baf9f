// Bench-side tracing: spans recorded around every call the benchmark
// makes into a runtime layer (compile, optimize, plan, run, and each
// layer probe). Spans live in memory and are written once, at the end of
// the traced run, as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev). Single-threaded: only the benchmark's main thread
// opens and closes spans.
#pragma once

#include <string>
#include <vector>

namespace sipbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  // Opens a span as a child of the innermost open span and returns its
  // id (-1 when tracing is off). Spans must close in LIFO order.
  int open(std::string name);
  void close(int id);

  std::size_t size() const { return spans_.size(); }

  // Writes {"traceEvents": [...], "otherData": <other_json>} to `path`.
  // `other_json` must be a JSON value. Throws sia::Error on I/O failure.
  void write_chrome(const std::string& path,
                    const std::string& other_json) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;
    int parent = -1;
  };
  bool enabled_;
  double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// JSON string literal (quoted, escaped).
std::string json_quote(const std::string& text);

}  // namespace sipbench
