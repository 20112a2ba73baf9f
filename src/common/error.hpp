// Error types shared across the SIA library.
//
// The SIA distinguishes user-facing errors (bad SIAL source, infeasible
// memory configuration) from internal invariant violations. User errors
// carry enough context (source line, symbol name) to be actionable.
#pragma once

#include <stdexcept>
#include <string>

namespace sia {

// Base class for all errors raised by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Error in SIAL source code (lexing, parsing, or semantic analysis).
// `line` is 1-based; 0 means "no specific location". `col` (1-based) is
// optional; when present the location prints as line:col.
class CompileError : public Error {
 public:
  CompileError(const std::string& what, int line, int col = 0)
      : Error(line > 0
                  ? "SIAL compile error at line " + std::to_string(line) +
                        (col > 0 ? ":" + std::to_string(col) : "") + ": " +
                        what
                  : "SIAL compile error: " + what),
        line_(line),
        col_(col) {}
  int line() const noexcept { return line_; }
  int col() const noexcept { return col_; }

 private:
  int line_ = 0;
  int col_ = 0;
};

// Error raised while the SIP executes a program (bad barrier usage,
// out-of-range block, exhausted block pool, ...).
class RuntimeError : public Error {
 public:
  explicit RuntimeError(const std::string& what)
      : Error("SIP runtime error: " + what) {}
};

// Raised by the master's dry run when the requested computation cannot fit
// in the configured per-worker memory. Carries the number of workers that
// would be sufficient, as the paper requires this to be reported; 0 when
// no worker count fits the per-worker fixed part.
class InfeasibleError : public Error {
 public:
  InfeasibleError(const std::string& what, int workers_needed)
      : Error("infeasible configuration: " + what +
              (workers_needed > 0
                   ? " (would need at least " +
                         std::to_string(workers_needed) + " workers)"
                   : std::string(" (no worker count fits the per-worker "
                                 "fixed part)"))),
        workers_needed_(workers_needed) {}
  int workers_needed() const noexcept { return workers_needed_; }

 private:
  int workers_needed_ = 0;
};

// Internal invariant violation; indicates a bug in the library itself.
class InternalError : public Error {
 public:
  explicit InternalError(const std::string& what)
      : Error("internal error: " + what) {}
};

// SIA_CHECK: cheap always-on invariant check for internal consistency.
#define SIA_CHECK(cond, msg)                                             \
  do {                                                                   \
    if (!(cond)) {                                                       \
      throw ::sia::InternalError(std::string(msg) + " [" #cond "] at " + \
                                 __FILE__ + ":" + std::to_string(__LINE__)); \
    }                                                                    \
  } while (0)

}  // namespace sia
