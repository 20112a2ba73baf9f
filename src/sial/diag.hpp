// Source-ranged, multi-note diagnostics for the SIAL tool chain.
//
// A Diag is one primary message anchored to a source range plus any
// number of secondary notes anchored to their own ranges (the style of
// quirrel's SQCompilationContext): the optimizer explains *what* it did
// at the primary location and *why* with notes pointing at the evidence
// ("hoisted before this loop", "first conflicting access is here").
//
// render() produces the familiar caret form:
//
//   <file>:12:5: warning: this get is loop-invariant (hoisted) [W003]
//       get V(a,i)
//       ^~~~~~~~~~
//   <file>:11:3: note: hoisted before this loop
//       do k
//       ^~~~
#pragma once

#include <string>
#include <vector>

#include "sial/source.hpp"

namespace sia::sial {

struct Diag {
  enum class Severity { kNote, kWarning, kError };

  struct Note {
    SrcRange range;
    std::string message;
  };

  Severity severity = Severity::kWarning;
  std::string code;     // stable id, e.g. "W001"
  std::string message;  // primary text
  SrcRange range;       // primary anchor
  std::vector<Note> notes;
};

// Stable warning codes emitted by the optimizer (docs/COMPILER.md).
inline constexpr const char* kDiagRedundantBarrier = "W001";
inline constexpr const char* kDiagLoopInvariantGet = "W003";
inline constexpr const char* kDiagDeadStore = "W004";
inline constexpr const char* kDiagReassociated = "W005";

// Renders one diagnostic (with its notes) against the source text it
// refers to. `file` is the display name; pass "<sial>" when the program
// did not come from a file. Every emitted line ends with '\n'.
std::string render_diag(const Diag& diag, const std::string& source,
                        const std::string& file = "<sial>");

// All diagnostics, concatenated in order.
std::string render_diags(const std::vector<Diag>& diags,
                         const std::string& source,
                         const std::string& file = "<sial>");

}  // namespace sia::sial
