// Source locations for SIAL diagnostics.
//
// A SrcRange is a half-open [start, end) span over the original source
// text, tracked as 1-based line/column pairs. The lexer stamps every
// token with its range; the parser unions token ranges into statement
// and block-reference ranges; the compiler copies statement ranges onto
// the bytecode instructions it emits, so the optimizer's diagnostics and
// the runtime's error attribution can point back at the exact span of
// SIAL text with caret accuracy.
#pragma once

namespace sia::sial {

struct SrcRange {
  int line = 0;      // 1-based; 0 = unknown
  int col = 0;       // 1-based start column
  int end_line = 0;  // line of the last covered character
  int end_col = 0;   // column one past the last covered character

  bool valid() const { return line > 0; }

  // The union of two ranges (either may be invalid).
  static SrcRange merge(const SrcRange& a, const SrcRange& b) {
    if (!a.valid()) return b;
    if (!b.valid()) return a;
    SrcRange out = a;
    if (b.line < out.line || (b.line == out.line && b.col < out.col)) {
      out.line = b.line;
      out.col = b.col;
    }
    if (b.end_line > out.end_line ||
        (b.end_line == out.end_line && b.end_col > out.end_col)) {
      out.end_line = b.end_line;
      out.end_col = b.end_col;
    }
    return out;
  }
};

}  // namespace sia::sial
