// detlint — repo-specific static checker for the DESIGN.md determinism
// contract. Token-level (no libclang): lexes C++ source, strips comments and
// string literals, and pattern-matches the token stream against a fixed set
// of named rules. Diagnostics carry file:line and a rule id; a finding on a
// line whose source carries `// detlint: allow(<rule>)` (same line, or a
// standalone comment on the previous line) is suppressed.
//
// Rules (see DESIGN.md "Statically enforced determinism rules"):
//   wall-clock       entropy / wall-clock sources outside bench/
//   rng-seed         RNG engines not seeded through the substream scheme
//   unordered-iter   iteration over unordered containers (ordering leak)
//   ptr-order        pointer values used for hashing or ordering
//   parallel-capture unsynchronized by-reference mutation inside
//                    core::parallel_for lambda bodies
//   simd-intrinsics  raw vector intrinsics (x86 _mm*/__m*, NEON v*q_*)
//                    anywhere — kernels are plain loops in
//                    dsp/simd/kernels_spec.h that the compiler vectorises
#pragma once

#include <string>
#include <vector>

namespace detlint {

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Lints one translation unit given its contents. `path` is used for
/// diagnostics and for path-scoped rules (files under a `bench/` directory
/// are exempt from wall-clock).
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content);

/// Reads `path` from disk and lints it. Returns empty (no findings) and sets
/// `*io_error` if the file cannot be read.
std::vector<Finding> lint_file(const std::string& path, bool* io_error);

/// True for extensions detlint scans (.h .hpp .cpp .cc .cxx).
bool is_cpp_source(const std::string& path);

/// All rule ids, for CLI help and the fixture tests.
const std::vector<std::string>& rule_ids();

}  // namespace detlint
