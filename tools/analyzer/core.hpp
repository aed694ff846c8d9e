// gpuvar-analyzer core: file loading, token scanning, inline
// suppressions, and finding output shared by every analysis pass.
//
// The analyzer works on a token/character level rather than a real C++
// AST: the conventions it enforces (layering, annotation presence,
// determinism hygiene, include hygiene) are all visible in the token
// stream, and a dependency-free scanner can run as a ctest on every
// build. Comments and string/char literals are stripped before matching
// (newlines preserved so line numbers survive), so a banned name inside
// a doc comment or log message never trips a rule.
//
// Inline suppressions: a finding on line N is suppressed by an allow
// comment naming its rule on line N or on the line above, e.g.
//   ... = std::chrono::steady_clock::now();  // gpuvar-lint: allow(wall-clock)
// (comma-separate several rules inside one allow(...), e.g.
// allow(wall-clock,locale-format)).
// Unknown rule names inside allow(...) are themselves findings
// (rule `unknown-rule`), so a typo can never silently disable a check.
//
// Scanning and pass orchestration live in driver.hpp; the
// cross-TU symbol index in index.hpp.
#pragma once

#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace gpuvar::analyzer {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  /// The symbol the finding is about (function, lock pair, member...).
  /// Part of the baseline fingerprint (rule + file + symbol) so the
  /// ratchet is line-number independent; empty for token-level rules.
  std::string symbol;

  Finding() = default;
  Finding(std::string f, int l, std::string r, std::string m,
          std::string s = {})
      : file(std::move(f)),
        line(l),
        rule(std::move(r)),
        message(std::move(m)),
        symbol(std::move(s)) {}
};

/// One registered rule. The registry (rules()) is the single authority:
/// known_rules(), strict_rule(), --list-rules, and docs/rules.md all
/// derive from it.
struct RuleInfo {
  std::string id;
  std::string pass;         ///< owning pass name, as in --stats
  std::string description;  ///< one line, for --list-rules
  bool strict = false;      ///< not suppressible via allow()
};

/// All rules, sorted by id.
const std::vector<RuleInfo>& rules();

/// One identifier/keyword token plus enough context for the rules: its
/// line, its byte offset in the stripped code (for balanced-delimiter
/// scans), and the first non-space character that follows it.
struct Token {
  std::string text;
  int line = 0;
  std::size_t pos = 0;  // offset of the token's first char in `code`
  char next = '\0';     // first non-space character after the token
};

/// One scanned file with everything the passes need precomputed.
struct SourceFile {
  std::filesystem::path path;  // as opened
  std::string rel;             // root-relative, '/'-separated
  std::string top;     // first path component: src/tests/tools/bench/examples
  std::string module;  // for src files: the layer dir ("common", ...);
                       // empty for files directly under src/ (the umbrella)
  bool header = false;
  std::string raw;   // original bytes (suppressions are parsed from here)
  std::string code;  // comments and literals stripped, newlines kept
  std::vector<Token> tokens;
  /// Quoted #include targets as written, with their line numbers.
  std::vector<std::pair<int, std::string>> includes;
  /// line -> rule names suppressed on that line via gpuvar-lint: allow().
  std::map<int, std::set<std::string>> allows;

  bool in_src() const { return top == "src"; }
  std::string filename() const { return path.filename().string(); }
  /// Line number of a byte offset into `code` (1-based).
  int line_of(std::size_t pos) const;
};

/// A bag of SourceFiles handed to the file-local passes. The scan
/// driver feeds passes one file at a time (so files scan in parallel);
/// fixture modes load a handful at once.
struct Repo {
  std::filesystem::path root;
  std::vector<SourceFile> files;
};

/// Strips // and /* */ comments plus string/char literals, preserving
/// newlines so line numbers survive.
std::string strip_comments_and_literals(const std::string& in);

std::vector<Token> tokenize(const std::string& code);

bool ident_char(char c);

/// Offset just past the parenthesized region opened at `open` (which
/// must point at '('); std::string::npos when unbalanced.
std::size_t matching_paren_end(const std::string& code, std::size_t open);

/// Loads and preprocesses one file. `rel` uses '/' separators and
/// determines `top`/`module`. Returns false if the file can't be read.
bool load_source_file(const std::filesystem::path& path,
                      const std::string& rel, SourceFile& out);

/// Every rule id any pass can emit (derived from rules(); kept as a
/// set for unknown-rule checking).
const std::set<std::string>& known_rules();

/// True for rules an inline allow() cannot suppress (unknown-rule, and
/// rules whose deprecation grace period has ended: analysis-signature).
bool strict_rule(const std::string& rule);

/// Sorts findings by (file, line, rule) — the one canonical emit order,
/// so text and JSON outputs are stable for diffing in CI
/// regardless of scan order or thread count.
void sort_findings(std::vector<Finding>& findings);

/// "file:line: [rule] message" per finding. Expects findings already in
/// canonical order (sort_findings).
void print_findings(const std::vector<Finding>& findings, std::ostream& out);

/// Machine-readable report: {"files_scanned": N, "findings": [...]}.
/// Expects findings already in canonical order.
void write_json(const std::vector<Finding>& findings,
                std::size_t files_scanned, std::ostream& out);

}  // namespace gpuvar::analyzer
