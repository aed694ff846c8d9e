#include "core.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

namespace gpuvar::analyzer {

namespace fs = std::filesystem;

std::string strip_comments_and_literals(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State st = State::kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && n == '/') {
          st = State::kLineComment;
          ++i;
        } else if (c == '/' && n == '*') {
          st = State::kBlockComment;
          ++i;
        } else if (c == '"') {
          st = State::kString;
          out += ' ';
        } else if (c == '\'') {
          st = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          st = State::kCode;
          out += '\n';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && n == '/') {
          st = State::kCode;
          ++i;
        } else if (c == '\n') {
          out += '\n';
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = State::kCode;
        } else if (c == '\n') {
          out += '\n';  // unterminated; keep line counts sane
          st = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
        } else if (c == '\n') {
          out += '\n';
          st = State::kCode;
        }
        break;
    }
  }
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> tokens;
  int line = 1;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (!ident_char(c)) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < code.size() && ident_char(code[j])) ++j;
    // A digit-led chunk is a numeric literal; a glued `_suffix` makes
    // it a user-defined-literal reference (`250.0_W` uses `_W`), so
    // the token becomes the suffix. Chunk count is preserved either
    // way — declaration scanning sees the same stream shape.
    std::size_t start = i;
    if (std::isdigit(static_cast<unsigned char>(c))) {
      while (start < j && code[start] != '_') ++start;
      if (start == j) start = i;  // plain number: keep it verbatim
    }
    Token t;
    t.text = code.substr(start, j - start);
    t.line = line;
    t.pos = start;
    std::size_t k = j;
    while (k < code.size() &&
           std::isspace(static_cast<unsigned char>(code[k])) &&
           code[k] != '\n') {
      ++k;
    }
    t.next = k < code.size() ? code[k] : '\0';
    tokens.push_back(std::move(t));
    i = j;
  }
  return tokens;
}

int SourceFile::line_of(std::size_t pos) const {
  return 1 + static_cast<int>(
                 std::count(code.begin(),
                            code.begin() +
                                static_cast<std::ptrdiff_t>(
                                    std::min(pos, code.size())),
                            '\n'));
}

std::size_t matching_paren_end(const std::string& code, std::size_t open) {
  if (open >= code.size() || code[open] != '(') return std::string::npos;
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

namespace {

void parse_includes(SourceFile& f) {
  // Walk code and raw line by line in lockstep (stripping preserves
  // newlines): the stripped line tells us a '#' directive is real code,
  // the raw line still holds the quoted path that stripping blanked.
  const std::string& code = f.code;
  std::size_t cpos = 0, rpos = 0;
  int line = 1;
  while (cpos <= code.size()) {
    const std::size_t ceol = code.find('\n', cpos);
    const std::size_t cend = ceol == std::string::npos ? code.size() : ceol;
    const std::size_t reol = f.raw.find('\n', rpos);
    std::size_t p = cpos;
    while (p < cend && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
    if (p < cend && code[p] == '#' && code.find("include", p) < cend) {
      const std::string raw_line = f.raw.substr(
          rpos, (reol == std::string::npos ? f.raw.size() : reol) - rpos);
      const std::size_t inc = raw_line.find("include");
      if (inc != std::string::npos) {
        const std::size_t q0 = raw_line.find('"', inc);
        if (q0 != std::string::npos) {
          const std::size_t q1 = raw_line.find('"', q0 + 1);
          if (q1 != std::string::npos) {
            f.includes.emplace_back(line,
                                    raw_line.substr(q0 + 1, q1 - q0 - 1));
          }
        }
      }
    }
    if (ceol == std::string::npos) break;
    cpos = ceol + 1;
    rpos = reol == std::string::npos ? f.raw.size() : reol + 1;
    ++line;
  }
}

void parse_allows(SourceFile& f) {
  static const std::string kMarker = "gpuvar-lint:";
  std::size_t pos = 0;
  while ((pos = f.raw.find(kMarker, pos)) != std::string::npos) {
    const int line =
        1 + static_cast<int>(std::count(
                f.raw.begin(),
                f.raw.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
    std::size_t p = pos + kMarker.size();
    while (p < f.raw.size() && f.raw[p] == ' ') ++p;
    if (f.raw.compare(p, 6, "allow(") == 0) {
      p += 6;
      const std::size_t close = f.raw.find(')', p);
      if (close != std::string::npos) {
        std::string list = f.raw.substr(p, close - p);
        std::stringstream ss(list);
        std::string rule;
        while (std::getline(ss, rule, ',')) {
          const auto b = rule.find_first_not_of(" \t");
          const auto e = rule.find_last_not_of(" \t");
          if (b != std::string::npos) {
            f.allows[line].insert(rule.substr(b, e - b + 1));
          }
        }
      }
    }
    pos += kMarker.size();
  }
}

}  // namespace

bool load_source_file(const fs::path& path, const std::string& rel,
                      SourceFile& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::stringstream ss;
  ss << f.rdbuf();
  out.path = path;
  out.rel = rel;
  out.raw = ss.str();
  out.code = strip_comments_and_literals(out.raw);
  out.tokens = tokenize(out.code);

  const auto slash = rel.find('/');
  out.top = slash == std::string::npos ? "" : rel.substr(0, slash);
  out.module.clear();
  if (out.top == "src" && slash != std::string::npos) {
    const auto slash2 = rel.find('/', slash + 1);
    if (slash2 != std::string::npos) {
      out.module = rel.substr(slash + 1, slash2 - slash - 1);
    }
  }
  const std::string name = out.filename();
  out.header = name.size() >= 4 &&
               (name.rfind(".hpp") == name.size() - 4 ||
                name.find(".hpp.") != std::string::npos);

  parse_includes(out);
  parse_allows(out);
  return true;
}

const std::vector<RuleInfo>& rules() {
  // Strictness notes: unknown-rule is structurally strict (a
  // suppression must never hide a typo'd suppression);
  // analysis-signature graduated to strict once the forwarding shims
  // were deleted — an allow() on it would mark a dead grace period,
  // not an exemption.
  static const std::vector<RuleInfo> kRules = {
      {"alloc-in-hot-loop", "hotpath",
       "heap allocation inside a loop on a GPUVAR_HOT path", false},
      {"analysis-signature", "analysis",
       "analysis entry point in a core header off the unified "
       "analyze_*(source, const ...Options&) shape", true},
      {"bare-assert", "style",
       "assert() in library code; use GPUVAR_REQUIRE (argument checks) "
       "or GPUVAR_ASSERT (invariants) so release builds keep the check",
       false},
      {"cout-in-library", "style",
       "std::cout/std::cerr in src/ library code; report through the "
       "caller or obs sinks", false},
      {"dangling-span", "lifetime",
       "span/string_view bound to storage that dies with the call "
       "(local, temporary, or view parameter stored past return)",
       false},
      {"dead-symbol", "deadcode",
       "namespace-scope symbol in a src/ header no other TU references",
       false},
      {"float-sort-key", "determinism",
       "std::sort comparator on floating-point keys without a "
       "tie-breaker; ties make the order platform-dependent", false},
      {"forward-declarable", "include",
       "header included for a type used only by pointer/reference; a "
       "forward declaration suffices", false},
      {"include-cycle", "layering",
       "include cycle among src/ modules", false},
      {"io-in-hot-path", "hotpath",
       "stream/stdio IO reachable on a GPUVAR_HOT path", false},
      {"locale-format", "determinism",
       "locale-dependent number parsing in src/, or float formatting "
       "in CSV/export code; use numfmt", false},
      {"lock-cycle", "lockorder",
       "two locks acquired in opposite orders on different paths; a "
       "deadlock window once both run concurrently", false},
      {"lock-held-across-wait", "lockorder",
       "lock held across ThreadPool submit/wait_idle/parallel_for; "
       "workers that need the lock deadlock the pool", false},
      {"lock-in-hot-path", "hotpath",
       "mutex acquisition inside a GPUVAR_HOT function or a helper it "
       "calls", false},
      {"missing-direct-include", "include",
       "symbol used but its header reached only transitively; include "
       "it directly", false},
      {"parallel-accum", "determinism",
       "compound assignment to a captured accumulator inside "
       "parallel_for; reduction order is nondeterministic", false},
      {"pragma-once", "style",
       "header missing #pragma once", false},
      {"raw-double-quantity", "style",
       "bare double for a physical quantity in a public header; use "
       "the Quantity<Tag> strong types from common/units.hpp", false},
      {"raw-loop-reduction", "reduction",
       "serial double reduction (range-for '+=' or a <numeric> "
       "algorithm) in src/core or src/query; use the stats::kernels "
       "reductions, which pin the lane order", false},
      {"raw-rng", "style",
       "rand()/srand()/random_device in library code; use the seeded "
       "gpuvar RNG", false},
      {"raw-std-mutex", "thread",
       "std::mutex/std::lock_guard directly; use gpuvar::Mutex / "
       "MutexLock so clang -Wthread-safety sees a capability", false},
      {"raw-trace-api", "obs",
       "trace-layer internals used outside src/obs; use the "
       "GPUVAR_TRACE_* macros", false},
      {"string-format-in-hot-loop", "hotpath",
       "string formatting inside a loop on a GPUVAR_HOT path", false},
      {"test-only-symbol", "deadcode",
       "namespace-scope symbol in a src/ header that only files under "
       "tests/ reference", false},
      {"unguarded-mutex", "thread",
       "Mutex member not named by any GPUVAR_GUARDED_BY/REQUIRES/"
       "ACQUIRE annotation in its file", false},
      {"unknown-module", "layering",
       "src/ directory not registered in the layer DAG", false},
      {"unknown-rule", "meta",
       "gpuvar-lint: allow() names a rule that does not exist", true},
      {"unordered-iteration", "determinism",
       "iteration over an unordered container where order can reach "
       "output", false},
      {"unused-include", "include",
       "direct include whose export closure contributes no referenced "
       "symbol", false},
      {"upward-include", "layering",
       "src/ module includes a higher-ranked module", false},
      {"wall-clock", "determinism",
       "wall-clock time in result-affecting code; clocks are injected",
       false},
  };
  return kRules;
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> kIds = [] {
    std::set<std::string> ids;
    for (const auto& r : rules()) ids.insert(r.id);
    return ids;
  }();
  return kIds;
}

bool strict_rule(const std::string& rule) {
  static const std::set<std::string> kStrict = [] {
    std::set<std::string> ids;
    for (const auto& r : rules()) {
      if (r.strict) ids.insert(r.id);
    }
    return ids;
  }();
  return kStrict.count(rule) != 0;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message, a.symbol) <
                     std::tie(b.file, b.line, b.rule, b.message, b.symbol);
            });
}

void print_findings(const std::vector<Finding>& findings, std::ostream& out) {
  for (const auto& fd : findings) {
    out << fd.file << ":" << fd.line << ": [" << fd.rule << "] "
        << fd.message << "\n";
  }
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void write_json(const std::vector<Finding>& findings,
                std::size_t files_scanned, std::ostream& out) {
  out << "{\n  \"files_scanned\": " << files_scanned
      << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const auto& fd = findings[i];
    out << (i ? "," : "") << "\n    {\"file\": \"" << json_escape(fd.file)
        << "\", \"line\": " << fd.line << ", \"rule\": \""
        << json_escape(fd.rule) << "\", \"message\": \""
        << json_escape(fd.message) << "\"";
    if (!fd.symbol.empty()) {
      out << ", \"symbol\": \"" << json_escape(fd.symbol) << "\"";
    }
    out << "}";
  }
  out << (findings.empty() ? "" : "\n  ") << "]\n}\n";
}

}  // namespace gpuvar::analyzer
