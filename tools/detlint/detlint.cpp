// detlint implementation: a hand-rolled C++ lexer (comments, string/char
// literals, raw strings, identifiers, maximal-munch punctuation) followed by
// six token-stream rules. Deliberately dependency-free and conservative:
// every heuristic is tuned so that `detlint src/` runs clean on a compliant
// tree and each rule fires on the minimal bad fixture in tests/detlint/.
#include "detlint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace detlint {
namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Kind { kIdent, kNumber, kPunct };

struct Token {
  std::string text;
  Kind kind = Kind::kPunct;
  int line = 0;
};

struct LexResult {
  std::vector<Token> tokens;
  // line -> rules allowed on that line via `detlint: allow(...)` comments.
  std::map<int, std::set<std::string>> allow;
};

// Multi-character operators we must not split (the rules key on `::`, `==`,
// compound assignments, and `++`/`--`).
const char* const kMultiPunct[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>",
    "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=",
    "%=",  "&=",  "|=",  "^=",
};

void parse_allow_comment(const std::string& comment, int line,
                         bool standalone, LexResult* out) {
  std::size_t pos = comment.find("detlint:");
  while (pos != std::string::npos) {
    std::size_t open = comment.find("allow(", pos);
    if (open == std::string::npos) break;
    std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string inside = comment.substr(open + 6, close - open - 6);
    std::string rule;
    std::istringstream ss(inside);
    while (std::getline(ss, rule, ',')) {
      // Trim whitespace.
      std::size_t b = rule.find_first_not_of(" \t");
      std::size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      rule = rule.substr(b, e - b + 1);
      out->allow[line].insert(rule);
      // A comment on its own line covers the following line of code.
      if (standalone) out->allow[line + 1].insert(rule);
    }
    pos = comment.find("detlint:", close);
  }
}

LexResult lex(const std::string& src) {
  LexResult out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool line_has_token = false;  // any token seen on the current line yet?

  auto advance_line = [&](char c) {
    if (c == '\n') {
      ++line;
      line_has_token = false;
    }
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      advance_line(c);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      parse_allow_comment(src.substr(i, end - i), line, !line_has_token,
                          &out);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      if (end == std::string::npos) end = n;
      const std::string body = src.substr(i, std::min(end + 2, n) - i);
      parse_allow_comment(body, line, !line_has_token, &out);
      for (std::size_t k = i; k < std::min(end + 2, n); ++k)
        advance_line(src[k]);
      i = (end == n) ? n : end + 2;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t open = src.find('(', i + 2);
      if (open != std::string::npos) {
        const std::string delim = ")" + src.substr(i + 2, open - i - 2) + "\"";
        std::size_t end = src.find(delim, open + 1);
        if (end == std::string::npos) end = n;
        for (std::size_t k = i; k < std::min(end + delim.size(), n); ++k)
          advance_line(src[k]);
        i = std::min(end + delim.size(), n);
        line_has_token = true;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t k = i + 1;
      while (k < n && src[k] != quote) {
        if (src[k] == '\\' && k + 1 < n) ++k;
        advance_line(src[k]);
        ++k;
      }
      i = std::min(k + 1, n);
      line_has_token = true;
      continue;
    }
    // Identifier.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t k = i;
      while (k < n && (std::isalnum(static_cast<unsigned char>(src[k])) ||
                       src[k] == '_'))
        ++k;
      out.tokens.push_back({src.substr(i, k - i), Kind::kIdent, line});
      i = k;
      line_has_token = true;
      continue;
    }
    // Number.
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t k = i;
      while (k < n && (std::isalnum(static_cast<unsigned char>(src[k])) ||
                       src[k] == '.' || src[k] == '\''))
        ++k;
      out.tokens.push_back({src.substr(i, k - i), Kind::kNumber, line});
      i = k;
      line_has_token = true;
      continue;
    }
    // Punctuation, maximal munch.
    std::string punct(1, c);
    for (const char* mp : kMultiPunct) {
      const std::size_t len = std::char_traits<char>::length(mp);
      if (src.compare(i, len, mp) == 0) {
        punct = mp;
        break;
      }
    }
    out.tokens.push_back({punct, Kind::kPunct, line});
    i += punct.size();
    line_has_token = true;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

using Tokens = std::vector<Token>;

bool is(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

bool is_ident(const Tokens& t, std::size_t i) {
  return i < t.size() && t[i].kind == Kind::kIdent;
}

/// Index of the punct matching t[i] (one of ( [ { <), or t.size() if
/// unbalanced. For '<' the scan aborts on tokens that cannot appear in a
/// template argument list, so `a < b` comparisons do not derail it.
std::size_t match(const Tokens& t, std::size_t i) {
  const std::string& open = t[i].text;
  std::string close;
  if (open == "(") close = ")";
  else if (open == "[") close = "]";
  else if (open == "{") close = "}";
  else if (open == "<") close = ">";
  else return t.size();
  int depth = 0;
  for (std::size_t k = i; k < t.size(); ++k) {
    const std::string& x = t[k].text;
    if (open == "<" && (x == ";" || x == "{" || x == "}")) return t.size();
    if (x == open) ++depth;
    if (x == close) {
      --depth;
      if (depth == 0) return k;
    }
    if (open == "<" && x == ">>") {
      depth -= 2;  // merged template close: `set<Tag*, less<Tag*>>`
      if (depth <= 0) return k;
    }
  }
  return t.size();
}

bool range_contains_ident(const Tokens& t, std::size_t b, std::size_t e,
                          const std::set<std::string>& names) {
  for (std::size_t k = b; k < e && k < t.size(); ++k)
    if (t[k].kind == Kind::kIdent && names.count(t[k].text)) return true;
  return false;
}

struct Ctx {
  const std::string* path;
  const Tokens* tokens;
  const std::map<int, std::set<std::string>>* allow;
  std::vector<Finding>* findings;
  bool in_bench = false;
  bool in_obs = false;

  void report(std::size_t tok_index, const std::string& rule,
              const std::string& message) {
    const int line = (*tokens)[tok_index].line;
    auto it = allow->find(line);
    if (it != allow->end() && it->second.count(rule)) return;
    findings->push_back({*path, line, rule, message});
  }
};

// ---------------------------------------------------------------------------
// Rule: wall-clock
// ---------------------------------------------------------------------------

void rule_wall_clock(Ctx& ctx) {
  if (ctx.in_bench) return;  // timing benches legitimately read clocks
  // src/obs/ is the sanctioned wall-clock site in the library: ProfZone
  // timings live strictly in the wall-clock domain (never feed results or
  // digests), and concentrating the carve-out in one directory keeps the
  // rest of src/ under the rule.
  if (ctx.in_obs) return;
  const Tokens& t = *ctx.tokens;
  static const std::set<std::string> kClockTypes = {
      "steady_clock", "system_clock", "high_resolution_clock", "utc_clock",
      "file_clock", "tai_clock", "gps_clock"};
  static const std::set<std::string> kBannedCalls = {
      "rand", "srand", "time", "clock", "gettimeofday", "clock_gettime",
      "getentropy", "rand_r", "drand48", "lrand48", "srand48"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "random_device") {
      ctx.report(i, "wall-clock",
                 "std::random_device is an entropy source; derive seeds from "
                 "core::trial_seed / the run config instead");
      continue;
    }
    if (kClockTypes.count(s)) {
      ctx.report(i, "wall-clock",
                 "wall-clock source `" + s +
                     "` outside bench/ or src/obs/; simulated time must "
                     "come from the event queue");
      continue;
    }
    if (kBannedCalls.count(s) && is(t, i + 1, "(")) {
      // Skip member accesses (obj.time(...)) — different function entirely.
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
      // Skip declarator positions (`CVec time(begin, end)` declares a local
      // named `time`): preceded by a type-ish token. A qualified call
      // (`std::time(`) keeps `::` as the previous token, and a keyword
      // before the name (`return rand();`) is not a declarator.
      static const std::set<std::string> kStmtKeywords = {
          "return", "co_return", "co_yield", "case", "else", "do", "while",
          "if", "for", "switch", "throw"};
      if (i > 0 &&
          ((t[i - 1].kind == Kind::kIdent &&
            !kStmtKeywords.count(t[i - 1].text)) ||
           t[i - 1].text == ">" || t[i - 1].text == "&" ||
           t[i - 1].text == "*"))
        continue;
      ctx.report(i, "wall-clock",
                 "call to `" + s +
                     "` outside bench/ or src/obs/ (wall-clock / libc "
                     "entropy source)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: rng-seed
// ---------------------------------------------------------------------------

void rule_rng_seed(Ctx& ctx) {
  const Tokens& t = *ctx.tokens;
  static const std::set<std::string> kStdEngines = {
      "mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
      "default_random_engine", "ranlux24", "ranlux48", "ranlux24_base",
      "ranlux48_base", "knuth_b"};
  static const std::set<std::string> kStdDists = {
      "uniform_int_distribution", "uniform_real_distribution",
      "normal_distribution", "bernoulli_distribution", "poisson_distribution",
      "exponential_distribution", "discrete_distribution"};
  // A seed expression is compliant when it flows through the substream
  // scheme (DESIGN.md): counter-mixed via one of these.
  static const std::set<std::string> kApproved = {
      "trial_seed", "entity_stream", "impairment_substream", "splitmix64"};
  // Type keywords inside the parens mean we are looking at a constructor
  // *declaration*, not a construction.
  static const std::set<std::string> kTypeWords = {
      "uint64_t", "uint32_t", "size_t", "int", "long", "unsigned", "short",
      "char", "auto", "uint_fast64_t"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (kStdEngines.count(s)) {
      ctx.report(i, "rng-seed",
                 "std::" + s +
                     " is not stream-portable across platforms; use "
                     "dsp::Xoshiro256 seeded via the substream scheme");
      continue;
    }
    if (kStdDists.count(s)) {
      ctx.report(i, "rng-seed",
                 "std::" + s +
                     " has implementation-defined output; use the "
                     "dsp::Xoshiro256 draw helpers");
      continue;
    }
    if (s != "Xoshiro256") continue;
    if (i > 0 && (t[i - 1].text == "explicit" || t[i - 1].text == "~" ||
                  t[i - 1].text == "class" || t[i - 1].text == "struct"))
      continue;  // the engine's own definition
    // Find the argument list: `Xoshiro256(expr)` or `Xoshiro256 name(expr)`
    // / `Xoshiro256 name{expr}`.
    std::size_t open = t.size();
    if (is(t, i + 1, "(") || is(t, i + 1, "{")) {
      open = i + 1;
    } else if (is_ident(t, i + 1) && (is(t, i + 2, "(") || is(t, i + 2, "{"))) {
      open = i + 2;
    } else {
      continue;  // reference/parameter declaration, member without init, ...
    }
    const std::size_t close = match(t, open);
    if (close == t.size()) continue;
    if (close == open + 1) continue;  // empty parens: declaration-ish
    bool approved = false;
    bool declaration = false;
    bool has_ident = false;
    for (std::size_t k = open + 1; k < close; ++k) {
      if (t[k].kind != Kind::kIdent) continue;
      has_ident = true;
      if (kApproved.count(t[k].text)) approved = true;
      if (kTypeWords.count(t[k].text)) declaration = true;
    }
    // A pure literal seed (`Xoshiro256 rng(42)`) pins a deterministic root
    // stream explicitly — the test/demo idiom — and is allowed; only
    // runtime-derived ad-hoc seeds can collide across modules.
    if (declaration || approved || !has_ident) continue;
    ctx.report(i, "rng-seed",
               "Xoshiro256 seeded outside the substream scheme; derive the "
               "seed via core::trial_seed / sim::entity_stream / "
               "channel::impairment_substream / dsp::splitmix64 domain mix");
  }
}

// ---------------------------------------------------------------------------
// Rule: unordered-iter
// ---------------------------------------------------------------------------

void rule_unordered_iter(Ctx& ctx) {
  const Tokens& t = *ctx.tokens;
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Pass 1: collect names of variables (and type aliases) with unordered
  // type in this file.
  std::set<std::string> unordered_types = kUnordered;
  std::set<std::string> vars;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent || !unordered_types.count(t[i].text))
      continue;
    std::size_t after = i + 1;
    if (is(t, after, "<")) {
      const std::size_t close = match(t, after);
      if (close == t.size()) continue;
      after = close + 1;
    }
    // `const std::unordered_map<...>& stats` — skip cv/ref/ptr tokens
    // between the type and the declared name.
    while (after < t.size() &&
           (t[after].text == "&" || t[after].text == "*" ||
            t[after].text == "&&" || t[after].text == "const"))
      ++after;
    // `using Alias = std::unordered_map<...>;` — walk back for the alias.
    if (i >= 2 && kUnordered.count(t[i].text)) {
      for (std::size_t back = i; back-- > 0 && t[back].text != ";" &&
                                 t[back].text != "}" && t[back].text != "{";) {
        if (t[back].text == "=" && back >= 2 && t[back - 2].text == "using" &&
            is_ident(t, back - 1)) {
          unordered_types.insert(t[back - 1].text);
          break;
        }
      }
    }
    if (is_ident(t, after)) vars.insert(t[after].text);
  }
  if (vars.empty()) return;

  // Pass 2: flag range-for over those variables and explicit .begin() walks.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "for" && is(t, i + 1, "(")) {
      const std::size_t close = match(t, i + 1);
      // Find the range-for ':' at depth 1.
      int depth = 0;
      std::size_t colon = t.size();
      for (std::size_t k = i + 1; k < close; ++k) {
        if (t[k].text == "(" || t[k].text == "[" || t[k].text == "{") ++depth;
        if (t[k].text == ")" || t[k].text == "]" || t[k].text == "}") --depth;
        if (t[k].text == ":" && depth == 1) {
          colon = k;
          break;
        }
      }
      if (colon != t.size() &&
          range_contains_ident(t, colon + 1, close, vars)) {
        ctx.report(i, "unordered-iter",
                   "iteration over an unordered container: traversal order "
                   "is unspecified and leaks into stats/digests; use a "
                   "sorted copy or an ordered container");
      }
    }
    if (t[i].kind == Kind::kIdent && vars.count(t[i].text) &&
        (is(t, i + 1, ".") || is(t, i + 1, "->")) &&
        (is(t, i + 2, "begin") || is(t, i + 2, "cbegin"))) {
      ctx.report(i, "unordered-iter",
                 "explicit iterator walk over an unordered container: "
                 "traversal order is unspecified and leaks into "
                 "stats/digests");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: ptr-order
// ---------------------------------------------------------------------------

void rule_ptr_order(Ctx& ctx) {
  const Tokens& t = *ctx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if ((s == "hash" || s == "less" || s == "greater") && is(t, i + 1, "<")) {
      const std::size_t close = match(t, i + 1);
      if (close == t.size()) continue;
      int depth = 0;
      bool ptr_arg = false;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (t[k].text == "<") ++depth;
        if (t[k].text == ">") --depth;
        if (t[k].text == ">>") depth -= 2;
        if (t[k].text == "*" && depth == 1 && k + 1 <= close &&
            (t[k + 1].text == ">" || t[k + 1].text == ">>" ||
             t[k + 1].text == ","))
          ptr_arg = true;
      }
      if (ptr_arg) {
        ctx.report(i, "ptr-order",
                   "std::" + s +
                       " over a pointer type orders/hashes by address, "
                       "which varies run to run; key on a stable id");
      }
    }
    if (s == "reinterpret_cast" && is(t, i + 1, "<")) {
      const std::size_t close = match(t, i + 1);
      if (range_contains_ident(t, i + 2, close,
                               {"uintptr_t", "intptr_t"})) {
        ctx.report(i, "ptr-order",
                   "pointer-to-integer cast: address values are "
                   "allocation-dependent and must not reach results, "
                   "hashes, or orderings");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: parallel-capture
// ---------------------------------------------------------------------------

/// Collects identifiers declared inside [b, e): declarator positions, lambda
/// params handled by the caller, range-for bindings, structured bindings.
std::set<std::string> collect_locals(const Tokens& t, std::size_t b,
                                     std::size_t e) {
  std::set<std::string> locals;
  static const std::set<std::string> kNotTypes = {
      "return", "delete", "new",    "else",   "case",  "goto",
      "break",  "continue", "throw", "sizeof", "co_return"};
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != Kind::kIdent) continue;
    // `auto [a, b] = ...` structured bindings.
    if (t[i].text == "auto" && is(t, i + 1, "[")) {
      const std::size_t close = match(t, i + 1);
      for (std::size_t k = i + 2; k < close; ++k)
        if (t[k].kind == Kind::kIdent) locals.insert(t[k].text);
      continue;
    }
    if (i == b) continue;
    const Token& prev = t[i - 1];
    const bool declarator_prev =
        (prev.kind == Kind::kIdent && !kNotTypes.count(prev.text)) ||
        prev.text == "&" || prev.text == "*" || prev.text == ">" ||
        prev.text == "&&";
    if (!declarator_prev) continue;
    // `&` / `*` / `>` must themselves follow a type-ish token, otherwise
    // `a & b` would register b as declared.
    if (prev.kind == Kind::kPunct && i >= 2) {
      const Token& pp = t[i - 2];
      if (!(pp.kind == Kind::kIdent || pp.text == ">" || pp.text == "&" ||
            pp.text == "*"))
        continue;
    }
    const std::string& next = i + 1 < e ? t[i + 1].text : "";
    if (next == "=" || next == ";" || next == "{" || next == "(" ||
        next == ":" || next == ",") {
      // Heed the `a == b` case: `=` token is distinct from `==` already.
      locals.insert(t[i].text);
    }
  }
  return locals;
}

/// Walks left from `i` (exclusive) over a postfix chain (`a.b[c]->d`) and
/// returns the base identifier index, or size() when unresolvable. Appends
/// the token range of every [..] index expression to `index_ranges`.
std::size_t chain_base(const Tokens& t, std::size_t i, std::size_t lo,
                       std::vector<std::pair<std::size_t, std::size_t>>*
                           index_ranges) {
  std::size_t k = i;
  std::size_t base = t.size();
  while (k > lo) {
    const std::string& x = t[k - 1].text;
    if (x == "]") {
      // Find the matching '['.
      int depth = 0;
      std::size_t open = k - 1;
      while (open > lo) {
        if (t[open].text == "]") ++depth;
        if (t[open].text == "[") {
          --depth;
          if (depth == 0) break;
        }
        --open;
      }
      index_ranges->push_back({open + 1, k - 1});
      k = open;
      continue;
    }
    if (x == ")" ) {
      int depth = 0;
      std::size_t open = k - 1;
      while (open > lo) {
        if (t[open].text == ")") ++depth;
        if (t[open].text == "(") {
          --depth;
          if (depth == 0) break;
        }
        --open;
      }
      k = open;
      continue;
    }
    if (t[k - 1].kind == Kind::kIdent) {
      base = k - 1;
      // Keep walking only across member access.
      if (k - 1 > lo && (t[k - 2].text == "." || t[k - 2].text == "->" ||
                         t[k - 2].text == "::")) {
        k -= 2;
        continue;
      }
      return base;
    }
    return t.size();
  }
  return base;
}

void rule_parallel_capture(Ctx& ctx) {
  const Tokens& t = *ctx.tokens;
  static const std::set<std::string> kAssign = {
      "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
      "++", "--"};
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "pop_back", "insert", "erase", "clear",
      "resize", "assign", "emplace", "reserve"};

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "parallel_for" || !is(t, i + 1, "(")) continue;
    const std::size_t call_end = match(t, i + 1);
    if (call_end == t.size()) continue;
    // Locate the lambda: first '[' inside the argument list.
    std::size_t lb = t.size();
    for (std::size_t k = i + 2; k < call_end; ++k) {
      if (t[k].text == "[") {
        lb = k;
        break;
      }
    }
    if (lb == t.size()) continue;
    const std::size_t lb_end = match(t, lb);
    if (lb_end == t.size()) continue;
    bool by_ref = false;
    for (std::size_t k = lb + 1; k < lb_end; ++k)
      if (t[k].text == "&" || t[k].text == "&&") by_ref = true;
    if (!by_ref) continue;  // by-value captures cannot race

    std::set<std::string> locals;
    std::size_t body_open = lb_end + 1;
    if (is(t, body_open, "(")) {
      const std::size_t pe = match(t, body_open);
      // Parameter names: identifier right before each ',' or the ')'.
      for (std::size_t k = body_open + 1; k <= pe && k < t.size(); ++k) {
        if ((t[k].text == "," || k == pe) && is_ident(t, k - 1))
          locals.insert(t[k - 1].text);
      }
      body_open = pe + 1;
    }
    while (body_open < t.size() && t[body_open].text != "{") ++body_open;
    const std::size_t body_end = match(t, body_open);
    if (body_end == t.size()) continue;

    // Mutex discipline anywhere in the body: assume the author knows what
    // they are doing (the runtime digest tests still guard the result).
    if (range_contains_ident(t, body_open, body_end,
                             {"lock_guard", "scoped_lock", "unique_lock"}))
      continue;

    auto body_locals = collect_locals(t, body_open + 1, body_end);
    locals.insert(body_locals.begin(), body_locals.end());

    auto is_safe_target = [&](std::size_t op) -> bool {
      std::vector<std::pair<std::size_t, std::size_t>> idx;
      const std::size_t base = chain_base(t, op, body_open, &idx);
      if (base == t.size()) return true;  // unresolvable: stay quiet
      if (locals.count(t[base].text)) return true;
      // Per-slot pattern: any index expression mentions a lambda-local
      // (e.g. results[i] = ..., shard_stats[si].n += 1).
      for (const auto& r : idx)
        if (range_contains_ident(t, r.first, r.second + 1, locals))
          return true;
      return false;
    };

    for (std::size_t k = body_open + 1; k < body_end; ++k) {
      if (t[k].kind == Kind::kPunct && kAssign.count(t[k].text)) {
        const bool incdec = t[k].text == "++" || t[k].text == "--";
        // Prefix ++/--: an identifier directly after the operator can only
        // be its operand (`x++ y` does not parse), so `if (c) ++x;` is
        // prefix even though `)` precedes the operator.
        if (incdec && is_ident(t, k + 1)) {
          std::size_t base = k + 1;
          bool safe = locals.count(t[base].text) > 0;
          // `++arr[i]` / `++slots[si].n`: per-slot indices make it safe.
          std::size_t m = base + 1;
          while (!safe && m < body_end) {
            if (t[m].text == "[") {
              const std::size_t ce = match(t, m);
              if (range_contains_ident(t, m + 1, ce, locals)) safe = true;
              m = ce + 1;
            } else if (t[m].text == "." || t[m].text == "->") {
              m += 2;
            } else {
              break;
            }
          }
          if (!safe) {
            ctx.report(k, "parallel-capture",
                       "`" + t[base].text +
                           "` is mutated through a by-reference capture "
                           "inside a parallel_for body without a per-slot "
                           "index, atomic, or lock");
          }
          continue;
        }
        // Assignment / postfix ++/--: target chain ends before the operator.
        if (k == body_open + 1) continue;
        if (incdec && !(is_ident(t, k - 1) || t[k - 1].text == "]" ||
                        t[k - 1].text == ")"))
          continue;  // ++ with no resolvable target on either side
        if (!is_safe_target(k)) {
          std::vector<std::pair<std::size_t, std::size_t>> idx;
          const std::size_t base = chain_base(t, k, body_open, &idx);
          const std::string name =
              base != t.size() ? t[base].text : std::string("<expr>");
          ctx.report(k, "parallel-capture",
                     "`" + name +
                         "` is mutated through a by-reference capture inside "
                         "a parallel_for body without a per-slot index, "
                         "atomic, or lock");
        }
        continue;
      }
      // Mutating container calls: chain . mutator (
      if (t[k].kind == Kind::kIdent && kMutators.count(t[k].text) &&
          is(t, k + 1, "(") && k > body_open + 1 &&
          (t[k - 1].text == "." || t[k - 1].text == "->")) {
        if (!is_safe_target(k - 1)) {
          std::vector<std::pair<std::size_t, std::size_t>> idx;
          const std::size_t base = chain_base(t, k - 1, body_open, &idx);
          const std::string name =
              base != t.size() ? t[base].text : std::string("<expr>");
          ctx.report(k, "parallel-capture",
                     "`" + name + "." + t[k].text +
                         "` mutates a by-reference capture inside a "
                         "parallel_for body without a per-slot index, "
                         "atomic, or lock");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: simd-intrinsics
// ---------------------------------------------------------------------------

/// Raw vector intrinsics are banned everywhere. The PHY kernels are written
/// once as plain loops (src/dsp/simd/kernels_spec.h) and the compiler
/// vectorises them for the AVX2 table, so bit-identity across dispatch
/// levels follows from IEEE semantics. A hand-written intrinsic would be a
/// second body that only a parity test could keep in step, and outside the
/// kernel table the forced-scalar CI leg could not disable it.
void rule_simd_intrinsics(Ctx& ctx) {
  const Tokens& t = *ctx.tokens;
  static const std::set<std::string> kIntrinHeaders = {
      "immintrin", "emmintrin", "xmmintrin", "pmmintrin", "tmmintrin",
      "smmintrin", "nmmintrin", "wmmintrin", "avxintrin", "avx2intrin",
      "x86intrin", "arm_neon", "arm_sve"};
  // NEON intrinsics end in an element-type suffix (vaddq_f64, vld1q_u32...).
  static const std::set<std::string> kNeonSuffixes = {
      "_f16", "_f32", "_f64", "_s8",  "_s16", "_s32", "_s64",
      "_u8",  "_u16", "_u32", "_u64", "_p8",  "_p16", "_p64"};
  auto has_neon_suffix = [&](const std::string& s) {
    for (const std::string& suf : kNeonSuffixes) {
      if (s.size() > suf.size() &&
          s.compare(s.size() - suf.size(), suf.size(), suf) == 0)
        return true;
    }
    return false;
  };
  auto is_neon_vector_type = [](const std::string& s) {
    // float64x2_t / int32x4_t / uint8x16_t / poly64x2_t shapes.
    static const char* const kPrefixes[] = {"float", "int",  "uint",
                                            "poly"};
    for (const char* p : kPrefixes) {
      const std::size_t len = std::char_traits<char>::length(p);
      if (s.compare(0, len, p) == 0 && s.size() > len + 3 &&
          s.find('x', len) != std::string::npos &&
          s.compare(s.size() - 2, 2, "_t") == 0 &&
          std::isdigit(static_cast<unsigned char>(s[len])))
        return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::kIdent) continue;
    const std::string& s = t[i].text;
    if (kIntrinHeaders.count(s)) {
      ctx.report(i, "simd-intrinsics",
                 "vector-intrinsics header <" + s +
                     ".h>; write the loop once in dsp/simd/kernels_spec.h "
                     "and let the compiler vectorise it");
      continue;
    }
    // x86: _mm_/_mm256_/_mm512_ calls and __m128/__m256/__m512 types.
    if (s.rfind("_mm", 0) == 0 || s.rfind("__m128", 0) == 0 ||
        s.rfind("__m256", 0) == 0 || s.rfind("__m512", 0) == 0) {
      ctx.report(i, "simd-intrinsics",
                 "x86 intrinsic `" + s +
                     "`; add a plain-loop kernel-table entry in "
                     "dsp/simd/kernels_spec.h instead");
      continue;
    }
    // NEON: v...q_<elem>( calls and <base><bits>x<lanes>_t vector types.
    if (is_neon_vector_type(s) ||
        (s.size() > 2 && s[0] == 'v' && has_neon_suffix(s) &&
         is(t, i + 1, "("))) {
      ctx.report(i, "simd-intrinsics",
                 "NEON intrinsic `" + s +
                     "`; add a plain-loop kernel-table entry in "
                     "dsp/simd/kernels_spec.h instead");
    }
  }
}

bool path_in_bench(const std::string& path) {
  return path.find("/bench/") != std::string::npos ||
         path.rfind("bench/", 0) == 0;
}

bool path_in_obs(const std::string& path) {
  return path.find("src/obs/") != std::string::npos;
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "wall-clock", "rng-seed", "unordered-iter", "ptr-order",
      "parallel-capture", "simd-intrinsics"};
  return kIds;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& content) {
  LexResult lexed = lex(content);
  std::vector<Finding> findings;
  Ctx ctx;
  ctx.path = &path;
  ctx.tokens = &lexed.tokens;
  ctx.allow = &lexed.allow;
  ctx.findings = &findings;
  ctx.in_bench = path_in_bench(path);
  ctx.in_obs = path_in_obs(path);
  rule_wall_clock(ctx);
  rule_rng_seed(ctx);
  rule_unordered_iter(ctx);
  rule_ptr_order(ctx);
  rule_parallel_capture(ctx);
  rule_simd_intrinsics(ctx);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path, bool* io_error) {
  if (io_error) *io_error = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (io_error) *io_error = true;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path, ss.str());
}

bool is_cpp_source(const std::string& path) {
  for (const char* ext : {".cpp", ".cc", ".cxx", ".h", ".hpp"}) {
    const std::size_t len = std::char_traits<char>::length(ext);
    if (path.size() >= len &&
        path.compare(path.size() - len, len, ext) == 0)
      return true;
  }
  return false;
}

}  // namespace detlint
