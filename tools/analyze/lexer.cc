#include "lexer.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace snor_analyze {

namespace fs = std::filesystem;

const std::string kGuardedByMarker = std::string("GUARDED") + "_BY(";
const std::string kLockRankMarker = std::string("LOCK") + "_RANK(";
const std::string kExpectMarker = std::string("EXPECT") + "-ANALYZE:";
const std::string kAnalyzeAsMarker = std::string("ANALYZE") + "-AS:";
const std::string kNolintNextMarker = std::string("NOLINT") + "NEXTLINE";
const std::string kNolintMarker = "NOLINT";

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

namespace {

// Two-character punctuators the analyses care about. Longer operators
// (`<<=`, `...`) are irrelevant here and lex as two tokens.
bool IsTwoCharPunct(char a, char b) {
  static const char* kPairs[] = {"::", "->", "++", "--", "==", "!=", "<=",
                                 ">=", "+=", "-=", "*=", "/=", "%=", "&=",
                                 "|=", "^=", "&&", "||", "<<", ">>"};
  for (const char* p : kPairs) {
    if (p[0] == a && p[1] == b) return true;
  }
  return false;
}

}  // namespace

Lexer::Lexer(std::string text) : text_(std::move(text)) {}

void Lexer::Run(SourceFile* out) {
  while (i_ < text_.size()) {
    const char c = text_[i_];
    if (c == '\n') {
      ++line_;
      at_line_start_ = true;
      ++i_;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i_;
      continue;
    }
    if (c == '#' && at_line_start_) {
      LexDirective(out);
      continue;
    }
    at_line_start_ = false;
    if (c == '/' && Peek(1) == '/') {
      LexLineComment(out);
      continue;
    }
    if (c == '/' && Peek(1) == '*') {
      LexBlockComment(out);
      continue;
    }
    if (c == 'R' && Peek(1) == '"' && !PrevIsIdentChar()) {
      LexRawString(out);
      continue;
    }
    if (c == '"') {
      LexString(out);
      continue;
    }
    if (c == '\'') {
      LexChar(out);
      continue;
    }
    if (IsIdentStart(c)) {
      LexIdent(out);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      LexNumber(out);
      continue;
    }
    LexPunct(out);
  }
}

char Lexer::Peek(std::size_t ahead) const {
  return i_ + ahead < text_.size() ? text_[i_ + ahead] : '\0';
}

bool Lexer::PrevIsIdentChar() const {
  return i_ > 0 && IsIdentChar(text_[i_ - 1]);
}

void Lexer::Emit(SourceFile* out, Tok kind, std::string text, int line) {
  out->tokens.push_back({kind, std::move(text), line});
}

// A user-defined literal suffix ("batch"s, 10ms-style string/char forms)
// binds to the literal; left in the stream it would surface as a phantom
// identifier and collide with tracked variable names.
void Lexer::ConsumeLiteralSuffix() {
  if (i_ < text_.size() && IsIdentStart(text_[i_])) {
    while (i_ < text_.size() && IsIdentChar(text_[i_])) ++i_;
  }
}

// Consumes a whole preprocessor directive (with \-continuations),
// recording #include "..." paths. Angle-bracket system includes are
// outside the project graph and are skipped. A continuation backslash
// may be followed by blanks or a \r before the newline (editors leave
// them; the compiler still continues the line), and block comments
// inside the directive body must not hide a continuation.
void Lexer::LexDirective(SourceFile* out) {
  const int start_line = line_;
  std::string body;
  while (i_ < text_.size()) {
    const char c = text_[i_];
    if (c == '\n') {
      const std::size_t last = body.find_last_not_of(" \t\r");
      if (last != std::string::npos && body[last] == '\\') {
        body.erase(last);
        ++line_;
        ++i_;
        continue;
      }
      break;  // Newline stays for the main loop to count.
    }
    // A trailing // comment is lexed normally so NOLINT directives on
    // include lines still register.
    if (c == '/' && Peek(1) == '/') {
      LexLineComment(out);
      break;
    }
    if (c == '/' && Peek(1) == '*') {
      LexBlockComment(out);
      body.push_back(' ');
      continue;
    }
    body.push_back(c);
    ++i_;
  }
  std::size_t p = body.find_first_not_of("# \t");
  if (p == std::string::npos) return;
  if (body.compare(p, 7, "include") != 0) return;
  const std::size_t open = body.find('"', p + 7);
  if (open == std::string::npos) return;
  const std::size_t close = body.find('"', open + 1);
  if (close == std::string::npos) return;
  out->includes.push_back(
      {body.substr(open + 1, close - open - 1), start_line});
}

void Lexer::LexLineComment(SourceFile* out) {
  const int start_line = line_;
  std::string text;
  while (i_ < text_.size() && text_[i_] != '\n') {
    text.push_back(text_[i_]);
    ++i_;
  }
  Emit(out, Tok::kComment, std::move(text), start_line);
}

void Lexer::LexBlockComment(SourceFile* out) {
  const int start_line = line_;
  std::string text;
  i_ += 2;
  text += "/*";
  while (i_ < text_.size()) {
    if (text_[i_] == '*' && Peek(1) == '/') {
      i_ += 2;
      text += "*/";
      break;
    }
    if (text_[i_] == '\n') ++line_;
    text.push_back(text_[i_]);
    ++i_;
  }
  Emit(out, Tok::kComment, std::move(text), start_line);
}

void Lexer::LexRawString(SourceFile* out) {
  const int start_line = line_;
  std::size_t open = text_.find('(', i_ + 2);
  if (open == std::string::npos) {
    i_ = text_.size();
    return;
  }
  // Built with append() rather than operator+: GCC 12's -Wrestrict emits a
  // bogus "accessing 9223372036854775810 bytes" diagnostic when it inlines
  // operator+(const char*, basic_string&&) here, which is fatal under the
  // -Werror check preset.
  std::string delim = ")";
  delim.append(text_, i_ + 2, open - i_ - 2);
  delim.push_back('"');
  std::size_t end = text_.find(delim, open + 1);
  if (end == std::string::npos) end = text_.size();
  for (std::size_t j = i_; j < end && j < text_.size(); ++j) {
    if (text_[j] == '\n') ++line_;
  }
  i_ = std::min(end + delim.size(), text_.size());
  ConsumeLiteralSuffix();
  Emit(out, Tok::kString, "", start_line);
}

void Lexer::LexString(SourceFile* out) {
  const int start_line = line_;
  ++i_;
  while (i_ < text_.size() && text_[i_] != '"') {
    if (text_[i_] == '\\') ++i_;
    if (i_ < text_.size() && text_[i_] == '\n') ++line_;
    ++i_;
  }
  if (i_ < text_.size()) ++i_;  // Closing quote.
  ConsumeLiteralSuffix();
  Emit(out, Tok::kString, "", start_line);
}

void Lexer::LexChar(SourceFile* out) {
  const int start_line = line_;
  ++i_;
  while (i_ < text_.size() && text_[i_] != '\'') {
    if (text_[i_] == '\\') ++i_;
    ++i_;
  }
  if (i_ < text_.size()) ++i_;
  ConsumeLiteralSuffix();
  Emit(out, Tok::kChar, "", start_line);
}

void Lexer::LexIdent(SourceFile* out) {
  const int start_line = line_;
  std::string text;
  while (i_ < text_.size() && IsIdentChar(text_[i_])) {
    text.push_back(text_[i_]);
    ++i_;
  }
  // String literal prefixes (u8"...", L"...") would mis-lex the quote.
  if (i_ < text_.size() && text_[i_] == '"') {
    LexString(out);
    return;
  }
  Emit(out, Tok::kIdent, std::move(text), start_line);
}

void Lexer::LexNumber(SourceFile* out) {
  const int start_line = line_;
  std::string text;
  while (i_ < text_.size()) {
    const char c = text_[i_];
    // A digit separator (1'000'000) is part of the number; without this
    // the `'` would open a bogus char literal and eat real code.
    if (c == '\'' && IsIdentChar(Peek(1))) {
      ++i_;
      continue;
    }
    if (IsIdentChar(c) || c == '.' ||
        ((c == '+' || c == '-') && i_ > 0 &&
         (text_[i_ - 1] == 'e' || text_[i_ - 1] == 'E'))) {
      text.push_back(c);
      ++i_;
      continue;
    }
    break;
  }
  Emit(out, Tok::kNumber, std::move(text), start_line);
}

void Lexer::LexPunct(SourceFile* out) {
  const int start_line = line_;
  if (i_ + 1 < text_.size() && IsTwoCharPunct(text_[i_], text_[i_ + 1])) {
    Emit(out, Tok::kPunct, text_.substr(i_, 2), start_line);
    i_ += 2;
    return;
  }
  Emit(out, Tok::kPunct, std::string(1, text_[i_]), start_line);
  ++i_;
}

void CollectNolint(SourceFile* file) {
  for (const Token& tok : file->tokens) {
    if (tok.kind != Tok::kComment) continue;
    const std::string& text = tok.text;
    const bool next_line = text.find(kNolintNextMarker) != std::string::npos;
    const std::size_t pos = text.find(kNolintMarker);
    if (pos == std::string::npos) continue;
    std::set<std::string> rules;
    std::size_t after =
        pos + (next_line ? kNolintNextMarker.size() : kNolintMarker.size());
    if (after < text.size() && text[after] == '(') {
      const std::size_t close = text.find(')', after);
      if (close != std::string::npos) {
        std::stringstream ss(text.substr(after + 1, close - after - 1));
        std::string rule;
        while (std::getline(ss, rule, ',')) {
          rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                     rule.end());
          if (!rule.empty()) rules.insert(rule);
        }
      }
    }
    const int target = tok.line + (next_line ? 1 : 0);
    auto it = file->nolint.find(target);
    if (rules.empty()) {
      file->nolint[target].clear();  // Bare NOLINT: suppress everything.
    } else if (it == file->nolint.end()) {
      file->nolint[target] = std::move(rules);
    } else if (!it->second.empty()) {
      it->second.insert(rules.begin(), rules.end());
    }
  }
}

bool LoadFile(const fs::path& disk_path, SourceFile* out) {
  std::ifstream in(disk_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out->real_path = disk_path.generic_string();
  out->path = out->real_path;
  Lexer(buffer.str()).Run(out);
  // Honour an ANALYZE-AS virtual path in an early comment (fixtures use
  // it to exercise the path-scoped analyses).
  for (const Token& tok : out->tokens) {
    if (tok.line > 5) break;
    if (tok.kind != Tok::kComment) continue;
    const std::size_t pos = tok.text.find(kAnalyzeAsMarker);
    if (pos == std::string::npos) continue;
    std::size_t s = pos + kAnalyzeAsMarker.size();
    while (s < tok.text.size() &&
           std::isspace(static_cast<unsigned char>(tok.text[s])) != 0) {
      ++s;
    }
    std::size_t e = s;
    while (e < tok.text.size() &&
           std::isspace(static_cast<unsigned char>(tok.text[e])) == 0) {
      ++e;
    }
    if (e > s) out->path = tok.text.substr(s, e - s);
  }
  CollectNolint(out);
  return true;
}

}  // namespace snor_analyze
