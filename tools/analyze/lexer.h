#ifndef SNOR_TOOLS_ANALYZE_LEXER_H_
#define SNOR_TOOLS_ANALYZE_LEXER_H_

// C++ tokenizer for snor_analyze (see snor_analyze.cc for the rule
// catalog), kept apart from the checks that consume its token stream.
//
// The lexer understands comments, raw strings, char/string literals
// (including user-defined literal suffixes), digit separators (1'000),
// and preprocessor directives — directives are consumed whole, honouring
// backslash continuations (even with trailing blanks or \r before the
// newline) and block comments inside the directive body, so macro bodies
// never leak tokens into the analyzed stream.

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace snor_analyze {

// Markers are assembled at runtime so the analyzer's own source never
// contains the literal annotation text (it scans tools/ too).
extern const std::string kGuardedByMarker;   // "GUARDED" "_BY("
extern const std::string kExpectMarker;      // "EXPECT" "-ANALYZE:"
extern const std::string kAnalyzeAsMarker;   // "ANALYZE" "-AS:"
extern const std::string kNolintNextMarker;  // "NOLINT" "NEXTLINE"
extern const std::string kNolintMarker;      // "NOLINT"

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (rule != o.rule) return rule < o.rule;
    return message < o.message;
  }
};

enum class Tok { kIdent, kNumber, kString, kChar, kPunct, kComment };

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  int line = 1;
};

bool IsIdentStart(char c);
bool IsIdentChar(char c);

struct IncludeDirective {
  std::string path;  // The quoted include path, verbatim.
  int line = 1;
};

/// One analyzed translation unit (or header).
struct SourceFile {
  std::string path;       // Virtual path used by path-scoped analyses.
  std::string real_path;  // Path on disk.
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  // line -> suppressed rules; empty set = all rules suppressed.
  std::map<int, std::set<std::string>> nolint;

  bool IsHeader() const {
    return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
  }

  bool Suppressed(int line, const std::string& rule) const {
    auto it = nolint.find(line);
    if (it == nolint.end()) return false;
    return it->second.empty() || it->second.count(rule) > 0;
  }
};

/// Tokenizes C++ source. Preprocessor directives are consumed whole
/// (including backslash continuations) and never emit tokens; #include
/// "..." directives are recorded separately. Comments ARE emitted as
/// tokens so annotation/suppression parsing never confuses a comment
/// with a string literal.
class Lexer {
 public:
  explicit Lexer(std::string text);

  void Run(SourceFile* out);

 private:
  char Peek(std::size_t ahead) const;
  bool PrevIsIdentChar() const;
  void Emit(SourceFile* out, Tok kind, std::string text, int line);
  void ConsumeLiteralSuffix();
  void LexDirective(SourceFile* out);
  void LexLineComment(SourceFile* out);
  void LexBlockComment(SourceFile* out);
  void LexRawString(SourceFile* out);
  void LexString(SourceFile* out);
  void LexChar(SourceFile* out);
  void LexIdent(SourceFile* out);
  void LexNumber(SourceFile* out);
  void LexPunct(SourceFile* out);

  std::string text_;
  std::size_t i_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
};

// Parses NOLINT / NOLINTNEXTLINE directives out of comment tokens.
void CollectNolint(SourceFile* file);

// Reads and tokenizes `disk_path`, honouring an ANALYZE-AS virtual path
// in an early comment.
[[nodiscard]] bool LoadFile(const std::filesystem::path& disk_path,
                            SourceFile* out);

}  // namespace snor_analyze

#endif  // SNOR_TOOLS_ANALYZE_LEXER_H_
