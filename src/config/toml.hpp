#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

/// Minimal TOML-subset reader/writer for the declarative experiment API.
///
/// Supported surface (everything comet config documents need, nothing
/// more): `#` comments, `[section.path]` tables, `[[section.path]]`
/// arrays of tables, and `key = value` pairs with string, integer,
/// float, boolean and single-line array values. Dates, inline tables,
/// dotted keys and multi-line strings are rejected with a diagnostic.
///
/// Diagnostics follow the TraceFileSource style: every error — at parse
/// time or later, when a schema reader rejects a key — is a ParseError
/// carrying the source label and 1-based line number, formatted as
/// `file.toml:12: message`. Each parsed Value and Table remembers the
/// line it came from so semantic errors stay anchored to the document.
namespace comet::config::toml {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& source, std::uint64_t line,
             const std::string& message)
      : std::runtime_error(format(source, line, message)),
        source_(source),
        line_(line),
        message_(message) {}

  const std::string& source() const { return source_; }
  std::uint64_t line() const { return line_; }
  /// The diagnostic without its `source:line: ` prefix.
  const std::string& message() const { return message_; }

 private:
  static std::string format(const std::string& source, std::uint64_t line,
                            const std::string& message) {
    std::string out = source;
    if (line) {
      out += ':';
      out += std::to_string(line);
    }
    out += ": ";
    out += message;
    return out;
  }

  std::string source_;
  std::uint64_t line_;
  std::string message_;
};

struct Value {
  enum class Type { kString, kInteger, kFloat, kBoolean, kArray };

  Type type = Type::kString;
  std::string str;               ///< kString.
  std::int64_t integer = 0;      ///< kInteger.
  double number = 0.0;           ///< kFloat (and kInteger, widened).
  bool boolean = false;          ///< kBoolean.
  std::vector<Value> array;      ///< kArray.
  std::uint64_t line = 0;        ///< 1-based source line.

  /// Human name of the type for "expected X, got Y" diagnostics.
  const char* type_name() const;
};

/// One table: scalar entries, named sub-tables, and arrays of tables
/// (from `[[name]]` headers). Keys are unique across all three maps.
struct Table {
  std::map<std::string, Value> values;
  std::map<std::string, Table> children;
  std::map<std::string, std::vector<Table>> arrays;
  std::uint64_t line = 0;  ///< Header line (0 for the root / implicit).
  bool defined = false;    ///< An explicit `[header]` opened this table.

  bool empty() const {
    return values.empty() && children.empty() && arrays.empty();
  }
};

struct Document {
  Table root;
  std::string source;  ///< Diagnostics label: file path or caller name.
};

/// Parses a whole stream. Throws ParseError on the first malformed line.
Document parse(std::istream& in, const std::string& source);

/// In-memory convenience wrapper around parse().
Document parse_string(const std::string& text, const std::string& source);

/// Opens and parses `path`; throws ParseError (line 0) when the file
/// cannot be opened or read.
Document parse_file(const std::string& path);

// --- Writer helpers (the serialization side lives in serialize.cpp;
// --- these keep value formatting in one place so documents round-trip).

/// Shortest decimal form that parses back to exactly `v`, always
/// containing a '.' or exponent so the value re-parses as a float.
std::string format_float(double v);

/// TOML string literal: double-quoted with \\ \" \n \r \t escapes.
std::string format_string(const std::string& s);

}  // namespace comet::config::toml
