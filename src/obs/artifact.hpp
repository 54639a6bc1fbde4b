// Machine-readable run artifacts: a dependency-free JSON tree builder plus
// JSON/CSV file writers, so every experiment arm emits one artifact that
// the tables, the figures and cross-commit diffing all read from the same
// data (schema: docs/OBSERVABILITY.md, `mifo.run_artifact.v1`).
//
// Output location: MIFO_ARTIFACT_DIR (default "."); set it to "-" to
// disable artifact emission entirely.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace mifo::obs {

/// Minimal JSON value: object / array / string / number / bool / null.
/// Key order is insertion order (stable artifacts diff cleanly).
class Json {
 public:
  Json() = default;  // null
  static Json object();
  static Json array();
  static Json str(std::string s);
  static Json num(double v);
  static Json num(std::uint64_t v);
  static Json num(std::int64_t v);
  static Json boolean(bool b);

  /// Deepest container nesting parse() accepts (RFC 8259 §9 lets a parser
  /// set one). Artifacts nest at most 5 deep; the cap keeps the recursive
  /// descent off the end of the stack on hostile input.
  static constexpr int kMaxNesting = 64;

  /// Parse a JSON document (the inverse of dump(); enough for reading our
  /// own artifacts back — tools/mifo-trace). std::nullopt on malformed
  /// input, trailing garbage or nesting deeper than kMaxNesting.
  static std::optional<Json> parse(const std::string& text);

  /// Object member access (creates the member; asserts object kind).
  Json& set(const std::string& key, Json v);
  /// Array append (asserts array kind).
  Json& push(Json v);

  // --- read-side accessors (tools reading artifacts back) -------------------
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::Str; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Num; }
  /// Member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;
  /// Array elements (asserts array kind).
  [[nodiscard]] const std::vector<Json>& items() const;
  /// Object members in insertion order (asserts object kind).
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;
  [[nodiscard]] double number() const;        ///< asserts number kind
  [[nodiscard]] const std::string& text() const;  ///< asserts string kind
  /// True for a JSON `true`, false for anything else.
  [[nodiscard]] bool truth() const { return kind_ == Kind::Bool && bool_; }
  /// number() with a fallback for absent members: j.find("x") pattern.
  [[nodiscard]] double number_or(double fallback) const {
    return kind_ == Kind::Num ? num_ : fallback;
  }

  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  enum class Kind : std::uint8_t { Null, Object, Array, Str, Num, Bool };
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  bool integral_ = false;  ///< emit without decimal point
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

/// Directory artifacts are written to, from MIFO_ARTIFACT_DIR (default ".").
/// Empty result means emission is disabled (MIFO_ARTIFACT_DIR=-).
[[nodiscard]] std::string artifact_dir();

/// Writes `root` as pretty-printed JSON to `<dir>/<name>.json`. Returns the
/// path, or "" when artifacts are disabled or the file cannot be opened.
std::string write_artifact(const std::string& name, const Json& root);

/// Writes a CSV (header + numeric rows) to `<dir>/<name>.csv`; "" as above.
std::string write_csv(const std::string& name,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<double>>& rows);

// --- converters into Json ---------------------------------------------------
[[nodiscard]] Json to_json(const Snapshot& snap);
[[nodiscard]] Json to_json(const UtilSeries& series);
[[nodiscard]] Json to_json(const LinkSeries& series);
[[nodiscard]] Json to_json(const LoadSeries& series);
/// The tracer's ring as a timeline: {"overwritten": N, "events": [...]},
/// oldest event first (deterministic — only sim-time values, byte-identical
/// across same-seed runs).
[[nodiscard]] Json to_json(const Tracer& tracer);

/// Drop-reason breakdown ({reason -> count}) as a JSON object.
[[nodiscard]] Json drops_json(
    const std::vector<std::pair<std::string, std::uint64_t>>& drops);

}  // namespace mifo::obs
