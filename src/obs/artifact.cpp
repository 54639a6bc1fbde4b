#include "obs/artifact.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/contracts.hpp"
#include "common/env.hpp"

namespace mifo::obs {

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::str(std::string s) {
  Json j;
  j.kind_ = Kind::Str;
  j.str_ = std::move(s);
  return j;
}

Json Json::num(double v) {
  Json j;
  j.kind_ = Kind::Num;
  j.num_ = v;
  return j;
}

Json Json::num(std::uint64_t v) {
  Json j;
  j.kind_ = Kind::Num;
  j.num_ = static_cast<double>(v);
  j.integral_ = true;
  return j;
}

Json Json::num(std::int64_t v) {
  Json j;
  j.kind_ = Kind::Num;
  j.num_ = static_cast<double>(v);
  j.integral_ = true;
  return j;
}

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = b;
  return j;
}

Json& Json::set(const std::string& key, Json v) {
  MIFO_EXPECTS(kind_ == Kind::Object);
  members_.emplace_back(key, std::move(v));
  return *this;
}

Json& Json::push(Json v) {
  MIFO_EXPECTS(kind_ == Kind::Array);
  items_.push_back(std::move(v));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const std::vector<Json>& Json::items() const {
  MIFO_EXPECTS(kind_ == Kind::Array);
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  MIFO_EXPECTS(kind_ == Kind::Object);
  return members_;
}

double Json::number() const {
  MIFO_EXPECTS(kind_ == Kind::Num);
  return num_;
}

const std::string& Json::text() const {
  MIFO_EXPECTS(kind_ == Kind::Str);
  return str_;
}

namespace {
void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
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
  out += '"';
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  char buf[64];
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Num:
      if (integral_ || (std::floor(num_) == num_ && std::abs(num_) < 1e15)) {
        std::snprintf(buf, sizeof(buf), "%" PRId64,
                      static_cast<std::int64_t>(num_));
      } else if (std::isfinite(num_)) {
        std::snprintf(buf, sizeof(buf), "%.6g", num_);
      } else {
        std::snprintf(buf, sizeof(buf), "null");  // JSON has no inf/nan
      }
      out += buf;
      break;
    case Kind::Str:
      escape_into(out, str_);
      break;
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        escape_into(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      if (!members_.empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
    case Kind::Array: {
      out += '[';
      bool first = true;
      for (const auto& v : items_) {
        if (!first) out += ',';
        first = false;
        newline_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (!items_.empty()) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {
/// Recursive-descent parser for the subset dump() emits (strict JSON minus
/// exotic escapes; \u decodes BMP code points to UTF-8).
struct JsonParser {
  const char* p;
  const char* end;
  bool ok = true;

  void skip_ws() {
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) {
      ++p;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }

  bool literal(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) < n ||
        std::memcmp(p, s, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (p < end && *p != '"') {
      char c = *p++;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p >= end) return false;
      const char esc = *p++;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (end - p < 4) return false;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p++;
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return false;
      }
    }
    return consume('"');
  }

  bool digits() {
    const char* const from = p;
    while (p < end && *p >= '0' && *p <= '9') ++p;
    return p > from;
  }

  /// One RFC 8259 number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?. A
  /// literal without fraction or exponent must fit int64 (and round-trips
  /// without a decimal point); any other must be finite. Else ok=false.
  Json parse_number() {
    const char* const start = p;
    if (p < end && *p == '-') ++p;
    const char* const lead = p;
    ok = digits() && (*lead != '0' || p == lead + 1);  // no leading zeros
    const bool integral = p == end || (*p != '.' && *p != 'e' && *p != 'E');
    if (ok && p < end && *p == '.') {
      ++p;
      ok = digits();
    }
    if (ok && p < end && (*p == 'e' || *p == 'E')) {
      if (++p < end && (*p == '+' || *p == '-')) ++p;
      ok = digits();
    }
    if (ok && integral) {
      std::int64_t v = 0;
      ok = std::from_chars(start, p, v).ec == std::errc();
      return ok ? Json::num(v) : Json();
    }
    char* num_end = nullptr;
    const double v = ok ? std::strtod(start, &num_end) : 0.0;
    ok = ok && num_end == p && std::isfinite(v);
    return ok ? Json::num(v) : Json();
  }

  /// `depth` counts the containers enclosing the value; sets ok=false on
  /// malformed input.
  Json parse_value(int depth);
};

Json JsonParser::parse_value(int depth) {
  skip_ws();
  if (p >= end || ((*p == '{' || *p == '[') && depth >= Json::kMaxNesting)) {
    ok = false;
    return {};
  }
  switch (*p) {
    case '{': {
      ++p;
      Json obj = Json::object();
      skip_ws();
      if (consume('}')) return obj;
      do {
        std::string key;
        if (!parse_string(key) || !consume(':')) {
          ok = false;
          return {};
        }
        Json v = parse_value(depth + 1);
        if (!ok) return {};
        obj.set(key, std::move(v));
      } while (consume(','));
      if (!consume('}')) ok = false;
      return obj;
    }
    case '[': {
      ++p;
      Json arr = Json::array();
      skip_ws();
      if (consume(']')) return arr;
      do {
        Json v = parse_value(depth + 1);
        if (!ok) return {};
        arr.push(std::move(v));
      } while (consume(','));
      if (!consume(']')) ok = false;
      return arr;
    }
    case '"': {
      std::string s;
      if (!parse_string(s)) {
        ok = false;
        return {};
      }
      return Json::str(std::move(s));
    }
    case 't':
      if (literal("true")) return Json::boolean(true);
      ok = false;
      return {};
    case 'f':
      if (literal("false")) return Json::boolean(false);
      ok = false;
      return {};
    case 'n':
      if (literal("null")) return {};
      ok = false;
      return {};
    default:
      return parse_number();
  }
}
}  // namespace

std::optional<Json> Json::parse(const std::string& text) {
  JsonParser parser{text.data(), text.data() + text.size()};
  Json v = parser.parse_value(0);
  parser.skip_ws();
  if (!parser.ok || parser.p != parser.end) return std::nullopt;
  return v;
}

std::string artifact_dir() {
  const std::string dir = env_string("MIFO_ARTIFACT_DIR", ".");
  return dir == "-" ? std::string() : dir;
}

namespace {
std::string write_text_file(const std::string& name, const char* ext,
                            const std::string& body) {
  const std::string dir = artifact_dir();
  if (dir.empty()) return {};
  const std::string path = dir + "/" + name + ext;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return {};
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return path;
}
}  // namespace

std::string write_artifact(const std::string& name, const Json& root) {
  return write_text_file(name, ".json", root.dump(2) + "\n");
}

std::string write_csv(const std::string& name,
                      const std::vector<std::string>& header,
                      const std::vector<std::vector<double>>& rows) {
  std::string body;
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (c > 0) body += ',';
    body += header[c];
  }
  body += '\n';
  char buf[48];
  for (const auto& row : rows) {
    MIFO_EXPECTS(row.size() == header.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) body += ',';
      std::snprintf(buf, sizeof(buf), "%.9g", row[c]);
      body += buf;
    }
    body += '\n';
  }
  return write_text_file(name, ".csv", body);
}

Json to_json(const Snapshot& snap) {
  Json arr = Json::array();
  for (const auto& e : snap.scalars) {
    Json m = Json::object();
    m.set("name", Json::str(e.name));
    if (!e.labels.empty()) m.set("labels", Json::str(e.labels));
    m.set("kind", Json::str(to_string(e.kind)));
    m.set("value", Json::num(e.value));
    arr.push(std::move(m));
  }
  for (const auto& h : snap.histograms) {
    Json m = Json::object();
    m.set("name", Json::str(h.name));
    if (!h.labels.empty()) m.set("labels", Json::str(h.labels));
    m.set("kind", Json::str("histogram"));
    m.set("lo", Json::num(h.hist.low()));
    m.set("hi", Json::num(h.hist.high()));
    m.set("total", Json::num(h.hist.total()));
    Json bounds = Json::array();
    for (const double e : h.hist.edges()) bounds.push(Json::num(e));
    m.set("bounds", std::move(bounds));
    Json bins = Json::array();
    for (std::size_t i = 0; i < h.hist.bins(); ++i) {
      bins.push(Json::num(h.hist.bin_count(i)));
    }
    m.set("bins", std::move(bins));
    arr.push(std::move(m));
  }
  return arr;
}

Json to_json(const UtilSeries& series) {
  Json arr = Json::array();
  for (const auto& s : series) {
    Json m = Json::object();
    m.set("t", Json::num(s.t));
    m.set("mean_util", Json::num(s.mean_util));
    m.set("max_util", Json::num(s.max_util));
    m.set("frac_congested", Json::num(s.frac_congested));
    m.set("total_spare_mbps", Json::num(s.total_spare_mbps));
    m.set("active_flows", Json::num(s.active_flows));
    arr.push(std::move(m));
  }
  return arr;
}

Json to_json(const LinkSeries& series) {
  Json arr = Json::array();
  for (const auto& s : series) {
    Json m = Json::object();
    m.set("t", Json::num(s.t));
    m.set("router", Json::num(static_cast<std::uint64_t>(s.router)));
    m.set("port", Json::num(static_cast<std::uint64_t>(s.port)));
    m.set("utilization", Json::num(s.utilization));
    m.set("spare_mbps", Json::num(s.spare_mbps));
    m.set("queue_ratio", Json::num(s.queue_ratio));
    arr.push(std::move(m));
  }
  return arr;
}

Json to_json(const LoadSeries& series) {
  Json arr = Json::array();
  for (const auto& s : series) {
    Json m = Json::object();
    m.set("t", Json::num(s.t));
    m.set("goodput_mbps", Json::num(s.goodput_mbps));
    m.set("offered_mbps", Json::num(s.offered_mbps));
    m.set("max_util", Json::num(s.max_util));
    m.set("frac_congested", Json::num(s.frac_congested));
    m.set("active_flows", Json::num(s.active_flows));
    m.set("arrivals", Json::num(s.arrivals));
    m.set("completions", Json::num(s.completions));
    arr.push(std::move(m));
  }
  return arr;
}

Json to_json(const Tracer& tracer) {
  Json root = Json::object();
  root.set("overwritten", Json::num(tracer.overwritten()));
  Json evs = Json::array();
  for (const TraceEvent& e : tracer.events()) {
    Json m = Json::object();
    m.set("t", Json::num(e.t));
    m.set("kind", Json::str(to_string(e.kind)));
    m.set("router", Json::num(static_cast<std::uint64_t>(e.router)));
    if (e.flow != kNoTraceFlow) m.set("flow", Json::num(e.flow));
    m.set("port", Json::num(static_cast<std::uint64_t>(e.port)));
    m.set("dst", Json::num(static_cast<std::uint64_t>(e.dst)));
    m.set("tag", Json::boolean(e.tag));
    if (e.value != 0.0) m.set("value", Json::num(e.value));
    evs.push(std::move(m));
  }
  root.set("events", std::move(evs));
  return root;
}

Json drops_json(
    const std::vector<std::pair<std::string, std::uint64_t>>& drops) {
  Json obj = Json::object();
  for (const auto& [reason, count] : drops) {
    obj.set(reason, Json::num(count));
  }
  return obj;
}

}  // namespace mifo::obs
