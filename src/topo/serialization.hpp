// CAIDA-style text serialization of AS graphs:
//   <as_a> <as_b> p2c    (a is b's provider)
//   <as_a> <as_b> peer
// plus optional "# tier <as> <tier>" / "# cp <as>" annotation comments.
// Round-trips through parse(serialize(g)).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "topo/as_graph.hpp"

namespace mifo::topo {

/// Largest AS count parse() accepts. AS ids are dense indices, so a single
/// huge id would otherwise allocate every AS below it.
inline constexpr std::size_t kMaxParsedAses = std::size_t{1} << 20;

/// A line parse() rejects: it does not read as "<as> <as> <kind>", names an
/// AS id at or above kMaxParsedAses, uses a kind other than p2c/peer, links
/// an AS to itself, or contradicts the relationship an earlier line gave
/// the same pair. what() reads "line N: reason".
class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, std::string reason);

  [[nodiscard]] std::size_t line() const { return line_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::size_t line_;
  std::string reason_;
};

void serialize(const AsGraph& g, std::ostream& os);
[[nodiscard]] std::string serialize_to_string(const AsGraph& g);

/// Parses the format above; throws ParseError on the first bad line. A line
/// repeating an earlier edge with the same relationship adds nothing.
[[nodiscard]] AsGraph parse(std::istream& is);
[[nodiscard]] AsGraph parse_string(const std::string& text);

}  // namespace mifo::topo
