#include "topo/serialization.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace mifo::topo {

namespace {

/// The edge line that declares `b` to be `rel` to `a`.
std::string edge_line(std::uint32_t a, std::uint32_t b, Rel rel) {
  const std::string sa = std::to_string(a);
  const std::string sb = std::to_string(b);
  if (rel == Rel::Provider) return sb + " " + sa + " p2c";
  return sa + " " + sb + (rel == Rel::Customer ? " p2c" : " peer");
}

}  // namespace

ParseError::ParseError(std::size_t line, std::string reason)
    : std::runtime_error("line " + std::to_string(line) + ": " + reason),
      line_(line),
      reason_(std::move(reason)) {}

void serialize(const AsGraph& g, std::ostream& os) {
  os << "# mifo-topology v1\n";
  os << "# nodes " << g.num_ases() << "\n";
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    const auto& info = g.info(as);
    if (info.tier != 3) os << "# tier " << i << " " << int(info.tier) << "\n";
    if (info.content_provider) os << "# cp " << i << "\n";
  }
  for (std::size_t i = 0; i < g.num_ases(); ++i) {
    const AsId as(static_cast<std::uint32_t>(i));
    for (const auto& nb : g.neighbors(as)) {
      if (nb.rel == Rel::Customer) {
        os << i << " " << nb.as.value() << " p2c\n";
      } else if (nb.rel == Rel::Peer && as < nb.as) {
        os << i << " " << nb.as.value() << " peer\n";
      }
    }
  }
}

std::string serialize_to_string(const AsGraph& g) {
  std::ostringstream os;
  serialize(g, os);
  return os.str();
}

AsGraph parse(std::istream& is) {
  AsGraph g;
  std::string line;
  std::size_t line_no = 0;
  std::size_t declared_nodes = 0;
  struct PendingInfo {
    std::uint32_t as;
    int tier;
    bool cp;
  };
  std::vector<PendingInfo> pending;
  const auto check_count = [&line_no](std::size_t count) {
    if (count > kMaxParsedAses) {
      throw ParseError(line_no, "AS count " + std::to_string(count) +
                                    " exceeds the limit of " +
                                    std::to_string(kMaxParsedAses));
    }
  };
  auto ensure = [&g](std::uint32_t as) {
    if (as >= g.num_ases()) g.resize(as + 1);
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ls(line);
    if (line[0] == '#') {
      std::string hash, word;
      ls >> hash >> word;
      if (word == "nodes") {
        ls >> declared_nodes;
        check_count(declared_nodes);
        g.resize(std::max(declared_nodes, g.num_ases()));
      } else if (word == "tier") {
        std::uint32_t as = 0;
        int tier = 3;
        ls >> as >> tier;
        check_count(std::size_t{as} + 1);
        pending.push_back({as, tier, false});
      } else if (word == "cp") {
        std::uint32_t as = 0;
        ls >> as;
        check_count(std::size_t{as} + 1);
        pending.push_back({as, -1, true});
      }
      continue;
    }
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::string kind;
    ls >> a >> b >> kind;
    if (ls.fail()) {
      throw ParseError(line_no, "expected '<as> <as> p2c|peer', got '" +
                                    line + "'");
    }
    if (kind != "p2c" && kind != "peer") {
      throw ParseError(line_no, "unknown link kind '" + kind + "'");
    }
    if (a == b) {
      throw ParseError(line_no, "self-loop at AS" + std::to_string(a));
    }
    check_count(std::size_t{std::max(a, b)} + 1);
    ensure(std::max(a, b));
    // What b is to a, per this line and per any earlier line.
    const Rel rel = kind == "p2c" ? Rel::Customer : Rel::Peer;
    if (const auto earlier = g.rel(AsId(a), AsId(b))) {
      if (*earlier != rel) {
        throw ParseError(line_no, "'" + edge_line(a, b, rel) +
                                      "' contradicts the earlier '" +
                                      edge_line(a, b, *earlier) + "'");
      }
      continue;  // a repeat of an earlier edge adds nothing
    }
    if (rel == Rel::Customer) {
      g.add_provider_customer(AsId(a), AsId(b));
    } else {
      g.add_peering(AsId(a), AsId(b));
    }
  }
  for (const auto& p : pending) {
    ensure(p.as);
    if (p.tier >= 0) g.info(AsId(p.as)).tier = static_cast<std::uint8_t>(p.tier);
    if (p.cp) g.info(AsId(p.as)).content_provider = true;
  }
  return g;
}

AsGraph parse_string(const std::string& text) {
  std::istringstream is(text);
  return parse(is);
}

}  // namespace mifo::topo
