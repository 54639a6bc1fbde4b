// mifo_e2e — one repetition of one end-to-end benchmark workload.
//
//   mifo_e2e --workload fig5_batch|stream_flash|packet_scaled|chaos_churn
//            [--variant K] [--trace 0|1] [--small]
//
// Prints one JSON line: the build stamp, setup_s / wall_s / peak_rss_mb
// (packet_scaled adds wall_4w_s), attempted and failed operations, the
// workload's outputs (checked by run.py against recorded references),
// outputs recorded but not gated, and — with --trace 1 — the per-layer
// metrics. run.py runs repetitions of this binary, checks them and
// aggregates medians.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace e2e {

void Record::put(Fields& f, const std::string& name, std::string v) {
  for (auto& [k, old] : f) {
    if (k == name) {
      old = std::move(v);
      return;
    }
  }
  f.emplace_back(name, std::move(v));
}

std::string Record::num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Record::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Record::layer_add(const std::string& name, double v) {
  for (auto& [k, x] : layers_) {
    if (k == name) {
      x += v;
      return;
    }
  }
  layers_.emplace_back(name, v);
}

void Record::layer_set(const std::string& name, double v) {
  for (auto& [k, x] : layers_) {
    if (k == name) {
      x = v;
      return;
    }
  }
  layers_.emplace_back(name, v);
}

double Record::layer(const std::string& name) const {
  for (const auto& [k, x] : layers_) {
    if (k == name) return x;
  }
  return 0.0;
}

std::string Record::dump() const {
  const auto object = [](const Fields& f) {
    std::string s = "{";
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (i != 0) s += ", ";
      s += quote(f[i].first) + ": " + f[i].second;
    }
    return s + "}";
  };
  Fields layers;
  for (const auto& [k, v] : layers_) layers.emplace_back(k, num(v));
  Fields all = top_;
  all.emplace_back("outputs", object(outputs_));
  all.emplace_back("recorded", object(recorded_));
  all.emplace_back("layers", object(layers));
  return object(all);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace e2e

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mifo_e2e --workload NAME [--variant K] [--trace 0|1] "
               "[--small]\n"
               "  NAME: fig5_batch | stream_flash | packet_scaled | "
               "chaos_churn\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--variant" && has_value) {
      o.variant = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--small") {
      o.small = true;
    } else {
      usage();
      return 2;
    }
  }

  using Entry = void (*)(const e2e::Options&, e2e::Record&, e2e::Spans&);
  Entry entry = nullptr;
  if (o.workload == "fig5_batch") {
    entry = e2e::fig5_batch;
  } else if (o.workload == "stream_flash") {
    entry = e2e::stream_flash;
  } else if (o.workload == "packet_scaled") {
    entry = e2e::packet_scaled;
  } else if (o.workload == "chaos_churn") {
    entry = e2e::chaos_churn;
  } else if (o.workload == "packet_crosscheck") {
    entry = e2e::packet_crosscheck;
  } else {
    usage();
    return 2;
  }

  e2e::Record rec;
  rec.recorded("workload", o.workload);
  rec.count("variant", o.variant);
  rec.count("trace", o.trace ? 1 : 0);
  rec.recorded("scale", o.small ? "small" : "full");
  rec.recorded("build_type", MIFO_E2E_BUILD_TYPE);
  rec.recorded("compiler", MIFO_E2E_COMPILER);
  rec.count("hardware_threads", std::thread::hardware_concurrency());

  e2e::Spans spans(rec);
  const double t0 = e2e::now_s();
  entry(o, rec, spans);
  const double total = e2e::now_s() - t0;
  rec.metric("peak_rss_mb", e2e::peak_rss_mb());
  if (o.trace) rec.layer_set("trace.coverage", spans.covered() / total);
  std::printf("%s\n", rec.dump().c_str());
  return 0;
}
