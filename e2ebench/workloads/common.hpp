// Shared plumbing of the end-to-end benchmark binary: options, the
// one-line JSON record each process prints, and the outside-in span timer
// the traced pass wraps around public library calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// Seconds on the steady clock.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  /// Input variant (run.py maps --seed onto it): perturbs the workload's
  /// traffic over its fixed reference scenario; 0 is the reference input.
  std::uint64_t variant = 0;
  bool trace = false;  ///< traced pass: per-layer spans and counts
  bool small = false;  ///< reduced scale for the self-test
};

/// What one mifo_e2e process measured, printed as one JSON line. `outputs`
/// are checked against recorded references, `recorded` are reported but
/// never gated, `layers` are the traced pass's per-layer metrics.
class Record {
 public:
  void metric(const std::string& name, double v) { put(top_, name, num(v)); }
  void count(const std::string& name, std::uint64_t v) {
    put(top_, name, std::to_string(v));
  }
  void output(const std::string& name, std::uint64_t v) {
    put(outputs_, name, std::to_string(v));
  }
  void output(const std::string& name, double v) {
    put(outputs_, name, num(v));
  }
  void output(const std::string& name, bool v) {
    put(outputs_, name, v ? "true" : "false");
  }
  void output(const std::string& name, const std::string& v) {
    put(outputs_, name, quote(v));
  }
  void output(const std::string& name, const char* v) {
    output(name, std::string(v));
  }
  void recorded(const std::string& name, bool v) {
    put(recorded_, name, v ? "true" : "false");
  }
  void recorded(const std::string& name, const std::string& v) {
    put(recorded_, name, quote(v));
  }
  void recorded(const std::string& name, const char* v) {
    recorded(name, std::string(v));
  }
  /// Adds `v` to layer metric `name` (created at 0).
  void layer_add(const std::string& name, double v);
  void layer_set(const std::string& name, double v);
  [[nodiscard]] double layer(const std::string& name) const;

  [[nodiscard]] std::string dump() const;

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;
  static void put(Fields& f, const std::string& name, std::string v);
  static std::string num(double v);
  static std::string quote(const std::string& s);

  Fields top_;
  Fields outputs_;
  Fields recorded_;
  std::vector<std::pair<std::string, double>> layers_;
};

/// Outside-in span timer. Each leaf span adds its duration to a layer
/// metric and to `covered()`, the process time the traced layers explain.
/// Leaves must not nest; time measured inside one (the daemon tick inside
/// dp.run_s) is recorded with Record::layer_set instead.
class Spans {
 public:
  explicit Spans(Record& rec) : rec_(&rec) {}

  template <typename F>
  decltype(auto) leaf(const std::string& layer, F&& f) {
    const Timer t(*this, layer);
    return f();
  }
  [[nodiscard]] double covered() const { return covered_; }

 private:
  struct Timer {
    Timer(Spans& s, const std::string& layer)
        : s(s), layer(layer), t0(now_s()) {}
    ~Timer() {
      const double d = now_s() - t0;
      s.rec_->layer_add(layer, d);
      s.covered_ += d;
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;
    Spans& s;
    std::string layer;
    double t0;
  };

  Record* rec_;
  double covered_ = 0.0;
};

/// How often the untraced pass repeats a workload's set-up; setup_s is the
/// median. The traced pass sets up once.
inline constexpr int kSetupRepeats = 3;

/// Calls `make` (which returns a std::unique_ptr to the workload's ready
/// state) `times` times, records the median duration as setup_s and returns
/// the last state. Each earlier state is released before the next is made.
template <typename Make>
auto timed_setup(Record& rec, int times, Make&& make) {
  decltype(make()) state;
  std::vector<double> secs;
  for (int i = 0; i < times; ++i) {
    state.reset();
    const double t0 = now_s();
    state = make();
    secs.push_back(now_s() - t0);
  }
  std::sort(secs.begin(), secs.end());
  rec.metric("setup_s", secs[secs.size() / 2]);
  return state;
}

/// The process's peak resident set (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

// One entry point per workload; each fills the record's setup_s, wall_s,
// attempted/failed and outputs, and in the traced pass its layers through
// `spans`.
void fig5_batch(const Options& o, Record& rec, Spans& spans);
void stream_flash(const Options& o, Record& rec, Spans& spans);
void packet_scaled(const Options& o, Record& rec, Spans& spans);
void chaos_churn(const Options& o, Record& rec, Spans& spans);
/// Self-test entry: the packet_scaled rebuild against run_scaled itself.
void packet_crosscheck(const Options& o, Record& rec, Spans& spans);

}  // namespace e2e
