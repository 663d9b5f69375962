// Small self-contained helpers for the wall-clock benchmark driver: clocks,
// order statistics, the seeded input generator, and the in-memory span
// recorder used by traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now().time_since_epoch()).count();
}

// --- Order statistics --------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 for an empty set.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return percentile(v, 50.0); }

/// The highest whole percentile (at most 99) that leaves at least ten
/// samples beyond it; 50 when there are too few samples for anything higher.
inline int tail_percentile(std::size_t n) {
  for (int p = 99; p > 50; --p) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50;
}

// --- Seeded inputs -------------------------------------------------------------

/// splitmix64: the benchmark's only randomness source, so one seed fixes
/// every generated transaction.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// YCSB's zipfian rank generator (Gray et al.) over [0, n).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    for (std::uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }
  std::uint64_t next(Rng& rng) const {
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_{0};
  double alpha_{0};
  double eta_{0};
};

// --- Spans ---------------------------------------------------------------------

/// One timed call made by the driver into a module of the system.
struct Span {
  const char* name;
  double start_us;
  double end_us;
  std::int64_t parent;  ///< index of the enclosing span, -1 at top level
  std::uint64_t id;     ///< window or transaction the span belongs to
};

/// In-memory span recorder. Every span is opened and closed on the driver's
/// own thread, so a plain stack gives each span its parent. Disabled (the
/// untraced run), opening a span costs one branch.
class Tracer {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  std::int64_t open(const char* name, std::uint64_t id) {
    if (!enabled_) return -1;
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_us(), 0.0, parent, id});
    stack_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int64_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_us = now_us();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.end_us - s.start_us);
    }
    return out;
  }

  /// Writes every span as one JSON object per line, then a per-name summary
  /// of total and self time (a span's duration minus its children's) to
  /// `summary` — children of one span never overlap, as they run on the
  /// same thread.
  bool write(const std::string& path, std::FILE* summary) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
    struct Agg {
      std::string name;
      std::size_t count{0};
      double total_us{0};
      double self_us{0};
    };
    std::vector<Agg> aggs;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = s.end_us - s.start_us;
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%lld,"
                   "\"id\":%llu,\"self_us\":%.3f}\n",
                   s.name, s.start_us, s.end_us, static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.id), dur - child_us[i]);
      auto it = std::find_if(aggs.begin(), aggs.end(),
                             [&](const Agg& a) { return a.name == s.name; });
      if (it == aggs.end()) {
        aggs.push_back(Agg{s.name});
        it = aggs.end() - 1;
      }
      ++it->count;
      it->total_us += dur;
      it->self_us += dur - child_us[i];
    }
    std::fclose(f);
    std::fprintf(summary, "%-24s %10s %14s %14s\n", "span", "count", "total_ms", "self_ms");
    for (const Agg& a : aggs) {
      std::fprintf(summary, "%-24s %10zu %14.3f %14.3f\n", a.name.c_str(), a.count,
                   a.total_us / 1000.0, a.self_us / 1000.0);
    }
    return true;
  }

 private:
  bool enabled_{false};
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on scope exit.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::uint64_t id) : t_(&t), idx_(t.open(name, id)) {}
  ~Scoped() { t_->close(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  std::int64_t idx_;
};

// --- Host-speed reference -------------------------------------------------------

/// Times a frozen integer/hash kernel (~50 ms on a 2020s x86 core) that calls
/// no library code: a drifting result across runs of identical code means
/// the host, not the program, changed speed. Returns milliseconds.
double host_reference_ms();

}  // namespace perfbench
