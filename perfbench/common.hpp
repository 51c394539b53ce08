// Shared plumbing of the repository benchmark: run options, the
// in-memory span recorder used by traced runs, digests for pinned
// correctness checks, and small statistics helpers.
//
// Every span is recorded from the benchmark's own code around a public
// call into one library layer (core, sim, shard, tune, serve, kernels),
// so the per-layer numbers do not depend on any instrumentation inside
// the library.  Spans are kept in memory and written out once, at exit,
// as a Perfetto-loadable JSON trace.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nct::sim {
class CompiledProgram;
struct MachineParams;
struct RunResult;
}  // namespace nct::sim

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pins_dir;   ///< pinned digests (read, or written with write_pins).
  std::string trace_out;  ///< Perfetto JSON path for traced runs ("" = none).
  bool write_pins = false;
  unsigned nproc = 1;     ///< host concurrency; every thread count derives from it.
};

/// The seed whose outputs are pinned under pins/.  Any other seed is
/// checked through cross-path equalities only.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run reports.  `e2e` is printed by untraced runs,
/// `layer` by traced runs.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions.
  Metrics e2e;
  Metrics layer;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    if (errors.size() < 8) errors.push_back(why);
  }
};

double now_s();
double peak_rss_mb();     ///< process high-water resident set (MB).
double current_rss_mb();  ///< resident set right now (MB).

/// splitmix64: the benchmark's only source of pseudo-randomness.
std::uint64_t mix(std::uint64_t x);

/// Scale tau, t_c and t_copy together by 2^e, e = (h % 8) - 4 + step.
/// A power of two scales every simulated time exactly, and leaves every
/// ratio the planners and tune::Space read (B_opt, the copy threshold)
/// bit-identical, so the programs -- and the work of building them --
/// stay the same while the machine, and so every cache key, differs.
/// Distinct steps give distinct machines.  Returns the factor.
double scale_costs(nct::sim::MachineParams& machine, std::uint64_t h, std::uint64_t step);

/// FNV-1a over 64-bit words; doubles enter by bit pattern, so a digest
/// matches only when every statistic is bit-identical.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v);
  void add(double v);
  std::string hex() const;
};

/// Fold a run's pinned statistics (total_time, total_hops, total_sends,
/// max_link_busy) into a digest, times divided by `scale`.  With the
/// scale_costs factor as `scale` the digest is the same for every power
/// of two: the scale-equivariance check that holds on every seed.
void add_stats(Digest& d, const nct::sim::RunResult& r, double scale = 1.0);

/// Router packets a compiled program injects.
std::size_t total_packets(const nct::sim::CompiledProgram& compiled);

/// Pinned digests of one workload at the default seed: item id -> hex.
class Pins {
 public:
  /// Loads `<dir>/<workload>.txt` when the seed is the default one;
  /// empty otherwise (or when writing).
  Pins(const Options& options);
  /// Pinned digest of an item, nullptr when none exists.
  const std::string* find(const std::string& item) const;
  /// Record an item's digest (write mode).
  void record(const std::string& item, const std::string& digest);
  /// Write the recorded digests to `<dir>/<workload>.txt`.
  void save(const Options& options) const;

 private:
  std::map<std::string, std::string> pins_;
  std::vector<std::pair<std::string, std::string>> recorded_;
};

/// Check one item's digest against its pin: false only on a mismatch
/// (an unpinned item passes; its cross-path checks decide).
bool check_pin(Pins& pins, const Options& options, const std::string& item,
               const Digest& digest, Outcome& out);

/// Set-up runs at least 5 times and for at least 50 ms, and is reported
/// as the median, so even a sub-millisecond set-up reads steadily.
bool more_setups(const std::vector<double>& setups);

double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);  ///< nearest-rank, p in [0, 1].

/// In-memory span recorder.  Single-threaded: spans are only opened on
/// the benchmark's main thread, around calls into the library.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::uint64_t item = 0;
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Open a span (no-op returning -1 when tracing is off).
  int begin(const char* name, const char* layer, std::uint64_t item);
  /// Close it; returns its duration (0 when off).
  double end(int id);

  /// Deterministic counts recorded next to the spans (last value wins).
  void count(const std::string& name, double value);

  /// Durations of every closed span with this name, in seconds.
  std::vector<double> durations(const std::string& name) const;
  /// Summed self time (duration minus time covered by child spans) per
  /// layer.
  std::map<std::string, double> self_time_by_layer() const;

  /// Write spans as Chrome/Perfetto "X" events and counts as "C"
  /// events.  Returns false on I/O failure.
  bool write_perfetto(const std::string& path, const std::string& workload) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
  double origin_ = -1.0;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, const char* layer, std::uint64_t item)
      : t_(t), id_(t.begin(name, layer, item)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// Workload entry points (one translation unit each).
Outcome run_cube20(const Options& options, bool mpt);
Outcome run_sweep_small(const Options& options);
Outcome run_serve_mixed(const Options& options);

/// Per-layer metric names every traced run reports; a workload that
/// does not reach a layer reports its metrics as 0.
void fill_layer_defaults(Metrics& layer);

/// Write the traced run's spans to options.trace_out (if set); a failure
/// is reported on stderr and does not fail the run.
void write_trace(const Tracer& tracer, const Options& options);

/// Self time per layer from the tracer, as `<layer>.self_s`.
void add_self_times(const Tracer& tracer, Metrics& layer);

}  // namespace pb
