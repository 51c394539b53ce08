#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "sim/compile.hpp"
#include "sim/engine.hpp"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double scale_costs(nct::sim::MachineParams& machine, std::uint64_t h, std::uint64_t step) {
  const double f = std::ldexp(1.0, static_cast<int>(h % 8) - 4 + static_cast<int>(step));
  machine.tau *= f;
  machine.tc *= f;
  machine.tcopy *= f;
  return f;
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void add_stats(Digest& d, const nct::sim::RunResult& r, double scale) {
  d.add(r.total_time / scale);
  d.add(static_cast<std::uint64_t>(r.total_hops));
  d.add(static_cast<std::uint64_t>(r.total_sends));
  d.add(r.max_link_busy / scale);
}

std::size_t total_packets(const nct::sim::CompiledProgram& compiled) {
  const nct::sim::MachineParams& m = compiled.machine();
  std::size_t packets = 0;
  for (const nct::sim::CompiledSend& s : compiled.send_ops())
    packets += m.packets_for(static_cast<std::size_t>(s.count) *
                             static_cast<std::size_t>(m.element_bytes));
  return packets;
}

namespace {

std::string pin_path(const Options& o) { return o.pins_dir + "/" + o.workload + ".txt"; }

}  // namespace

Pins::Pins(const Options& options) {
  if (options.write_pins || options.seed != kDefaultSeed || options.pins_dir.empty()) return;
  std::ifstream in(pin_path(options));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string item, digest;
    if (line.rfind('#', 0) != 0 && fields >> item >> digest) pins_[item] = digest;
  }
}

const std::string* Pins::find(const std::string& item) const {
  const auto it = pins_.find(item);
  return it == pins_.end() ? nullptr : &it->second;
}

void Pins::record(const std::string& item, const std::string& digest) {
  recorded_.emplace_back(item, digest);
}

void Pins::save(const Options& options) const {
  std::ofstream out(pin_path(options));
  out << "# item digest: pinned outputs of workload " << options.workload << " at seed "
      << kDefaultSeed << "\n";
  for (const auto& [item, digest] : recorded_) out << item << ' ' << digest << '\n';
}

bool check_pin(Pins& pins, const Options& options, const std::string& item,
               const Digest& digest, Outcome& out) {
  if (options.write_pins) {
    pins.record(item, digest.hex());
    return true;
  }
  const std::string* want = pins.find(item);
  if (want == nullptr || *want == digest.hex()) return true;
  out.fail(0, "pinned digest mismatch at " + item + ": " + digest.hex() + " != " + *want);
  return false;
}

bool more_setups(const std::vector<double>& setups) {
  double spent = 0.0;
  for (const double s : setups) spent += s;
  return setups.size() < 5 || spent < 0.05;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(k, v.size() - 1)];
}

int Tracer::begin(const char* name, const char* layer, std::uint64_t item) {
  if (!on_) return -1;
  const double t = now_s();
  if (origin_ < 0.0) origin_ = t;
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = t;
  s.parent = open_.empty() ? -1 : open_.back();
  s.item = item;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

double Tracer::end(int id) {
  if (id < 0) return 0.0;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  // Spans close in LIFO order (Scope is RAII); tolerate a manual end.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it, open_.end());
  return s.end - s.start;
}

void Tracer::count(const std::string& name, double value) {
  if (on_) counts_[name] = value;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_)
    if (s.name == name && s.end >= s.start) d.push_back(s.end - s.start);
  return d;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].layer] += std::max(0.0, spans_[i].end - spans_[i].start - child[i]);
  return self;
}

bool Tracer::write_perfetto(const std::string& path, const std::string& workload) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"perfbench "
      << workload << "\"}}";
  char buf[512];
  double last = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    last = std::max(last, s.end);
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"cat\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"item\":%llu}}",
                  s.name.c_str(), s.layer.c_str(), (s.start - origin_) * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.item));
    out << buf;
  }
  for (const auto& [name, value] : counts_) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"C\",\"pid\":1,\"name\":\"%s\",\"ts\":%.3f,"
                  "\"args\":{\"value\":%.17g}}",
                  name.c_str(), (last - origin_) * 1e6, value);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void fill_layer_defaults(Metrics& layer) {
  static const std::pair<const char*, const char*> kLayer[] = {
      {"core.plan_s", "s"},          {"core.sends", "count"},
      {"core.plan_rss_mb", "MB"},    {"sim.compile_s", "s"},
      {"sim.compile_rss_mb", "MB"},  {"sim.hops", "count"},
      {"sim.packets", "count"},      {"sim.batch_s", "s"},
      {"sim.batch_us_per_program", "us"},
      {"shard.run_s", "s"},          {"shard.serial_run_s", "s"},
      {"shard.speedup", "x"},        {"shard.parallel_share", "ratio"},
      {"shard.windows", "count"},    {"shard.imbalance", "ratio"},
      {"shard.ns_per_packet", "ns"}, {"tune.candidates", "count"},
      {"tune.build_s", "s"},         {"tune.infeasible", "count"},
      {"tune.published", "count"},   {"serve.submit_us", "us"},
      {"serve.drain_ms", "ms"},      {"serve.hit_ratio", "ratio"},
      {"serve.coalesced_mean", "count"},
      {"serve.queue_ms_p50", "ms"},  {"serve.queue_ms_p99", "ms"},
      {"serve.rejected_full", "count"},
      {"serve.infeasible", "count"}, {"serve.path.key_us", "us"},
      {"serve.path.build_us", "us"}, {"serve.path.compile_us", "us"},
      {"serve.path.run_us", "us"},   {"kernels.service_ms_p50", "ms"},
      {"kernels.requests", "count"}, {"kernels.tune_s", "s"},
      {"trace.overhead", "ratio"},   {"bench.self_s", "s"},
      {"core.self_s", "s"},          {"sim.self_s", "s"},
      {"shard.self_s", "s"},         {"tune.self_s", "s"},
      {"serve.self_s", "s"},         {"kernels.self_s", "s"},
  };
  for (const auto& [name, unit] : kLayer) layer[name] = Metric{0.0, unit};
}

void write_trace(const Tracer& tracer, const Options& options) {
  if (!options.trace_out.empty() && !tracer.write_perfetto(options.trace_out, options.workload))
    std::fprintf(stderr, "nct_perfbench: could not write %s\n", options.trace_out.c_str());
}

void add_self_times(const Tracer& tracer, Metrics& layer) {
  for (const auto& [name, seconds] : tracer.self_time_by_layer()) {
    const std::string key = name + ".self_s";
    if (layer.count(key) != 0) layer[key].value = seconds;
  }
}

}  // namespace pb
