// cube20_spt / cube20_mpt: one spec pair in, one simulated time out, on
// a 20-cube (1,048,576 nodes).  Each operation plans the transpose
// (core), compiles it (sim) and runs it on the sharded engine (shard)
// with one shard per host thread.
//
//  * cube20_spt: iPSC one-port stepwise exchange (Section 8.2.1), 2D
//    consecutive layout -- every exchange is shard-local.
//  * cube20_mpt: CM cut-through direct transpose, 2D cyclic layout --
//    routes span the cube, so the run sits on the shard serial spine.
//
// Operation k of a run solves a fresh problem: the seed and k scale the
// machine's cost constants (scale_costs), which changes every simulated
// time but not the program.
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/transpose2d.hpp"
#include "shard/engine.hpp"
#include "sim/compile.hpp"
#include "topology/partition.hpp"
#include "topology/topology.hpp"

namespace pb {

namespace {

using namespace nct;

struct Problem {
  sim::MachineParams machine;
  double scale = 1.0;  ///< scale_costs factor.
  cube::PartitionSpec before;
  cube::PartitionSpec after;
};

constexpr int kDims = 20;
/// Operations whose results are pinned at the default seed.
constexpr std::uint64_t kPinnedOps = 8;

Problem make_problem(bool mpt, std::uint64_t seed, std::uint64_t op) {
  const int half = kDims / 2;
  const cube::MatrixShape s{half, half};
  Problem p;
  p.machine = mpt ? sim::MachineParams::cm(kDims) : sim::MachineParams::ipsc(kDims);
  p.scale = scale_costs(p.machine, mix(seed), op);
  if (mpt) {
    p.before = cube::PartitionSpec::two_dim_cyclic(s, half, half);
    p.after = cube::PartitionSpec::two_dim_cyclic(s.transposed(), half, half);
  } else {
    p.before = cube::PartitionSpec::two_dim_consecutive(s, half, half);
    p.after = cube::PartitionSpec::two_dim_consecutive(s.transposed(), half, half);
  }
  return p;
}

Digest digest_of(const sim::RunResult& r, double scale = 1.0) {
  Digest d;
  add_stats(d, r, scale);
  return d;
}

}  // namespace

Outcome run_cube20(const Options& o, bool mpt) {
  Outcome out;
  Tracer tracer(o.trace);
  Tracer untraced(false);
  Pins pins(o);

  // Set-up: the interconnect and its shard partition, built several
  // times so the reported figure is a median.
  std::shared_ptr<const topo::Topology> topology;
  topo::Partition partition;
  std::vector<double> setups;
  while (more_setups(setups)) {
    const double t0 = now_s();
    topology = topo::make_topology(make_problem(mpt, o.seed, 0).machine.topology, kDims);
    partition = topo::make_partition(*topology, o.nproc);
    setups.push_back(now_s() - t0);
  }

  shard::ShardScratch scratch;
  std::vector<double> untraced_ops, traced_ops;
  double plan_rss = 0.0, compile_rss = 0.0;
  std::size_t sends = 0, hops = 0, packets = 0;
  shard::ShardStats stats;
  double serial_run = 0.0;
  std::uint64_t reference = 0;

  // At least five operations: single 20-cube operations vary by about
  // 10% on a shared host.  Traced runs alternate traced and untraced
  // operations (traced first) so trace.overhead compares like with like.
  const std::uint64_t min_ops = o.write_pins ? kPinnedOps : 5;
  const double window0 = now_s();
  for (std::uint64_t k = 0; k < min_ops || now_s() - window0 < o.seconds; ++k) {
    const Problem p = make_problem(mpt, o.seed, k);
    const bool traced = o.trace && k % 2 == 0;
    Tracer& t = traced ? tracer : untraced;
    sim::RunResult result;
    shard::ShardStats op_stats;
    std::unique_ptr<sim::CompiledProgram> compiled;

    const double t0 = now_s();
    {
      Scope item(t, mpt ? "cube20_mpt.transpose" : "cube20_spt.transpose", "bench", k);
      const double rss0 = current_rss_mb();
      sim::Program program;
      {
        Scope s(t, "core.plan", "core", k);
        program = mpt ? core::transpose_2d_direct(p.before, p.after, p.machine)
                      : core::transpose_2d_stepwise(p.before, p.after, p.machine);
      }
      const double rss1 = current_rss_mb();
      {
        Scope s(t, "sim.compile", "sim", k);
        compiled = std::make_unique<sim::CompiledProgram>(sim::compile(program, p.machine));
      }
      const double rss2 = current_rss_mb();
      {
        Scope s(t, "sim.program_free", "sim", k);
        program = sim::Program{};
      }
      {
        Scope s(t, "shard.run", "shard", k);
        const shard::ShardEngine engine(p.machine);
        engine.run_timing(*compiled, partition, scratch, result, &op_stats);
      }
      if (traced && traced_ops.empty()) {
        plan_rss = rss1 - rss0;
        compile_rss = rss2 - rss1;
      }
    }
    (traced ? traced_ops : untraced_ops).push_back(now_s() - t0);
    out.attempted += 1;

    bool ok = check_pin(pins, o, std::to_string(k), digest_of(result), out);
    // Every operation solves the first one's problem with costs scaled by
    // a power of two, so its statistics scaled back must match exactly.
    const std::uint64_t normalized = digest_of(result, p.scale).h;
    if (k > 0 && normalized != reference) {
      ok = false;
      out.fail(0, "operation " + std::to_string(k) + " is not the scaled first operation");
    }
    if (k == 0) {
      // Cross-path check, outside the timed operation: the sharded run
      // must equal the single-thread engine bit for bit.
      reference = normalized;
      sends = compiled->total_sends();
      hops = compiled->total_hops();
      packets = total_packets(*compiled);
      stats = op_stats;
      sim::RunScratch serial_scratch;
      sim::RunResult serial;
      const sim::Engine engine(p.machine);
      const int id = tracer.begin("sim.run_serial", "sim", k);
      const double s0 = now_s();
      engine.run_timing(*compiled, serial_scratch, serial);
      serial_run = now_s() - s0;
      tracer.end(id);
      if (digest_of(serial).h != digest_of(result).h) {
        ok = false;
        out.fail(0, "sharded run differs from the serial engine");
      }
    }
    if (!ok) out.fail(1, "operation " + std::to_string(k) + " failed its checks");
  }
  if (o.write_pins) pins.save(o);

  const std::vector<double>& ops = untraced_ops;
  double total = 0.0;
  for (const double v : ops) total += v;
  out.e2e["setup_s"] = {median(setups), "s"};
  out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.e2e["transpose_s"] = {median(ops), "s"};
  out.e2e["programs_per_s"] = {static_cast<double>(ops.size()) / total, "1/s"};
  out.e2e["requests_per_s"] = {static_cast<double>(ops.size()) / total, "1/s"};
  out.e2e["latency_p50_ms"] = {median(ops) * 1e3, "ms"};
  out.e2e["latency_p99_ms"] = {percentile(ops, 0.99) * 1e3, "ms"};

  if (o.trace) {
    Metrics& l = out.layer;
    fill_layer_defaults(l);
    const double run_s = median(tracer.durations("shard.run"));
    l["core.plan_s"].value = median(tracer.durations("core.plan"));
    l["core.sends"].value = static_cast<double>(sends);
    l["core.plan_rss_mb"].value = plan_rss;
    l["sim.compile_s"].value = median(tracer.durations("sim.compile"));
    l["sim.compile_rss_mb"].value = compile_rss;
    l["sim.hops"].value = static_cast<double>(hops);
    l["sim.packets"].value = static_cast<double>(packets);
    l["shard.run_s"].value = run_s;
    l["shard.serial_run_s"].value = serial_run;
    l["shard.speedup"].value = serial_run / run_s;
    l["shard.parallel_share"].value = stats.parallel_fraction();
    l["shard.windows"].value = static_cast<double>(stats.windows);
    l["shard.imbalance"].value = stats.imbalance();
    l["shard.ns_per_packet"].value = run_s / static_cast<double>(packets) * 1e9;
    l["trace.overhead"].value = median(traced_ops) / median(untraced_ops) - 1.0;
    add_self_times(tracer, l);
    tracer.count("core.sends", static_cast<double>(sends));
    tracer.count("sim.hops", static_cast<double>(hops));
    tracer.count("sim.packets", static_cast<double>(packets));
    tracer.count("shard.windows", static_cast<double>(stats.windows));
    tracer.count("shard.parallel_events", static_cast<double>(stats.parallel_events));
    tracer.count("shard.serial_events", static_cast<double>(stats.serial_events));
    write_trace(tracer, o);
  }
  return out;
}

}  // namespace pb
