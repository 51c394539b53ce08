// sweep_small: thousands of small, all-distinct candidate programs.
//
// A pass walks a grid of tuning problems -- the paper's figure layouts
// (tune::fig_layout_1d / _2d / _1d_cyclic) on iPSC, CM and n-port
// machines, n 4..10, lg(PQ) 10..14 -- in a seeded order.  For each
// problem every tune::Space candidate is built (Tuner::build), compiled
// (sim::compile) and the whole set is measured with one
// Engine::run_timing_batch on `nproc` workers; the winner is published
// into a PlanCache, as Tuner::tune would.  Each pass scales every
// machine's cost constants by another power of two (scale_costs), so
// no (machine, program) pair repeats within a run while the candidate
// sets, and so the work per pass, stay the same.
// Only whole passes are measured.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/batch.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "tune/cache.hpp"
#include "tune/layouts.hpp"
#include "tune/space.hpp"
#include "tune/tuner.hpp"

namespace pb {

namespace {

using namespace nct;

struct Cell {
  int machine = 0;  ///< 0 iPSC, 1 CM, 2 n-port.
  int n = 0;
  int lg = 0;
  int layout = 0;   ///< 0 fig_layout_1d, 1 fig_layout_2d, 2 fig_layout_1d_cyclic.
};

// Larger cells are not small programs: measured on a 4-core Xeon, an
// n = 12 cell takes 1-134 s and an lg = 18 cell up to 12 s, against
// 0.1-60 ms for the cells kept here.
constexpr int kMaxDims = 10;
constexpr int kMaxLg = 14;

std::vector<Cell> grid() {
  std::vector<Cell> cells;
  for (int machine = 0; machine < 3; ++machine)
    for (int n = 4; n <= kMaxDims; ++n)
      for (int lg = 10; lg <= kMaxLg; ++lg) {
        // The layouts' shape constraints (see tune/layouts.hpp).
        if (2 * n <= lg) cells.push_back({machine, n, lg, 0});
        if (n % 2 == 0 && n <= lg) cells.push_back({machine, n, lg, 1});
        if (n <= lg) cells.push_back({machine, n, lg, 2});
      }
  return cells;
}

struct Problem {
  sim::MachineParams machine;
  double scale = 1.0;  ///< scale_costs factor.
  tune::SpecPair pair;
};

Problem make_problem(const Cell& c, std::uint64_t seed, std::uint64_t pass,
                     std::size_t cell) {
  Problem p;
  p.machine = c.machine == 0   ? sim::MachineParams::ipsc(c.n)
              : c.machine == 1 ? sim::MachineParams::cm(c.n)
                               : sim::MachineParams::nport(c.n);
  p.scale = scale_costs(p.machine, mix(mix(seed) ^ cell), pass);
  p.pair = c.layout == 0   ? tune::fig_layout_1d(c.lg, c.n)
           : c.layout == 1 ? tune::fig_layout_2d(c.lg, c.n)
                           : tune::fig_layout_1d_cyclic(c.lg, c.n);
  return p;
}

/// Seeded visiting order of the grid for one pass.
std::vector<std::size_t> pass_order(std::size_t cells, std::uint64_t seed, std::uint64_t pass) {
  std::vector<std::size_t> order(cells);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::uint64_t h = mix(mix(seed) ^ (pass + 0x5eed));
  for (std::size_t i = cells; i > 1; --i) {
    h = mix(h);
    std::swap(order[i - 1], order[h % i]);
  }
  return order;
}

constexpr std::uint64_t kInfeasible = 0x1f3a5b1e;
/// Passes whose results are pinned at the default seed.
constexpr std::uint64_t kPinnedPasses = 8;

}  // namespace

Outcome run_sweep_small(const Options& o) {
  Outcome out;
  Tracer tracer(o.trace);
  Tracer untraced(false);
  Pins pins(o);
  const std::vector<Cell> cells = grid();

  // Set-up: generate the first pass's inputs (machines and spec pairs),
  // several times so the reported figure is a median.
  std::vector<double> setups;
  while (more_setups(setups)) {
    const double t0 = now_s();
    std::vector<Problem> inputs;
    inputs.reserve(cells.size());
    for (const std::size_t c : pass_order(cells.size(), o.seed, 0))
      inputs.push_back(make_problem(cells[c], o.seed, 0, c));
    setups.push_back(now_s() - t0);
  }

  const int jobs = static_cast<int>(o.nproc);
  sim::BatchScratch batch;
  sim::RunScratch single;
  tune::PlanCache cache(cells.size());
  tune::TuneOptions topt;
  topt.jobs = jobs;

  std::vector<double> cell_times, per_program;
  std::vector<double> traced_passes, untraced_passes;  ///< time per program, per pass.
  std::uint64_t traced_programs = 0, traced_cells = 0;
  std::uint64_t programs = 0, infeasible = 0, published = 0;
  std::size_t hops = 0, packets = 0;
  std::vector<std::uint64_t> first_pass(cells.size());  ///< normalized digest per problem.

  // Traced runs alternate traced and untraced passes, which solve the
  // same problems, so trace.overhead compares like with like.
  const std::uint64_t min_passes = o.write_pins ? kPinnedPasses : (o.trace ? 2 : 1);
  const double window0 = now_s();
  std::uint64_t item = 0;
  for (std::uint64_t pass = 0; pass < min_passes || now_s() - window0 < o.seconds; ++pass) {
    const bool traced = o.trace && pass % 2 == 0;
    Tracer& t = traced ? tracer : untraced;
    double pass_s = 0.0;
    std::uint64_t pass_programs = 0;
    for (const std::size_t c : pass_order(cells.size(), o.seed, pass)) {
      const Problem p = make_problem(cells[c], o.seed, pass, c);
      std::vector<sim::CompiledProgram> compiled;
      std::vector<int> slot;  ///< candidate -> compiled index, -1 infeasible.
      std::size_t candidates = 0;

      const double t0 = now_s();
      {
        Scope op(t, "sweep_small.problem", "bench", item);
        std::unique_ptr<tune::Space> space;
        {
          Scope s(t, "tune.space", "tune", item);
          space = std::make_unique<tune::Space>(p.pair.first, p.pair.second, p.machine);
        }
        const tune::Tuner tuner(p.machine, topt);
        candidates = space->candidates().size();
        compiled.reserve(candidates);
        for (const tune::Candidate& cand : space->candidates()) {
          try {
            sim::Program program;
            {
              Scope s(t, "tune.build", "tune", item);
              program = tuner.build(p.pair.first, p.pair.second, cand);
            }
            Scope s(t, "sim.compile", "sim", item);
            compiled.push_back(sim::compile(program, p.machine));
            slot.push_back(static_cast<int>(compiled.size()) - 1);
          } catch (const std::exception&) {
            slot.push_back(-1);
          }
        }
        std::vector<const sim::CompiledProgram*> progs;
        for (const sim::CompiledProgram& cp : compiled) progs.push_back(&cp);
        const sim::Engine engine(p.machine);
        {
          Scope s(t, "sim.batch", "sim", item);
          engine.run_timing_batch(progs, batch, jobs);
        }
        // Publish the winner: minimum measured time, first on ties.
        int best = -1;
        for (std::size_t i = 0; i < candidates; ++i) {
          const int k = slot[i];
          if (k < 0 || !batch.runs[k].ok) continue;
          if (best < 0 || batch.runs[k].result.total_time <
                              batch.runs[slot[best]].result.total_time)
            best = static_cast<int>(i);
        }
        if (best >= 0) {
          Scope s(t, "tune.publish", "tune", item);
          tune::CacheEntry entry;
          entry.choice = space->candidates()[best];
          entry.predicted_seconds = entry.choice.predicted_seconds;
          entry.measured_seconds = batch.runs[slot[best]].result.total_time;
          entry.algorithm = tune::family_name(entry.choice.family);
          cache.insert(tune::make_key(p.machine, p.pair.first, p.pair.second, nullptr,
                                      tune::SpaceOptions{}),
                       std::move(entry));
          published += 1;
        }
      }
      const double dt = now_s() - t0;
      cell_times.push_back(dt);
      per_program.push_back(dt / static_cast<double>(std::max<std::size_t>(candidates, 1)));
      pass_s += dt;
      pass_programs += candidates;
      traced_programs += traced ? candidates : 0;
      traced_cells += traced ? 1 : 0;
      programs += candidates;
      out.attempted += candidates;

      // Checks, outside the timed operation: the pinned digest of every
      // candidate's statistics (infeasible ones pinned as such); the same
      // statistics scaled back by the pass's power of two, which must
      // match the first pass; and one candidate re-run alone, which must
      // equal its batch slot.
      Digest d, normalized;
      for (std::size_t i = 0; i < candidates; ++i) {
        const int k = slot[i];
        if (k < 0 || !batch.runs[k].ok) {
          d.add(kInfeasible);
          normalized.add(kInfeasible);
          infeasible += 1;
          continue;
        }
        add_stats(d, batch.runs[k].result);
        add_stats(normalized, batch.runs[k].result, p.scale);
        hops += batch.runs[k].result.total_hops;
        packets += total_packets(compiled[k]);
      }
      bool ok = check_pin(pins, o, std::to_string(pass) + ":" + std::to_string(c), d, out);
      if (pass == 0) {
        first_pass[c] = normalized.h;
      } else if (normalized.h != first_pass[c]) {
        ok = false;
        out.fail(0, "problem " + std::to_string(c) + " is not the scaled first pass");
      }
      if (!compiled.empty()) {
        const std::size_t k = mix(o.seed ^ item) % compiled.size();
        sim::RunResult alone;
        try {
          sim::Engine(p.machine).run_timing(compiled[k], single, alone);
          Digest a, b;
          add_stats(a, alone);
          add_stats(b, batch.runs[k].result);
          if (!batch.runs[k].ok || a.h != b.h) {
            ok = false;
            out.fail(0, "batch slot differs from a single run");
          }
        } catch (const std::exception& e) {
          if (batch.runs[k].ok) {
            ok = false;
            out.fail(0, std::string("single run failed where the batch did not: ") + e.what());
          }
        }
      }
      if (!ok) out.fail(candidates, "problem " + std::to_string(pass) + ":" + std::to_string(c));
      item += 1;
    }
    (traced ? traced_passes : untraced_passes)
        .push_back(pass_s / static_cast<double>(std::max<std::uint64_t>(pass_programs, 1)));
  }
  if (o.write_pins) pins.save(o);

  double total = 0.0;
  for (const double v : cell_times) total += v;
  out.e2e["setup_s"] = {median(setups), "s"};
  out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.e2e["transpose_s"] = {median(per_program), "s"};
  out.e2e["programs_per_s"] = {static_cast<double>(programs) / total, "1/s"};
  out.e2e["requests_per_s"] = {static_cast<double>(cell_times.size()) / total, "1/s"};
  out.e2e["latency_p50_ms"] = {median(cell_times) * 1e3, "ms"};
  out.e2e["latency_p99_ms"] = {percentile(cell_times, 0.99) * 1e3, "ms"};

  if (o.trace) {
    Metrics& l = out.layer;
    fill_layer_defaults(l);
    const std::vector<double> batches = tracer.durations("sim.batch");
    double batch_total = 0.0;
    for (const double v : batches) batch_total += v;
    const double feasible = static_cast<double>(programs - infeasible);
    l["sim.compile_s"].value = median(tracer.durations("sim.compile"));
    l["sim.hops"].value = static_cast<double>(hops) / feasible;
    l["sim.packets"].value = static_cast<double>(packets) / feasible;
    l["sim.batch_s"].value = median(batches);
    l["sim.batch_us_per_program"].value =
        batch_total / static_cast<double>(traced_programs) * 1e6;
    l["tune.candidates"].value =
        static_cast<double>(traced_programs) / static_cast<double>(traced_cells);
    l["tune.build_s"].value = median(tracer.durations("tune.build"));
    l["tune.infeasible"].value = static_cast<double>(infeasible);
    l["tune.published"].value = static_cast<double>(published);
    l["trace.overhead"].value = median(traced_passes) / median(untraced_passes) - 1.0;
    add_self_times(tracer, l);
    tracer.count("sweep.programs", static_cast<double>(programs));
    tracer.count("sim.hops", static_cast<double>(hops));
    tracer.count("tune.infeasible", static_cast<double>(infeasible));
    tracer.count("tune.published", static_cast<double>(published));
    write_trace(tracer, o);
  }
  return out;
}

}  // namespace pb
