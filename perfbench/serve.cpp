// serve_mixed: one closed-loop client against serve::Server.
//
// Each round submits kRound requests from the seeded serve::Workload
// (faults on; about 26 distinct transpose problems, so repeats dominate)
// and then waits on drain(), the only way the server hands back
// completions.  About one request in a thousand is replaced by an
// hsmm or boolmm kernel request with a fresh operand seed, so kernel
// requests never repeat.  A request's latency runs from its submit() to
// the return of the drain() that delivers it.
//
// Set-up, repeated and reported as a median, builds the steady state
// the timed window measures: kernel compositions tuned into the shared
// PlanCache (kernels::tune_pipeline), then two warm epochs over every
// distinct problem, so background tunes are published before timing.
#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "kernels/boolmm.hpp"
#include "kernels/matmul.hpp"
#include "kernels/tune.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/compile.hpp"
#include "sim/engine.hpp"
#include "tune/cache.hpp"
#include "tune/tuner.hpp"

namespace pb {

namespace {

using namespace nct;

/// Requests per round: the default queue capacity, so a round never
/// spins on queue_full rejections, and large enough that how the
/// dispatcher happens to split a round into cycles matters little.
constexpr std::size_t kRound = 4096;
/// Latencies kept per request submitted (see the round loop).
constexpr std::size_t kLatencySample = 8;
/// Rounds whose response digests are pinned at the default seed.
constexpr std::size_t kPinnedRounds = 16;

struct KernelConfig {
  serve::KernelKind kind;
  std::uint64_t matrix;
};

const KernelConfig kKernels[] = {{serve::KernelKind::hsmm, 64}, {serve::KernelKind::boolmm, 256}};

sim::MachineParams kernel_machine() { return sim::MachineParams::ipsc(4); }

serve::Request kernel_request(const KernelConfig& k, std::uint64_t operand_seed) {
  serve::Request r;
  r.machine = kernel_machine();
  r.kernel.kind = k.kind;
  r.kernel.matrix = k.matrix;
  r.kernel.seed = operand_seed;
  return r;
}

serve::WorkloadOptions workload_options(std::uint64_t seed) {
  serve::WorkloadOptions w;
  w.faults = true;
  w.seed = seed;
  return w;
}

tune::TuneKey key_of(const serve::Request& r) {
  return tune::make_key(r.machine, r.before, r.after, r.faults.empty() ? nullptr : &r.faults,
                        tune::SpaceOptions{});
}

/// A server with its shared plan cache; the cache outlives the server.
struct Fixture {
  std::unique_ptr<tune::PlanCache> cache;
  std::unique_ptr<serve::Server> server;
  double kernels_tune_s = 0.0;
};

Fixture set_up(const Options& o, int jobs) {
  Fixture f;
  f.cache = std::make_unique<tune::PlanCache>(4096);

  const double k0 = now_s();
  for (const KernelConfig& k : kKernels) {
    kernels::KernelTuneOptions kopt;
    kopt.cache = f.cache.get();
    kopt.jobs = jobs;
    if (k.kind == serve::KernelKind::hsmm) {
      kernels::HsmmOptions opt;
      opt.nm = k.matrix;
      const kernels::HsmmKernel kernel(kernel_machine(), opt);
      kernels::tune_pipeline(kernel.pipeline(), kernel.initial_memory(), kopt);
    } else {
      kernels::BoolmmOptions opt;
      opt.nb = k.matrix;
      const kernels::BoolmmKernel kernel(kernel_machine(), opt);
      kernels::tune_pipeline(kernel.pipeline(), kernel.initial_memory(), kopt);
    }
  }
  f.kernels_tune_s = now_s() - k0;

  serve::ServeOptions so;
  so.jobs = jobs;
  so.tune_jobs = jobs;
  so.cache = f.cache.get();
  f.server = std::make_unique<serve::Server>(so);

  // Every distinct problem of the stream, first-seen order.
  std::vector<serve::Request> distinct;
  {
    serve::Workload gen(workload_options(o.seed));
    std::unordered_map<std::uint64_t, bool> seen;
    for (int draw = 0; draw < (1 << 20) && seen.size() < gen.distinct_problems(); ++draw) {
      serve::Request r = gen.next();
      if (seen.emplace(key_of(r).hash, true).second) distinct.push_back(std::move(r));
    }
  }
  // Epoch 1 misses and queues background tunes; drain() publishes them.
  // Epoch 2 serves from the warm cache.
  for (int epoch = 0; epoch < 2; ++epoch) {
    for (const serve::Request& r : distinct) f.server->submit(r);
    for (const KernelConfig& k : kKernels) f.server->submit(kernel_request(k, 1));
    f.server->drain();
  }
  return f;
}

void add_response(Digest& d, const serve::Response& r) {
  d.add(static_cast<std::uint64_t>(r.status));
  d.add(static_cast<std::uint64_t>(r.plan.family));
  d.add(static_cast<std::uint64_t>(r.plan.packet_elements));
  d.add(static_cast<std::uint64_t>(r.plan.buffer_mode));
  d.add(static_cast<std::uint64_t>(r.plan.b_copy_elements));
  d.add(static_cast<std::uint64_t>(r.cache_hit));
  d.add(r.simulated_seconds);
}

/// Every response seen for one transpose problem in the window.
struct Group {
  serve::Request request;
  serve::Response first;
  std::uint64_t count = 0;
};

bool same_outcome(const serve::Response& a, const serve::Response& b) {
  Digest x, y;
  add_response(x, a);
  add_response(y, b);
  return x.h == y.h;
}

}  // namespace

Outcome run_serve_mixed(const Options& o) {
  Outcome out;
  Tracer tracer(o.trace);
  Tracer untraced(false);
  Pins pins(o);
  // Client, dispatcher, background tuner and engine workers stay within
  // nproc.  With one worker the batches run on the dispatcher thread.
  const int jobs = std::max(1, static_cast<int>(o.nproc) - 3);

  std::vector<double> setups, kernel_tunes;
  Fixture f;
  for (int r = 0; r < 3; ++r) {
    // Tear the previous server down (before its cache) outside the timer.
    f.server.reset();
    f.cache.reset();
    const double t0 = now_s();
    f = set_up(o, jobs);
    setups.push_back(now_s() - t0);
    kernel_tunes.push_back(f.kernels_tune_s);
  }
  serve::Server& server = *f.server;

  serve::Workload stream(workload_options(o.seed));
  const serve::ServerStats before = server.stats();

  std::vector<double> latency, round_program_s, traced_queue, kernel_service;
  std::vector<serve::Request> requests(kRound);
  std::vector<double> submitted(kRound);
  std::unordered_map<std::uint64_t, Group> groups;
  std::vector<double> traced_rounds, untraced_rounds;  ///< for trace.overhead.
  double total_s = 0.0;
  std::uint64_t kernels_served = 0;
  std::uint64_t traced_kernels = 0, transposes = 0, draw = 0;
  std::uint64_t programs_before = before.batches + before.kernels_served;

  const std::uint64_t min_rounds = kPinnedRounds;
  const double window0 = now_s();
  for (std::uint64_t round = 0; round < min_rounds || now_s() - window0 < o.seconds; ++round) {
    for (std::size_t j = 0; j < kRound; ++j, ++draw) {
      const std::uint64_t h = mix(mix(o.seed) ^ draw);
      if (h % 1000 == 0) {
        requests[j] = kernel_request(kKernels[(h >> 20) % 2], mix(h));
        requests[j].tenant = static_cast<serve::TenantId>((h >> 32) % 4);
      } else {
        requests[j] = stream.next();
      }
    }
    const bool traced = o.trace && round % 2 == 0;
    Tracer& t = traced ? tracer : untraced;

    const double r0 = now_s();
    std::vector<serve::Response> responses;
    {
      Scope op(t, "serve_mixed.round", "bench", round);
      {
        Scope s(t, "serve.submit", "serve", round);
        for (std::size_t j = 0; j < kRound; ++j) {
          submitted[j] = now_s();
          const serve::Admission a = server.submit(requests[j]);
          if (!a.admitted)
            out.fail(1, std::string("request rejected: ") + serve::reject_reason_name(a.reason));
        }
      }
      Scope s(t, "serve.drain", "serve", round);
      responses = server.drain();
    }
    const double r1 = now_s();
    const double dt = r1 - r0;
    total_s += dt;
    (traced ? traced_rounds : untraced_rounds).push_back(dt);
    out.attempted += kRound;

    // Checks and bookkeeping, outside the timed round.
    const serve::ServerStats now = server.stats();
    const std::uint64_t programs = now.batches + now.kernels_served - programs_before;
    programs_before = now.batches + now.kernels_served;
    round_program_s.push_back(dt / static_cast<double>(std::max<std::uint64_t>(programs, 1)));
    if (responses.size() != kRound) {
      out.fail(kRound, "round " + std::to_string(round) + " returned " +
                           std::to_string(responses.size()) + " responses");
      continue;
    }
    Digest d;
    for (std::size_t j = 0; j < kRound; ++j) {
      const serve::Response& resp = responses[j];
      // Every kLatencySample-th latency (by submission position, so
      // unbiased): memory stays flat, so peak_rss_mb does not track
      // throughput.
      if (j % kLatencySample == 0) latency.push_back(r1 - submitted[j]);
      if (traced) traced_queue.push_back(resp.queue_seconds);
      add_response(d, resp);
      if (requests[j].kernel.kind != serve::KernelKind::none) {
        kernels_served += 1;
        if (traced) {
          traced_kernels += 1;
          kernel_service.push_back(resp.service_seconds);
        }
        if (resp.status != serve::ServeStatus::ok) out.fail(1, "kernel request not ok");
        continue;
      }
      transposes += 1;
      const auto [it, fresh] = groups.try_emplace(key_of(requests[j]).hash);
      if (fresh) {
        it->second.request = requests[j];
        it->second.first = resp;
      } else if (!same_outcome(it->second.first, resp)) {
        out.fail(1, "one problem served two different outcomes");
      }
      it->second.count += 1;
    }
    if (round < kPinnedRounds &&
        !check_pin(pins, o, "round" + std::to_string(round), d, out))
      out.fail(kRound, "round " + std::to_string(round) + " digest");
  }
  if (o.write_pins) pins.save(o);
  const serve::ServerStats after = server.stats();

  // Path replay: what the dispatcher repeats for every problem in every
  // cycle (key -> build -> compile -> run), once per distinct problem,
  // weighted by how often the stream asked for it.  The replayed time
  // must equal the served one bit for bit.
  double key_us = 0.0, build_us = 0.0, compile_us = 0.0, run_us = 0.0;
  std::uint64_t weight = 0;
  sim::RunScratch scratch;
  for (const auto& [hash, g] : groups) {
    const serve::Request& rq = g.request;
    const fault::FaultSpec* fs = rq.faults.empty() ? nullptr : &rq.faults;
    Scope path(tracer, "serve.path", "bench", hash);
    std::vector<double> kt, bt, ct, rt;
    bool feasible = true;
    double simulated = 0.0;
    for (int rep = 0; rep < 3 && feasible; ++rep) {
      try {
        double t0 = now_s();
        {
          Scope s(tracer, "serve.path.key", "tune", hash);
          (void)key_of(rq);
        }
        double t1 = now_s();
        tune::TuneOptions topt;
        topt.faults = fs;
        const tune::Tuner tuner(rq.machine, topt);
        sim::Program program;
        {
          Scope s(tracer, "serve.path.build", "tune", hash);
          program = tuner.build(rq.before, rq.after, g.first.plan);
        }
        double t2 = now_s();
        std::unique_ptr<sim::CompiledProgram> compiled;
        {
          Scope s(tracer, "serve.path.compile", "sim", hash);
          compiled = std::make_unique<sim::CompiledProgram>(sim::compile(program, rq.machine));
        }
        double t3 = now_s();
        fault::FaultModel model;
        if (fs != nullptr) model = fault::FaultModel(rq.machine.n, *fs);
        sim::EngineOptions eopt;
        eopt.faults = model.empty() ? nullptr : &model;
        sim::RunResult result;
        const double t4 = now_s();
        {
          Scope s(tracer, "serve.path.run", "sim", hash);
          sim::Engine(rq.machine, eopt).run_timing(*compiled, scratch, result);
        }
        const double t5 = now_s();
        kt.push_back(t1 - t0);
        bt.push_back(t2 - t1);
        ct.push_back(t3 - t2);
        rt.push_back(t5 - t4);
        simulated = result.total_time;
      } catch (const std::exception&) {
        feasible = false;
      }
    }
    const bool served_ok = g.first.status == serve::ServeStatus::ok;
    if (served_ok != feasible || (feasible && simulated != g.first.simulated_seconds)) {
      out.fail(g.count, "served outcome differs from a standalone replay");
      continue;
    }
    if (!feasible) continue;
    const double w = static_cast<double>(g.count);
    key_us += w * median(kt) * 1e6;
    build_us += w * median(bt) * 1e6;
    compile_us += w * median(ct) * 1e6;
    run_us += w * median(rt) * 1e6;
    weight += g.count;
  }

  const double served = static_cast<double>(out.attempted);
  out.e2e["setup_s"] = {median(setups), "s"};
  out.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  out.e2e["transpose_s"] = {median(round_program_s), "s"};
  out.e2e["programs_per_s"] = {
      static_cast<double>(after.batches + after.kernels_served - before.batches -
                          before.kernels_served) /
          total_s,
      "1/s"};
  out.e2e["requests_per_s"] = {served / total_s, "1/s"};
  out.e2e["latency_p50_ms"] = {median(latency) * 1e3, "ms"};
  out.e2e["latency_p99_ms"] = {percentile(latency, 0.99) * 1e3, "ms"};

  if (o.trace) {
    Metrics& l = out.layer;
    fill_layer_defaults(l);
    const std::uint64_t resolved =
        after.cache_hits + after.cache_misses - before.cache_hits - before.cache_misses;
    const std::uint64_t batches = after.batches - before.batches;
    const double w = static_cast<double>(std::max<std::uint64_t>(weight, 1));
    std::vector<double> submit_us;
    for (const double v : tracer.durations("serve.submit"))
      submit_us.push_back(v / static_cast<double>(kRound) * 1e6);
    l["serve.submit_us"].value = median(submit_us);
    l["serve.drain_ms"].value = median(tracer.durations("serve.drain")) * 1e3;
    l["serve.hit_ratio"].value =
        static_cast<double>(after.cache_hits - before.cache_hits) /
        static_cast<double>(std::max<std::uint64_t>(resolved, 1));
    l["serve.coalesced_mean"].value =
        static_cast<double>(transposes) / static_cast<double>(std::max<std::uint64_t>(batches, 1));
    l["serve.queue_ms_p50"].value = median(traced_queue) * 1e3;
    l["serve.queue_ms_p99"].value = percentile(traced_queue, 0.99) * 1e3;
    l["serve.rejected_full"].value = static_cast<double>(after.rejected_full - before.rejected_full);
    l["serve.infeasible"].value = static_cast<double>(after.infeasible - before.infeasible);
    l["serve.path.key_us"].value = key_us / w;
    l["serve.path.build_us"].value = build_us / w;
    l["serve.path.compile_us"].value = compile_us / w;
    l["serve.path.run_us"].value = run_us / w;
    l["tune.published"].value =
        static_cast<double>(after.tunes_published - before.tunes_published);
    l["kernels.service_ms_p50"].value = median(kernel_service) * 1e3;
    l["kernels.requests"].value = static_cast<double>(traced_kernels);
    l["kernels.tune_s"].value = median(kernel_tunes);
    l["trace.overhead"].value = median(traced_rounds) / median(untraced_rounds) - 1.0;
    add_self_times(tracer, l);
    tracer.count("serve.requests", served);
    tracer.count("serve.transposes", static_cast<double>(transposes));
    tracer.count("serve.kernels", static_cast<double>(kernels_served));
    tracer.count("serve.distinct_problems", static_cast<double>(groups.size()));
    tracer.count("serve.hit_ratio", l["serve.hit_ratio"].value);
    write_trace(tracer, o);
  }
  return out;
}

}  // namespace pb
