// pfbench: the measuring client behind perfbench/run.py.
//
//   pfbench replay-cad --seed 1 --seconds 10 --trace 0 --out DIR
//   pfbench served --workload served-small --port P --server-pid PID
//                  --seed 1 --seconds 10 --trace 0 --out DIR [--setup-only]
//
// replay-cad runs CAD traces through PrefetchEngine::run_trace in this
// process.  served drives a running pfp_server closed-loop over PFP1:
// every client waits for a reply before it sends its next frame.  Both
// print one flat JSON object of raw measurements as the last line of
// stdout; run.py turns it into the benchmark's metrics.  Batch round
// trips go to DIR/batch_ms.txt, and with --trace 1 the spans go to
// DIR/spans.csv.
//
// The timed window holds only the calls being measured: stream
// generation, TENANT_OPEN and every correctness check run outside it.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <latch>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/prefetch_engine.hpp"
#include "engine/tenant_registry.hpp"
#include "obs/prometheus.hpp"
#include "server/session.hpp"
#include "server/wire.hpp"
#include "trace/workloads.hpp"
#include "util/net.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"
#include "util/thread_annotations.hpp"

namespace {

namespace wire = pfp::server::wire;
namespace net = pfp::util::net;
namespace engine = pfp::engine;
namespace trace = pfp::trace;
using pfp::util::EnginePhase;

// ---------------------------------------------------------------------------
// Sizing.  A run repeats one fixed unit of work (a round of run_trace
// calls, or one pass of a served op sequence on fresh tenants) once per
// nominal second of --seconds, so its deterministic results depend only
// on (workload, seed) and a faster build finishes the same work sooner.
// One unit takes about a second on a 4-CPU 2.0 GHz x86-64 box.

constexpr std::size_t kSetupRepetitions = 5;
constexpr std::uint64_t kCacheBlocks = 1024;
/// replay-cad: CAD traces per round, each at the paper's 147K references
/// and with its own seed, so one seed's trace shape does not set the pace.
constexpr std::size_t kCadTraces = 4;
constexpr std::uint64_t kCadRefs = 147'000;
/// served-small: sitar references per tenant per repetition, made of
/// this many independently seeded sitar traces.
constexpr std::uint64_t kSmallRefs = 350'000;
constexpr std::uint64_t kSmallSegments = 35;
/// served-mixed: snake references of tenant B per repetition; tenant A
/// gets twice as many cello references (two A frames per B frame).
constexpr std::uint64_t kMixedRefsB = 250'000;
/// served-mixed: STATS to both tenants plus one /metrics GET after every
/// this many ACCESS_MANY frames.
constexpr std::size_t kControlEvery = 256;
/// A served repetition that lost more than this share of the machine's CPU
/// time to the hypervisor (steal) is run again, up to kStealAttempts times
/// the repetition count in all.
constexpr double kMaxSteal = 0.01;
constexpr std::size_t kStealAttempts = 3;
/// Traced runs replay each in-process layer pass this many times and keep
/// each op's shortest time per layer.
constexpr std::size_t kLayerRepeats = 2;
/// Traced runs keep spans for at most about this many ACCESS_MANY frames
/// per connection (every k-th frame); control frames are always traced.
constexpr std::size_t kTracedFramesPerConn = 20'000;

// ---------------------------------------------------------------------------
// Clock, process accounting and output.

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// /proc/<pid>/<name>, or /proc/self/<name> when pid is 0.
std::string proc_path(long pid, const char* name) {
  return "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
         "/" + name;
}

/// User+system CPU seconds of a whole process (all threads, live and
/// exited) from /proc/<pid>/stat.
double process_cpu_seconds(long pid) {
  const std::string path = proc_path(pid, "stat");
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("pfbench: cannot read " + path);
  }
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i >= 14) {
      ticks += std::stod(field);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Machine-wide CPU time from the first line of /proc/stat, in clock
/// ticks: all of it, and the part the hypervisor gave to other guests
/// while this machine's CPUs wanted to run (steal).
struct MachineTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

MachineTicks machine_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  MachineTicks ticks;
  std::uint64_t value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) {
      ticks.steal = value;
    }
  }
  return ticks;
}

/// Share of the machine's CPU time stolen between two readings.
double steal_fraction(const MachineTicks& a, const MachineTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// Own CPU seconds at microsecond resolution.
double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// VmHWM (peak resident set) of a process in MiB; this one when pid is 0.
double peak_rss_mib(long pid) {
  const std::string path = proc_path(pid, "status");
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("pfbench: no VmHWM in " + path);
}

/// The flat key -> value JSON object printed as the last stdout line.
class Record {
 public:
  void num(const std::string& key, double value) {
    std::ostringstream text;
    text.precision(17);
    if (std::isfinite(value)) {
      text << value;
    } else {
      text << "null";
    }
    fields_.emplace_back(key, text.str());
  }
  void print(std::ostream& out) const {
    out << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << fields_[i].first
          << "\": " << fields_[i].second;
    }
    out << "}" << std::endl;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Counts correctness failures and names the first few on stderr.
class Gate {
 public:
  void check(bool ok, const std::string& what) {
    if (!ok && ++failures_ <= 10) {
      std::cerr << "pfbench: mismatch: " << what << std::endl;
    }
  }
  [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

 private:
  std::uint64_t failures_ = 0;
};

/// Batch round trips, one line per repetition (replay-cad: one line for
/// the whole run), space-separated milliseconds.
void write_samples(const std::string& path,
                   const std::vector<std::vector<double>>& lines) {
  std::ofstream out(path);
  out.precision(9);
  for (const std::vector<double>& line : lines) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      out << (i == 0 ? "" : " ") << line[i];
    }
    out << "\n";
  }
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and the frame serial as request id.
// Kept in memory and written once, after every timed pass.

enum class Layer : std::uint8_t {
  kClientFrame,
  kClientEncode,
  kClientSend,
  kClientRecv,
  kClientDecode,
  kSession,
  kWireDecode,
  kTenant,
  kWireEncode,
  kScrape,
  kRender,
  kRunTrace,
};

constexpr const char* kLayerNames[] = {
    "client.frame",       "client.encode",     "client.send",
    "client.recv",        "client.decode",     "server.session",
    "server.wire_decode", "engine.tenant",     "server.wire_encode",
    "server.scrape",      "obs.render_metrics", "engine.run_trace",
};

enum class OpType : std::uint8_t {
  kAccessMany,
  kStats,
  kSnapshot,
  kRestore,
  kScrape,
  kRunTrace,
};

constexpr const char* kOpNames[] = {"access_many", "stats",   "snapshot",
                                    "restore",     "scrape",  "run_trace"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the log, -1 for a root
  std::uint32_t request = 0;
  Layer layer = Layer::kClientFrame;
  OpType op = OpType::kAccessMany;
};

class SpanLog {
 public:
  std::int64_t add(Layer layer, OpType op, std::uint32_t request,
                   std::int64_t start, std::int64_t end,
                   std::int64_t parent = -1) {
    spans_.push_back(Span{start, end, parent, request, layer, op});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Appends another log, rebasing its parent links; returns the offset
  /// its indices moved by.
  std::int64_t absorb(const SpanLog& other) {
    const auto offset = static_cast<std::int64_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) {
        span.parent += offset;
      }
      spans_.push_back(span);
    }
    return offset;
  }

  void write_csv(const std::string& path) const {
    std::ofstream out(path);
    out << "id,parent,request,layer,op,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << "," << s.parent << "," << s.request << ","
          << kLayerNames[static_cast<std::size_t>(s.layer)] << ","
          << kOpNames[static_cast<std::size_t>(s.op)] << "," << s.start_ns
          << "," << s.end_ns << "\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Aggregates over engine metrics and phase timings.

wire::WireMetrics sum_metrics(const std::vector<wire::WireMetrics>& all) {
  wire::WireMetrics total;
  for (const wire::WireMetrics& m : all) {
    total.accesses += m.accesses;
    total.demand_hits += m.demand_hits;
    total.prefetch_hits += m.prefetch_hits;
    total.misses += m.misses;
    total.stall_ms += m.stall_ms;
    total.prefetches_issued += m.prefetches_issued;
    total.candidates_chosen += m.candidates_chosen;
    total.candidates_already_cached += m.candidates_already_cached;
    total.prefetch_ejections += m.prefetch_ejections;
    total.tree_nodes += m.tree_nodes;
    total.tree_bytes += m.tree_bytes;
  }
  return total;
}

/// The deterministic engine totals run.py derives miss rate, stall and
/// the core/cache ratios from.
void record_metrics(Record& rec, const wire::WireMetrics& m) {
  rec.num("m.accesses", static_cast<double>(m.accesses));
  rec.num("m.demand_hits", static_cast<double>(m.demand_hits));
  rec.num("m.prefetch_hits", static_cast<double>(m.prefetch_hits));
  rec.num("m.misses", static_cast<double>(m.misses));
  rec.num("m.stall_ms", m.stall_ms);
  rec.num("m.prefetches_issued", static_cast<double>(m.prefetches_issued));
  rec.num("m.candidates_chosen", static_cast<double>(m.candidates_chosen));
  rec.num("m.candidates_already_cached",
          static_cast<double>(m.candidates_already_cached));
  rec.num("m.prefetch_ejections", static_cast<double>(m.prefetch_ejections));
  rec.num("m.tree_nodes", static_cast<double>(m.tree_nodes));
  rec.num("m.tree_bytes", static_cast<double>(m.tree_bytes));
}

/// The q-quantile of one phase from its log2 buckets (bucket b holds
/// [2^(b-1), 2^b) ns), interpolated linearly by rank inside the bucket.
double phase_quantile_ns(const pfp::obs::PhaseTiming& t, EnginePhase phase,
                         double q) {
  const auto p = static_cast<std::size_t>(phase);
  const double target = std::ceil(q * static_cast<double>(t.count[p]));
  double seen = static_cast<double>(t.buckets[p][0]);  // 0 ns samples
  for (std::size_t b = 1; b < pfp::util::kPhaseBucketCount; ++b) {
    const auto in_bucket = static_cast<double>(t.buckets[p][b]);
    if (in_bucket > 0 && seen + in_bucket >= target) {
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo + lo * std::max(0.0, target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return 0.0;
}

/// phase.<label>.<name>.{count,total_ns,p99_ns} for every engine phase.
void record_phases(Record& rec, const std::string& label,
                   const pfp::obs::PhaseTiming& t) {
  for (std::size_t p = 0; p < pfp::util::kEnginePhaseCount; ++p) {
    const auto phase = static_cast<EnginePhase>(p);
    const std::string key =
        "phase." + label + "." + pfp::util::kEnginePhaseNames[p];
    rec.num(key + ".count", static_cast<double>(t.count[p]));
    rec.num(key + ".total_ns", static_cast<double>(t.total_ns[p]));
    rec.num(key + ".p99_ns", phase_quantile_ns(t, phase, 0.99));
  }
}

std::vector<trace::BlockId> block_stream(const trace::Trace& t) {
  std::vector<trace::BlockId> blocks;
  blocks.reserve(t.size());
  for (const trace::TraceRecord& r : t.records()) {
    blocks.push_back(r.block);
  }
  return blocks;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// replay-cad: the paper's headline configuration, in process.

engine::EngineConfig cad_config(bool phase_timers) {
  engine::EngineConfig config;
  config.cache_blocks = kCacheBlocks;
  config.policy.kind = pfp::core::policy::PolicyKind::kTreeNextLimit;
  config.obs.phase_timers = phase_timers;
  return config;
}

/// Timed repetitions in one run: one per nominal second, split evenly
/// between untraced and traced repetitions in a traced run.
std::size_t repetitions(std::uint64_t seconds, bool traced) {
  return static_cast<std::size_t>(
      std::max<std::uint64_t>(2, traced ? seconds / 2 : seconds));
}

int run_replay(std::uint64_t seed, std::uint64_t seconds, bool traced,
               const std::string& out_dir) {
  Record rec;
  std::vector<double> gen_s;
  std::vector<trace::Trace> cads(kCadTraces);
  for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
    pfp::util::SplitMix64 mix(seed);
    const std::int64_t t0 = now_ns();
    for (trace::Trace& cad : cads) {
      cad = trace::make_workload(trace::Workload::kCad, kCadRefs, mix.next());
    }
    gen_s.push_back(ns_to_s(now_ns() - t0));
  }
  rec.num("setup_s", median(gen_s));
  rec.num("trace.gen_s", median(gen_s));

  // The timed window: a round is one run_trace call per trace, each on a
  // fresh engine, timing run_trace only.  With `timers` the engine's
  // phase timers are on (traced rounds).
  Gate gate;
  std::vector<wire::WireMetrics> first(cads.size());
  SpanLog log;
  pfp::obs::PhaseTiming phases;
  const std::size_t rounds = repetitions(seconds, traced);
  const auto run_rounds = [&](bool timers, std::vector<double>& call_ms,
                              std::vector<double>& round_s,
                              std::vector<double>& cpu_s) {
    for (std::size_t r = 0; r < rounds; ++r) {
      std::int64_t round_ns = 0;
      double round_cpu = 0.0;
      for (std::size_t k = 0; k < cads.size(); ++k) {
        engine::PrefetchEngine eng(cad_config(timers));
        const double cpu0 = self_cpu_seconds();
        const std::int64_t t0 = now_ns();
        eng.run_trace(cads[k]);
        const std::int64_t t1 = now_ns();
        round_cpu += self_cpu_seconds() - cpu0;
        round_ns += t1 - t0;
        call_ms.push_back(ns_to_ms(t1 - t0));
        const wire::WireMetrics m =
            pfp::server::to_wire_metrics(eng.metrics());
        if (r == 0 && !timers) {
          first[k] = m;
        } else {
          // A fresh engine over the same trace repeats exactly, and
          // timers never change a decision.
          gate.check(m == first[k], "run_trace of trace " + std::to_string(k));
        }
        if (timers) {
          log.add(Layer::kRunTrace, OpType::kRunTrace,
                  static_cast<std::uint32_t>(r * cads.size() + k), t0, t1);
          if (r == 0) {
            phases.merge(eng.stats().phases);
          }
        }
      }
      round_s.push_back(ns_to_s(round_ns));
      cpu_s.push_back(round_cpu);
    }
  };
  std::vector<double> call_ms;
  std::vector<double> round_s;
  std::vector<double> cpu_s;
  run_rounds(false, call_ms, round_s, cpu_s);
  const wire::WireMetrics total = sum_metrics(first);
  std::uint64_t refs = 0;
  for (std::size_t k = 0; k < cads.size(); ++k) {
    refs += cads[k].size();
    gate.check(first[k].accesses == cads[k].size() &&
                   first[k].demand_hits + first[k].prefetch_hits +
                           first[k].misses ==
                       first[k].accesses,
               "run_trace access count");
  }
  write_samples(out_dir + "/batch_ms.txt", {call_ms});
  rec.num("window_s", median(round_s));
  rec.num("accesses_per_rep", static_cast<double>(refs));
  rec.num("cpu_s", median(cpu_s));
  rec.num("peak_rss_mb", peak_rss_mib(0));
  record_metrics(rec, total);
  rec.num("error_replies", 0);
  rec.num("backpressure_flags", 0);

  if (traced) {
    // Untimed reference: run_trace must equal an access_many replay.
    for (std::size_t k = 0; k < cads.size(); ++k) {
      engine::PrefetchEngine eng(cad_config(false));
      const std::vector<trace::BlockId> blocks = block_stream(cads[k]);
      for (std::size_t at = 0; at < blocks.size(); at += 256) {
        const std::size_t n = std::min<std::size_t>(256, blocks.size() - at);
        (void)eng.access_many(std::span(blocks).subspan(at, n));
      }
      gate.check(pfp::server::to_wire_metrics(eng.metrics()) == first[k],
                 "access_many replay vs run_trace");
    }
    std::vector<double> timed_call_ms;
    std::vector<double> timed_round_s;
    std::vector<double> timed_cpu_s;
    run_rounds(true, timed_call_ms, timed_round_s, timed_cpu_s);
    record_phases(rec, "all", phases);
    record_phases(rec, "tree-next-limit", phases);
    rec.num("engine.run_trace_s", median(call_ms) / 1e3);
    rec.num("traced.window_s", median(timed_round_s));
    log.write_csv(out_dir + "/spans.csv");
  }
  rec.num("attempted",
          static_cast<double>((traced ? 2 : 1) * rounds * cads.size()));
  rec.num("failed", static_cast<double>(gate.failures()));
  rec.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// Served workloads: the op plan.

struct TenantPlan {
  std::uint16_t id = 0;
  std::string name;
  std::string policy;
  std::uint32_t shards = 0;
  trace::Workload source = trace::Workload::kSitar;
  std::uint64_t refs = 0;
  /// The stream is this many independently seeded traces back to back, so
  /// the miss rate averages over several draws of the generator.
  std::uint64_t segments = 1;
  std::vector<trace::BlockId> stream;
};

struct Op {
  OpType type = OpType::kAccessMany;
  std::size_t tenant = 0;  ///< index into Plan::tenants
  std::uint32_t serial = 0;
  std::size_t offset = 0;  ///< ACCESS_MANY: slice of the tenant stream
  std::size_t count = 0;
  bool traced = false;  ///< spans kept for this op in a traced pass
};

struct Plan {
  std::vector<TenantPlan> tenants;
  std::vector<std::vector<Op>> conns;  ///< one op list per connection
};

/// One repetition's ops, from the workload name alone; the seed only picks
/// the streams, which generate_streams fills in during set-up.
Plan make_plan(const std::string& workload) {
  Plan plan;
  std::size_t frame = 0;
  std::uint32_t serial = 1;
  // Adds the frame starting at `at` if the tenant's stream reaches it.
  const auto add_frame = [&](std::vector<Op>& ops, std::size_t tenant,
                             std::size_t at) {
    const auto refs = static_cast<std::size_t>(plan.tenants[tenant].refs);
    if (at >= refs) {
      return false;
    }
    ops.push_back(Op{OpType::kAccessMany, tenant, serial++, at,
                     std::min(frame, refs - at), false});
    return true;
  };
  const auto add_op = [&](std::vector<Op>& ops, OpType type,
                          std::size_t tenant) {
    ops.push_back(Op{type, tenant, serial++, 0, 0, true});
  };
  if (workload == "served-small") {
    frame = 16;
    for (std::uint16_t id = 1; id <= 2; ++id) {
      plan.tenants.push_back({id, "s" + std::to_string(id), "next-limit", 0,
                              trace::Workload::kSitar, kSmallRefs,
                              kSmallSegments, {}});
    }
    plan.conns.resize(2);
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t at = 0; at < kSmallRefs; at += frame) {
        add_frame(plan.conns[t], t, at);
      }
      add_op(plan.conns[t], OpType::kStats, t);
    }
  } else if (workload == "served-mixed") {
    frame = 256;
    plan.tenants.push_back({1, "A", "tree-next-limit", 0,
                            trace::Workload::kCello, 2 * kMixedRefsB, 1, {}});
    plan.tenants.push_back(
        {2, "B", "markov", 2, trace::Workload::kSnake, kMixedRefsB, 1, {}});
    plan.conns.resize(1);
    std::vector<Op>& ops = plan.conns[0];
    // Two A frames, then one B frame.
    const std::size_t rounds = (kMixedRefsB + frame - 1) / frame;
    std::size_t sent = 0;
    for (std::size_t i = 0; i < rounds; ++i) {
      for (const auto& [tenant, at] :
           {std::pair<std::size_t, std::size_t>{0, 2 * i * frame},
            {0, (2 * i + 1) * frame},
            {1, i * frame}}) {
        if (add_frame(ops, tenant, at) && ++sent % kControlEvery == 0) {
          add_op(ops, OpType::kStats, 0);
          add_op(ops, OpType::kStats, 1);
          add_op(ops, OpType::kScrape, 0);
        }
      }
      if (i + 1 == rounds / 2) {
        add_op(ops, OpType::kSnapshot, 0);
        add_op(ops, OpType::kRestore, 0);
      }
    }
    add_op(ops, OpType::kStats, 0);
    add_op(ops, OpType::kStats, 1);
  } else {
    throw std::invalid_argument("pfbench: unknown workload '" + workload + "'");
  }
  for (std::vector<Op>& ops : plan.conns) {
    const auto frames = static_cast<std::size_t>(std::count_if(
        ops.begin(), ops.end(),
        [](const Op& op) { return op.type == OpType::kAccessMany; }));
    const std::size_t stride =
        std::max<std::size_t>(1, frames / kTracedFramesPerConn);
    std::size_t k = 0;
    for (Op& op : ops) {
      if (op.type == OpType::kAccessMany) {
        op.traced = k++ % stride == 0;
      }
    }
  }
  return plan;
}

void generate_streams(Plan& plan, std::uint64_t seed) {
  pfp::util::SplitMix64 mix(seed);
  for (TenantPlan& t : plan.tenants) {
    t.stream.clear();
    for (std::uint64_t s = 0; s < t.segments; ++s) {
      const std::vector<trace::BlockId> part = block_stream(
          trace::make_workload(t.source, t.refs / t.segments, mix.next()));
      t.stream.insert(t.stream.end(), part.begin(), part.end());
    }
    if (t.stream.size() != t.refs) {
      throw std::runtime_error("pfbench: " + t.name + "'s stream is short");
    }
  }
}

engine::TenantConfig tenant_config(const TenantPlan& t, bool phase_timers) {
  engine::TenantConfig config;
  config.name = t.name;
  config.engine.cache_blocks = kCacheBlocks;
  config.engine.obs.phase_timers = phase_timers;
  config.shards = t.shards;
  std::string detail;
  if (engine::set_policy_by_name(config, t.policy, &detail) !=
      engine::TenantStatus::kOk) {
    throw std::invalid_argument("pfbench: " + detail);
  }
  return config;
}

wire::MsgType request_type(OpType op) {
  switch (op) {
    case OpType::kAccessMany:
      return wire::MsgType::kAccessMany;
    case OpType::kStats:
      return wire::MsgType::kStats;
    case OpType::kSnapshot:
      return wire::MsgType::kSnapshot;
    case OpType::kRestore:
      return wire::MsgType::kRestore;
    default:
      break;
  }
  throw std::logic_error("pfbench: op has no PFP1 request type");
}

/// The reply type a successful request of this kind gets.
wire::MsgType reply_type(OpType op) {
  return static_cast<wire::MsgType>(
      static_cast<std::uint8_t>(request_type(op)) | 0x80);
}

/// Builds one request frame into `frame` (payload scratch in `payload`).
void encode_request(std::vector<std::uint8_t>& frame,
                    std::vector<std::uint8_t>& payload, const Plan& plan,
                    const Op& op, std::span<const std::uint8_t> restore_blob) {
  payload.clear();
  if (op.type == OpType::kAccessMany) {
    const std::vector<trace::BlockId>& stream = plan.tenants[op.tenant].stream;
    wire::put_u32(payload, static_cast<std::uint32_t>(op.count));
    for (std::size_t i = 0; i < op.count; ++i) {
      wire::put_u64(payload, stream[op.offset + i]);
    }
  } else if (op.type == OpType::kRestore) {
    payload.assign(restore_blob.begin(), restore_blob.end());
  }
  wire::FrameHeader header;
  header.type = request_type(op.type);
  header.tenant = plan.tenants[op.tenant].id;
  header.serial = op.serial;
  frame.clear();
  wire::append_frame(frame, header, payload);
}

// ---------------------------------------------------------------------------
// Served workloads: the client.

/// Blocking request/reply connection; the reply buffer is reused.
class Conn {
 public:
  explicit Conn(std::uint16_t port) : sock_(net::connect_tcp(port)) {}

  void send(std::span<const std::uint8_t> frame) {
    if (!net::write_all(sock_, frame)) {
      throw std::runtime_error("pfbench: send failed");
    }
  }

  /// Blocks for one whole reply frame; the frame views an internal buffer
  /// that the next recv() overwrites.
  wire::Frame recv() {
    rx_.resize(wire::kHeaderSize);
    if (!net::read_exact(sock_, rx_)) {
      throw std::runtime_error("pfbench: connection closed mid-reply");
    }
    const std::uint32_t len = static_cast<std::uint32_t>(rx_[8]) |
                              (static_cast<std::uint32_t>(rx_[9]) << 8) |
                              (static_cast<std::uint32_t>(rx_[10]) << 16) |
                              (static_cast<std::uint32_t>(rx_[11]) << 24);
    if (len > wire::kMaxPayload) {
      throw std::runtime_error("pfbench: oversized reply");
    }
    rx_.resize(wire::kHeaderSize + len);
    if (len > 0 && !net::read_exact(sock_, std::span<std::uint8_t>(rx_).subspan(
                                               wire::kHeaderSize))) {
      throw std::runtime_error("pfbench: connection closed mid-payload");
    }
    const wire::DecodeResult decoded = wire::decode(rx_);
    if (decoded.status != wire::DecodeStatus::kFrame) {
      throw std::runtime_error("pfbench: reply failed to frame");
    }
    return decoded.frame;
  }

 private:
  net::Socket sock_;
  std::vector<std::uint8_t> rx_;
};

/// One GET /metrics over a fresh connection (the server answers HTTP on
/// the PFP1 port and closes).  Returns the whole response.
std::string scrape_metrics(std::uint16_t port) {
  const net::Socket sock = net::connect_tcp(port);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  if (!net::write_all(sock, std::span(reinterpret_cast<const std::uint8_t*>(
                                          request.data()),
                                      request.size()))) {
    throw std::runtime_error("pfbench: scrape send failed");
  }
  std::string response;
  std::array<std::uint8_t, 16384> buf{};
  for (;;) {
    const net::IoResult r = net::read_some(sock, buf);
    if (r.status == net::IoStatus::kClosed) {
      return response;
    }
    if (r.status != net::IoStatus::kOk) {
      throw std::runtime_error("pfbench: scrape read failed");
    }
    response.append(reinterpret_cast<const char*>(buf.data()), r.bytes);
  }
}

/// What one connection saw, kept for the correctness gate.
struct ConnResult {
  std::vector<double> batch_ms;  ///< ACCESS_MANY round trips
  /// Per op, in plan order: the reply header type and flags, and the
  /// parsed payload for the op kinds that carry one.
  std::vector<wire::MsgType> reply_type;
  std::vector<std::uint8_t> reply_flags;
  std::vector<wire::BatchReply> batches;  ///< per ACCESS_MANY op
  std::vector<wire::WireMetrics> stats;   ///< per STATS op
  std::vector<std::uint8_t> snapshot;     ///< last SNAPSHOT blob
  std::vector<std::string> scrapes;       ///< /metrics responses
  std::vector<std::int64_t> recv_span;  ///< per op, -1 when untraced
  std::uint64_t accesses = 0;
  std::uint64_t error_replies = 0;
  std::uint64_t backpressure_flags = 0;
  std::int64_t first_send_ns = 0;
  std::int64_t last_reply_ns = 0;
  SpanLog spans;
};

/// Drives one connection's op list closed-loop.  With `trace` set, spans
/// wrap each traced frame's encode, send, receive and decode.
void drive(Conn& conn, std::uint16_t port, const Plan& plan,
           const std::vector<Op>& ops, bool trace, ConnResult& out) {
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> payload;
  out.batch_ms.reserve(ops.size());
  out.batches.reserve(ops.size());
  out.reply_type.reserve(ops.size());
  out.reply_flags.reserve(ops.size());
  out.recv_span.reserve(ops.size());
  bool started = false;
  for (const Op& op : ops) {
    const bool spans = trace && op.traced;
    if (op.type == OpType::kScrape) {
      const std::int64_t t0 = now_ns();
      out.scrapes.push_back(scrape_metrics(port));
      const std::int64_t t1 = now_ns();
      out.reply_type.push_back(wire::MsgType::kPing);  // no PFP1 reply
      out.reply_flags.push_back(0);
      out.recv_span.push_back(
          spans ? out.spans.add(Layer::kScrape, op.type, op.serial, t0, t1)
                : -1);
      continue;
    }
    const std::int64_t t0 = now_ns();
    if (!started) {
      out.first_send_ns = t0;
      started = true;
    }
    encode_request(frame, payload, plan, op, out.snapshot);
    const std::int64_t t1 = spans ? now_ns() : 0;
    conn.send(frame);
    const std::int64_t t2 = spans ? now_ns() : 0;
    const wire::Frame reply = conn.recv();
    const std::int64_t t3 = spans ? now_ns() : 0;
    const wire::MsgType expected = reply_type(op.type);
    out.reply_type.push_back(reply.header.serial == op.serial
                                 ? reply.header.type
                                 : wire::MsgType::kError);
    out.reply_flags.push_back(reply.header.flags);
    if (reply.header.type == wire::MsgType::kError) {
      ++out.error_replies;
    }
    if ((reply.header.flags & wire::kFlagBackpressure) != 0) {
      ++out.backpressure_flags;
    }
    if (reply.header.type == expected) {
      if (op.type == OpType::kAccessMany) {
        out.batches.push_back(
            wire::parse_batch_reply(reply.payload).value_or(wire::BatchReply{}));
      } else if (op.type == OpType::kStats) {
        out.stats.push_back(
            wire::parse_metrics(reply.payload).value_or(wire::WireMetrics{}));
      } else if (op.type == OpType::kSnapshot) {
        out.snapshot.assign(reply.payload.begin(), reply.payload.end());
      }
    } else if (op.type == OpType::kAccessMany) {
      out.batches.push_back(wire::BatchReply{});
    } else if (op.type == OpType::kStats) {
      out.stats.push_back(wire::WireMetrics{});
    }
    const std::int64_t t4 = now_ns();
    out.last_reply_ns = t4;
    if (op.type == OpType::kAccessMany) {
      out.batch_ms.push_back(ns_to_ms(t4 - t0));
      out.accesses += op.count;
    }
    if (spans) {
      const std::int64_t root =
          out.spans.add(Layer::kClientFrame, op.type, op.serial, t0, t4);
      out.spans.add(Layer::kClientEncode, op.type, op.serial, t0, t1, root);
      out.spans.add(Layer::kClientSend, op.type, op.serial, t1, t2, root);
      out.recv_span.push_back(
          out.spans.add(Layer::kClientRecv, op.type, op.serial, t2, t3, root));
      out.spans.add(Layer::kClientDecode, op.type, op.serial, t3, t4, root);
    } else {
      out.recv_span.push_back(-1);
    }
  }
}

/// One connection per op list, with every tenant opened over the
/// connection that drives it.
std::vector<std::unique_ptr<Conn>> connect_and_open(std::uint16_t port,
                                                    const Plan& plan) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    conns.push_back(std::make_unique<Conn>(port));
  }
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> frame;
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    std::vector<bool> opened(plan.tenants.size(), false);
    for (const Op& op : plan.conns[c]) {
      if (opened[op.tenant]) {
        continue;
      }
      opened[op.tenant] = true;
      const TenantPlan& t = plan.tenants[op.tenant];
      wire::TenantOpenRequest open;
      open.name = t.name;
      open.policy = t.policy;
      open.cache_blocks = kCacheBlocks;
      open.shards = t.shards;
      payload.clear();
      wire::encode_tenant_open(payload, open);
      wire::FrameHeader header;
      header.type = wire::MsgType::kTenantOpen;
      header.tenant = t.id;
      frame.clear();
      wire::append_frame(frame, header, payload);
      conns[c]->send(frame);
      if (conns[c]->recv().header.type != wire::MsgType::kTenantOpenReply) {
        throw std::runtime_error("pfbench: TENANT_OPEN " + t.name + " failed");
      }
    }
  }
  return conns;
}

void close_tenants(std::vector<std::unique_ptr<Conn>>& conns,
                   const Plan& plan) {
  std::vector<std::uint8_t> frame;
  for (const TenantPlan& t : plan.tenants) {
    wire::FrameHeader header;
    header.type = wire::MsgType::kTenantClose;
    header.tenant = t.id;
    frame.clear();
    wire::append_frame(frame, header, {});
    conns[0]->send(frame);
    if (conns[0]->recv().header.type != wire::MsgType::kTenantCloseReply) {
      throw std::runtime_error("pfbench: TENANT_CLOSE " + t.name + " failed");
    }
  }
}

struct Pass {
  std::vector<ConnResult> results;
  std::int64_t window_ns = 0;
  double server_cpu_s = 0.0;
  double steal = 0.0;  ///< machine-wide steal fraction over the pass
};

/// Connects, opens the tenants, then runs every connection on its own
/// thread between one start latch and the last final STATS reply.
Pass run_pass(std::uint16_t port, long server_pid, const Plan& plan,
              bool trace, double* open_s) {
  const std::int64_t t_open = now_ns();
  std::vector<std::unique_ptr<Conn>> conns = connect_and_open(port, plan);
  if (open_s != nullptr) {
    *open_s = ns_to_s(now_ns() - t_open);
  }
  Pass pass;
  pass.results.resize(plan.conns.size());
  const double cpu0 = process_cpu_seconds(server_pid);
  const MachineTicks ticks0 = machine_ticks();
  std::latch start(1);
  std::vector<std::string> errors(plan.conns.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      start.wait();
      try {
        drive(*conns[c], port, plan, plan.conns[c], trace, pass.results[c]);
      } catch (const std::exception& err) {
        errors[c] = err.what();
      }
    });
  }
  start.count_down();
  for (std::thread& t : threads) {
    t.join();
  }
  pass.server_cpu_s = process_cpu_seconds(server_pid) - cpu0;
  pass.steal = steal_fraction(ticks0, machine_ticks());
  for (const std::string& e : errors) {
    if (!e.empty()) {
      throw std::runtime_error(e);
    }
  }
  std::int64_t first = pass.results[0].first_send_ns;
  std::int64_t last = pass.results[0].last_reply_ns;
  for (const ConnResult& r : pass.results) {
    first = std::min(first, r.first_send_ns);
    last = std::max(last, r.last_reply_ns);
  }
  pass.window_ns = last - first;
  close_tenants(conns, plan);
  return pass;
}

// ---------------------------------------------------------------------------
// Served workloads: in-process replays of the same op sequence.

/// A /metrics response must be a 200 with a series for every tenant.
bool scrape_ok(const Plan& plan, const std::string& response) {
  bool ok = response.rfind("HTTP/1.1 200", 0) == 0;
  for (const TenantPlan& t : plan.tenants) {
    ok = ok && response.find("pfp_accesses_total{tenant=\"" + t.name + "\"") !=
                   std::string::npos;
  }
  return ok;
}

/// The correctness gate: replays every connection's ops through fresh
/// in-process engine::Tenants and counts each served reply that differs —
/// plain-tenant ACCESS_MANY counts, every STATS (bit for bit), the
/// SNAPSHOT blob, a RESTORE that the engine rejects, a failed scrape.
void verify_pass(const Plan& plan, const Pass& pass, Gate& gate) {
  std::vector<std::unique_ptr<engine::Tenant>> tenants;
  for (const TenantPlan& t : plan.tenants) {
    tenants.push_back(std::make_unique<engine::Tenant>(tenant_config(t, false)));
  }
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    const ConnResult& got = pass.results[c];
    std::size_t batch = 0;
    std::size_t stat = 0;
    std::size_t scrape = 0;
    std::string blob;
    for (std::size_t i = 0; i < plan.conns[c].size(); ++i) {
      const Op& op = plan.conns[c][i];
      const std::string where = "serial " + std::to_string(op.serial) + " " +
                                kOpNames[static_cast<std::size_t>(op.type)];
      engine::Tenant& tenant = *tenants[op.tenant];
      pfp::util::MutexLock lock(tenant.mu());
      switch (op.type) {
        case OpType::kAccessMany: {
          const engine::BatchResult r = tenant.access_many(std::span(
              plan.tenants[op.tenant].stream).subspan(op.offset, op.count));
          const wire::BatchReply& served = got.batches[batch++];
          const bool async = (got.reply_flags[i] & wire::kFlagAsync) != 0;
          gate.check(tenant.sharded()
                         ? async
                         : r.demand_hits == served.demand_hits &&
                               r.prefetch_hits == served.prefetch_hits &&
                               r.misses == served.misses &&
                               r.latency_ms == served.latency_ms,
                     where);
          break;
        }
        case OpType::kStats:
          gate.check(pfp::server::to_wire_metrics(tenant.metrics()) ==
                         got.stats[stat++],
                     where);
          break;
        case OpType::kSnapshot: {
          std::ostringstream out;
          std::string detail;
          (void)tenant.snapshot(out, &detail);
          blob = std::move(out).str();
          gate.check(blob.size() == got.snapshot.size() &&
                         std::memcmp(blob.data(), got.snapshot.data(),
                                     blob.size()) == 0,
                     where);
          break;
        }
        case OpType::kRestore: {
          std::istringstream in(blob);
          std::string detail;
          gate.check(tenant.restore(in, &detail) == engine::TenantStatus::kOk,
                     where + ": " + detail);
          break;
        }
        case OpType::kScrape:
          gate.check(scrape_ok(plan, got.scrapes[scrape++]), where);
          break;
        case OpType::kRunTrace:
          break;
      }
      if (op.type != OpType::kScrape) {
        gate.check(got.reply_type[i] == reply_type(op.type),
                   where + " reply type");
      }
    }
  }
}

/// Prometheus page over in-process tenants, built the way
/// PrefetchServer::render_metrics builds it.
std::string render_like_server(
    const std::vector<std::pair<std::uint16_t, std::shared_ptr<engine::Tenant>>>&
        tenants) {
  std::vector<pfp::obs::LabeledStats> views;
  for (const auto& [id, tenant] : tenants) {
    pfp::obs::LabeledStats view;
    view.labels.push_back(pfp::obs::Label{"tenant", tenant->name()});
    view.labels.push_back(pfp::obs::Label{"tenant_id", std::to_string(id)});
    view.stats = tenant->stats();
    views.push_back(std::move(view));
  }
  std::ostringstream out;
  pfp::obs::render_prometheus(out,
                              std::span<const pfp::obs::LabeledStats>(views));
  return std::move(out).str();
}

/// One in-process timing of one op, keeping the shortest of the repeats.
struct Timing {
  std::int64_t start = 0;
  std::int64_t ns = -1;  ///< -1 until timed

  void keep(std::int64_t t0, std::int64_t t1) {
    if (ns < 0 || t1 - t0 < ns) {
      start = t0;
      ns = t1 - t0;
    }
  }
};

/// The in-process layer timings of one op.  For a scrape op `session`
/// holds the /metrics render and `tenant` the stats() reads it makes.
struct OpTimes {
  Timing session;
  Timing decode;
  Timing tenant;
  Timing encode;
};

double mean_ms(const std::vector<std::int64_t>& ns) {
  double sum = 0.0;
  for (const std::int64_t x : ns) {
    sum += ns_to_ms(x);
  }
  return ns.empty() ? 0.0 : sum / static_cast<double>(ns.size());
}

/// Layer-by-layer replay of a traced repetition's frames through the
/// public calls each layer makes: Session::ingest on an in-process
/// registry, wire::decode, the Tenant call, the reply encode.  Each pass
/// times one layer over every frame; the passes run kLayerRepeats times
/// in turn and each op keeps its shortest time per layer, so slow drift
/// of the machine between passes does not land in one layer's self time.
/// Then the Tenant calls run once more with the engine's phase timers on.
/// Spans hang under the served frame's client.recv span (the session) or
/// under the session span (decode, tenant, encode); self time subtracts
/// by durations.  Every in-process reply is checked against the served
/// one.
void replay_layers(const Plan& plan, const Pass& pass, SpanLog& log,
                   const std::vector<std::int64_t>& span_offset, Record& rec,
                   Gate& gate) {
  std::vector<std::vector<OpTimes>> times(plan.conns.size());
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    times[c].resize(plan.conns[c].size());
  }
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> payload;

  const auto ingest_pass = [&] {
    engine::TenantRegistry registry;
    const pfp::server::SessionConfig session_config;
    for (const TenantPlan& t : plan.tenants) {
      std::string detail;
      if (registry.open(t.id, tenant_config(t, false), &detail) !=
          engine::TenantStatus::kOk) {
        throw std::runtime_error("pfbench: in-process open: " + detail);
      }
    }
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      pfp::server::Session session(registry, session_config);
      std::vector<std::uint8_t> blob;
      std::size_t stat = 0;
      for (std::size_t i = 0; i < plan.conns[c].size(); ++i) {
        const Op& op = plan.conns[c][i];
        if (op.type == OpType::kScrape) {
          const std::int64_t t0 = now_ns();
          const std::string page = render_like_server(registry.tenants());
          times[c][i].session.keep(t0, now_ns());
          gate.check(!page.empty(), "in-process render");
          continue;
        }
        encode_request(frame, payload, plan, op, blob);
        const std::int64_t t0 = now_ns();
        (void)session.ingest(frame);
        times[c][i].session.keep(t0, now_ns());
        const wire::DecodeResult reply = wire::decode(session.out());
        if (reply.status != wire::DecodeStatus::kFrame) {
          gate.check(false, "in-process reply framing");
        } else if (op.type == OpType::kStats) {
          gate.check(wire::parse_metrics(reply.frame.payload) ==
                         pass.results[c].stats[stat++],
                     "in-process STATS serial " + std::to_string(op.serial));
        } else if (op.type == OpType::kSnapshot) {
          blob.assign(reply.frame.payload.begin(), reply.frame.payload.end());
          gate.check(blob == pass.results[c].snapshot, "in-process SNAPSHOT");
        }
        session.consumed(session.out().size());
      }
    }
  };

  const auto decode_pass = [&] {
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      for (std::size_t i = 0; i < plan.conns[c].size(); ++i) {
        const Op& op = plan.conns[c][i];
        if (op.type == OpType::kScrape) {
          continue;
        }
        encode_request(frame, payload, plan, op, pass.results[c].snapshot);
        const std::int64_t t0 = now_ns();
        const wire::DecodeResult decoded = wire::decode(frame);
        times[c][i].decode.keep(t0, now_ns());
        gate.check(decoded.status == wire::DecodeStatus::kFrame,
                   "wire::decode");
      }
    }
  };

  // The tenant calls the session makes, on fresh tenants; the results
  // feed the encode pass.  With `timers` the phase timers are on and only
  // the phase histograms are kept.
  struct TenantOut {
    std::vector<engine::BatchResult> batches;
    std::vector<engine::Metrics> metrics;
    std::string blob;
  };
  std::vector<TenantOut> outs;
  std::uint64_t queue_max = 0;
  std::uint64_t queue_waits = 0;
  double stats_inconsistent = 0;
  std::vector<wire::WireMetrics> tenant_final;
  const auto tenant_pass = [&](bool timers) {
    std::vector<std::unique_ptr<engine::Tenant>> tenants;
    for (const TenantPlan& t : plan.tenants) {
      tenants.push_back(
          std::make_unique<engine::Tenant>(tenant_config(t, timers)));
    }
    outs.assign(plan.conns.size(), TenantOut{});
    // RESTORE swaps in a fresh engine with fresh phase cells, so the
    // phases timed before it are banked here.
    std::vector<pfp::obs::PhaseTiming> banked(tenants.size());
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      for (std::size_t i = 0; i < plan.conns[c].size(); ++i) {
        const Op& op = plan.conns[c][i];
        engine::Tenant& tenant = *tenants[op.tenant];
        if (op.type == OpType::kScrape) {
          // The reads a /metrics render makes: every tenant's stats().
          const std::int64_t t0 = now_ns();
          for (const auto& each : tenants) {
            stats_inconsistent += each->stats().consistent ? 0.0 : 1.0;
          }
          if (!timers) {
            times[c][i].tenant.keep(t0, now_ns());
          }
          continue;
        }
        if (op.type == OpType::kRestore && timers) {
          banked[op.tenant].merge(tenant.stats().phases);
        }
        const std::int64_t t0 = now_ns();
        {
          pfp::util::MutexLock lock(tenant.mu());
          switch (op.type) {
            case OpType::kAccessMany:
              outs[c].batches.push_back(tenant.access_many(std::span(
                  plan.tenants[op.tenant].stream).subspan(op.offset, op.count)));
              break;
            case OpType::kStats:
              outs[c].metrics.push_back(tenant.metrics());
              break;
            case OpType::kSnapshot: {
              std::ostringstream out;
              std::string detail;
              (void)tenant.snapshot(out, &detail);
              outs[c].blob = std::move(out).str();
              break;
            }
            case OpType::kRestore: {
              std::istringstream in(outs[c].blob);
              std::string detail;
              gate.check(tenant.restore(in, &detail) ==
                             engine::TenantStatus::kOk,
                         "in-process RESTORE: " + detail);
              break;
            }
            default:
              break;
          }
        }
        const std::int64_t t1 = now_ns();
        if (!timers) {
          times[c][i].tenant.keep(t0, t1);
          if (op.type == OpType::kAccessMany && tenant.sharded()) {
            queue_max = std::max(queue_max, tenant.stats().queue_occupancy);
          }
        }
      }
    }
    std::vector<wire::WireMetrics> finals;
    pfp::obs::PhaseTiming all;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      {
        pfp::util::MutexLock lock(tenants[t]->mu());
        finals.push_back(pfp::server::to_wire_metrics(tenants[t]->metrics()));
      }
      // stats() locks a plain tenant itself.
      const pfp::obs::EngineStats stats = tenants[t]->stats();
      if (timers) {
        banked[t].merge(stats.phases);
        all.merge(banked[t]);
        record_phases(rec, plan.tenants[t].policy, banked[t]);
      } else {
        queue_waits = std::max(queue_waits, stats.queue_backpressure_waits);
      }
    }
    if (timers) {
      record_phases(rec, "all", all);
    }
    if (tenant_final.empty()) {
      tenant_final = finals;
    } else {
      // Repeats and phase timers never change a decision.
      gate.check(finals == tenant_final, "in-process tenant replay repeat");
    }
  };

  const auto encode_pass = [&] {
    std::vector<std::uint8_t> out;
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      std::size_t batch = 0;
      std::size_t stat = 0;
      for (std::size_t i = 0; i < plan.conns[c].size(); ++i) {
        const Op& op = plan.conns[c][i];
        if (op.type == OpType::kScrape) {
          continue;
        }
        wire::FrameHeader header;
        header.type = reply_type(op.type);
        header.tenant = plan.tenants[op.tenant].id;
        header.serial = op.serial;
        out.clear();
        const std::int64_t t0 = now_ns();
        payload.clear();
        if (op.type == OpType::kAccessMany) {
          const engine::BatchResult& r = outs[c].batches[batch++];
          wire::encode_batch_reply(
              payload, wire::BatchReply{r.demand_hits, r.prefetch_hits,
                                        r.misses, r.latency_ms});
          wire::append_frame(out, header, payload);
        } else if (op.type == OpType::kStats) {
          wire::encode_metrics(
              payload, pfp::server::to_wire_metrics(outs[c].metrics[stat++]));
          wire::append_frame(out, header, payload);
        } else if (op.type == OpType::kSnapshot) {
          wire::append_frame(out, header,
                             std::span(reinterpret_cast<const std::uint8_t*>(
                                           outs[c].blob.data()),
                                       outs[c].blob.size()));
        } else {
          wire::append_frame(out, header, payload);
        }
        times[c][i].encode.keep(t0, now_ns());
      }
    }
  };

  for (std::size_t r = 0; r < kLayerRepeats; ++r) {
    ingest_pass();
    decode_pass();
    tenant_pass(false);
    encode_pass();
  }
  tenant_pass(true);

  // Spans for the traced ops, and the control-plane layer numbers.
  std::vector<std::int64_t> render_ns;
  std::vector<std::int64_t> reads_ns;
  std::vector<std::int64_t> flush_ns;
  std::vector<std::int64_t> snapshot_ns;
  std::vector<std::int64_t> restore_ns;
  double blob_bytes = 0;
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    blob_bytes = std::max(blob_bytes, static_cast<double>(outs[c].blob.size()));
    for (std::size_t i = 0; i < plan.conns[c].size(); ++i) {
      const Op& op = plan.conns[c][i];
      const OpTimes& t = times[c][i];
      const auto span_of = [&](Layer layer, const Timing& timing,
                               std::int64_t parent) {
        return log.add(layer, op.type, op.serial, timing.start,
                       timing.start + timing.ns, parent);
      };
      const std::int64_t recv = pass.results[c].recv_span[i];
      const std::int64_t parent = recv < 0 ? -1 : recv + span_offset[c];
      if (op.type == OpType::kScrape) {
        render_ns.push_back(t.session.ns);
        reads_ns.push_back(t.tenant.ns /
                           static_cast<std::int64_t>(plan.tenants.size()));
        span_of(Layer::kRender, t.session, parent);
        continue;
      }
      if (op.type == OpType::kStats && plan.tenants[op.tenant].shards >= 2) {
        flush_ns.push_back(t.tenant.ns);
      } else if (op.type == OpType::kSnapshot) {
        snapshot_ns.push_back(t.tenant.ns);
      } else if (op.type == OpType::kRestore) {
        restore_ns.push_back(t.tenant.ns);
      }
      if (op.traced) {
        const std::int64_t session = span_of(Layer::kSession, t.session, parent);
        span_of(Layer::kWireDecode, t.decode, session);
        span_of(Layer::kTenant, t.tenant, session);
        span_of(Layer::kWireEncode, t.encode, session);
      }
    }
  }
  rec.num("engine.metrics_flush_ms", mean_ms(flush_ns));
  rec.num("engine.snapshot_ms", mean_ms(snapshot_ns));
  rec.num("engine.restore_ms", mean_ms(restore_ns));
  rec.num("engine.snapshot_bytes", blob_bytes);
  rec.num("engine.shard_queue_occupancy_max", static_cast<double>(queue_max));
  rec.num("engine.shard_backpressure_waits", static_cast<double>(queue_waits));
  rec.num("obs.stats_read_us", mean_ms(reads_ns) * 1e3);
  rec.num("obs.render_metrics_ms", mean_ms(render_ns));
  rec.num("obs.stats_inconsistent", stats_inconsistent);
}

/// Every repetition replays the same ops on fresh tenants, so its
/// replies must repeat the first repetition's exactly.
void check_repeat(const Plan& plan, const Pass& first, const Pass& again,
                  Gate& gate) {
  const auto same_batch = [](const wire::BatchReply& a,
                             const wire::BatchReply& b) {
    return a.demand_hits == b.demand_hits &&
           a.prefetch_hits == b.prefetch_hits && a.misses == b.misses &&
           a.latency_ms == b.latency_ms;
  };
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    const ConnResult& a = first.results[c];
    const ConnResult& b = again.results[c];
    gate.check(std::equal(a.batches.begin(), a.batches.end(),
                          b.batches.begin(), b.batches.end(), same_batch) &&
                   a.stats == b.stats && a.snapshot == b.snapshot &&
                   a.reply_type == b.reply_type,
               "repetition differs from the first on connection " +
                   std::to_string(c));
    for (const std::string& body : b.scrapes) {
      gate.check(scrape_ok(plan, body), "/metrics scrape");
    }
  }
}

int run_served(const std::string& workload, std::uint16_t port,
               long server_pid, std::uint64_t seed, std::uint64_t seconds,
               bool traced, bool setup_only, const std::string& out_dir) {
  Record rec;
  Plan plan = make_plan(workload);
  const std::int64_t t_gen = now_ns();
  generate_streams(plan, seed);
  rec.num("trace.gen_s", ns_to_s(now_ns() - t_gen));
  if (setup_only) {
    const std::int64_t t_open = now_ns();
    const std::vector<std::unique_ptr<Conn>> conns =
        connect_and_open(port, plan);
    rec.num("open_s", ns_to_s(now_ns() - t_open));
    rec.print(std::cout);
    return 0;
  }

  Gate gate;
  std::uint64_t errors = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t attempted = 0;
  const auto tally = [&](const Pass& pass) {
    for (std::size_t c = 0; c < plan.conns.size(); ++c) {
      const ConnResult& r = pass.results[c];
      errors += r.error_replies;
      backpressure += r.backpressure_flags;
      attempted += plan.conns[c].size();
    }
  };

  // Repetitions: untraced ones for the end-to-end numbers, then in a
  // traced run as many with client spans on.  The first is checked against
  // an in-process replay, every other one against the first.  While the
  // hypervisor steals CPU time from this machine a closed loop stalls on
  // every preempted thread, so a repetition that lost more than kMaxSteal
  // of the machine's CPU time is run again, up to kStealAttempts times the
  // count, and the least-stolen ones count (chosen by steal, never by their
  // own timings).
  struct Rep {
    double window_s = 0.0;
    double cpu_s = 0.0;
    double steal = 0.0;
    std::vector<double> batch_ms;  ///< pooled over connections
  };
  const std::size_t reps = repetitions(seconds, traced);
  double open_s = 0.0;
  Pass first;
  const auto run_reps = [&](bool trace, const std::string& label,
                            Pass* least_stolen) {
    std::vector<Rep> done;
    std::size_t clean = 0;
    while (clean < reps && done.size() < kStealAttempts * reps) {
      const bool verify = first.results.empty();
      Pass pass = run_pass(port, server_pid, plan, trace,
                           verify ? &open_s : nullptr);
      tally(pass);
      Rep& rep = done.emplace_back();
      rep.window_s = ns_to_s(pass.window_ns);
      rep.cpu_s = pass.server_cpu_s;
      rep.steal = pass.steal;
      for (const ConnResult& result : pass.results) {
        rep.batch_ms.insert(rep.batch_ms.end(), result.batch_ms.begin(),
                            result.batch_ms.end());
      }
      clean += pass.steal <= kMaxSteal ? 1 : 0;
      if (verify) {
        verify_pass(plan, pass, gate);
        first = std::move(pass);
        continue;
      }
      check_repeat(plan, first, pass, gate);
      if (least_stolen != nullptr &&
          (least_stolen->results.empty() || pass.steal < least_stolen->steal)) {
        *least_stolen = std::move(pass);
      }
    }
    std::vector<std::size_t> order(done.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return done[a].steal < done[b].steal;
    });
    order.resize(std::min(reps, order.size()));
    std::sort(order.begin(), order.end());
    std::vector<Rep> kept;
    double steal_max = 0.0;
    for (const std::size_t i : order) {
      steal_max = std::max(steal_max, done[i].steal);
      kept.push_back(std::move(done[i]));
    }
    rec.num(label + "reps_run", static_cast<double>(done.size()));
    rec.num(label + "steal_max", steal_max);
    return kept;
  };
  const auto windows = [](const std::vector<Rep>& kept) {
    std::vector<double> out;
    for (const Rep& rep : kept) {
      out.push_back(rep.window_s);
    }
    return out;
  };

  const std::vector<Rep> untraced = run_reps(false, "", nullptr);
  std::vector<double> cpu_s;
  std::vector<std::vector<double>> batch_ms;
  for (const Rep& rep : untraced) {
    cpu_s.push_back(rep.cpu_s);
    batch_ms.push_back(rep.batch_ms);
  }
  rec.num("open_s", open_s);
  rec.num("peak_rss_mb", peak_rss_mib(server_pid));
  rec.num("window_s", median(windows(untraced)));
  rec.num("cpu_s", median(cpu_s));
  write_samples(out_dir + "/batch_ms.txt", batch_ms);

  // The final STATS of each tenant: the last one per tenant in op order.
  std::vector<wire::WireMetrics> finals;
  std::uint64_t accesses = 0;
  for (std::size_t c = 0; c < plan.conns.size(); ++c) {
    accesses += first.results[c].accesses;
    std::vector<const wire::WireMetrics*> last(plan.tenants.size(), nullptr);
    std::size_t stat = 0;
    for (const Op& op : plan.conns[c]) {
      if (op.type == OpType::kStats) {
        last[op.tenant] = &first.results[c].stats[stat++];
      }
    }
    for (const wire::WireMetrics* m : last) {
      if (m != nullptr) {
        finals.push_back(*m);
      }
    }
  }
  rec.num("accesses_per_rep", static_cast<double>(accesses));
  record_metrics(rec, sum_metrics(finals));

  if (traced) {
    // The least-stolen traced repetition's frames are then replayed in
    // process, layer by layer.
    Pass spans;
    rec.num("traced.window_s",
            median(windows(run_reps(true, "traced.", &spans))));
    SpanLog log;
    std::vector<std::int64_t> offsets;
    for (const ConnResult& r : spans.results) {
      offsets.push_back(log.absorb(r.spans));
    }
    replay_layers(plan, spans, log, offsets, rec, gate);
    log.write_csv(out_dir + "/spans.csv");
  }
  rec.num("error_replies", static_cast<double>(errors));
  rec.num("backpressure_flags", static_cast<double>(backpressure));
  rec.num("attempted", static_cast<double>(attempted));
  rec.num("failed", static_cast<double>(errors + gate.failures()));
  rec.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pfbench replay-cad|served [options]\n";
    return 2;
  }
  const std::string mode = argv[1];
  pfp::util::Options options;
  options.add("workload", "", "served-small or served-mixed");
  options.add("port", "0", "pfp_server port (served)");
  options.add("server-pid", "0", "pfp_server pid, for CPU and peak RSS");
  options.add("seed", "1", "workload seed");
  options.add("seconds", "10", "nominal seconds of work");
  options.add("trace", "0", "1 = traced run (per-layer numbers)");
  options.add("out", ".", "directory for samples and spans");
  options.add_flag("setup-only", "generate streams, open tenants, exit");
  if (!options.parse(argc - 1, argv + 1)) {
    return 2;
  }
  const std::uint64_t seconds =
      std::max<std::uint64_t>(1, options.u64("seconds"));
  const bool traced = options.u64("trace") != 0;
  try {
    if (mode == "replay-cad") {
      return run_replay(options.u64("seed"), seconds, traced,
                        options.str("out"));
    }
    if (mode == "served") {
      return run_served(options.str("workload"),
                        static_cast<std::uint16_t>(options.u64("port")),
                        static_cast<long>(options.u64("server-pid")),
                        options.u64("seed"), seconds, traced,
                        options.flag("setup-only"), options.str("out"));
    }
    std::cerr << "pfbench: unknown mode '" << mode << "'\n";
    return 2;
  } catch (const std::exception& err) {
    std::cerr << err.what() << std::endl;
    return 1;
  }
}
