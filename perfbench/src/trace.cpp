// Per-layer metrics of netrev, timed from outside the program.
//
//   perfbench_trace --netrev <exe> --jobs <n> --seconds <s> --spans <path>
//                   <design.bench>...
//
// Every span wraps one public call of a netrev module (parser, netlist,
// wordrec, sim, lift, analysis, eval, pipeline) made from this file; the
// program itself is not instrumented beyond the counters it already keeps
// (perf::Profiler stage.*_ns and work counts, IdentifyStats, ArtifactCache
// hits/misses/evictions, the serve stats/health ops).  After one untimed
// warm-up identify of every design, one pass runs every layer over every
// design; passes repeat until --seconds have elapsed, at least twice, and
// each time metric is the median over passes.  Spans stay in memory and are written as JSON to
// --spans at exit.  The last stdout line is
//   {"passes":N,"attempted":N,"failed":N,"failures":[...],
//    "metrics":{name:value}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/dataflow.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "eval/reference.h"
#include "jsonout/jsonout.h"
#include "lift/lift.h"
#include "netlist/compact.h"
#include "parser/bench_parser.h"
#include "perf/profile.h"
#include "pipeline/artifact_cache.h"
#include "pipeline/batch.h"
#include "pipeline/client.h"
#include "pipeline/protocol.h"
#include "pipeline/serve.h"
#include "pipeline/session.h"
#include "pipeline/supervisor.h"
#include "sim/simulator.h"
#include "wordrec/grouping.h"
#include "wordrec/identify.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace protocol = netrev::pipeline::protocol;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// In-memory span log, written once at exit.  Spans of one pass over one
// design share (pass, design).
struct Span {
  std::string name;
  std::string design;
  int pass;
  double start_s;
  double dur_s;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void next_pass() { ++pass_; }
  int pass() const { return pass_; }

  // Times fn() as one span and returns its wall seconds.
  double span(const std::string& name, const std::string& design,
              const std::function<void()>& fn) {
    const auto start = Clock::now();
    fn();
    const double dur = seconds_since(start);
    spans_.push_back(
        {name, design, pass_,
         std::chrono::duration<double>(start - origin_).count(), dur});
    return dur;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << netrev::jsonout::quote(s.name)
          << ",\"design\":" << netrev::jsonout::quote(s.design)
          << ",\"pass\":" << s.pass << ",\"start_s\":" << s.start_s << ",\"dur_s\":" << s.dur_s << "}";
    }
    out << "\n]}\n";
  }

 private:
  Clock::time_point origin_;
  int pass_ = 0;
  std::vector<Span> spans_;
};

struct Design {
  std::string path;
  std::string text;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string identify_line(const std::string& id, const std::string& path) {
  protocol::Request request;
  request.id = id;
  request.op = protocol::Op::kIdentify;
  request.design = path;
  return protocol::render_request(request);
}

class Probe {
 public:
  Probe(std::string netrev, std::size_t jobs, std::vector<Design> designs)
      : netrev_(std::move(netrev)), jobs_(jobs), designs_(std::move(designs)) {}

  // One untimed identify of every design, so that the first timed one
  // does not also pay thread-pool start-up and a cold allocator.
  void warm_up();

  // One pass over every layer; returns the pass's metrics.
  std::map<std::string, double> pass();

  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) failures_.push_back(what);
  }

  Tracer& tracer() { return tracer_; }
  std::size_t attempted() const { return attempted_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void wordrec_layers(std::map<std::string, double>& m);
  void pipeline_layers(std::map<std::string, double>& m);

  std::string netrev_;
  std::size_t jobs_;
  std::vector<Design> designs_;
  Tracer tracer_;
  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
};

// The untimed part of every identify: parse and compact view.
struct Parsed {
  netrev::netlist::Netlist nl;
  std::optional<netrev::netlist::CompactView> view;
};

netrev::wordrec::IdentifyResult identify(const Parsed& p) {
  netrev::wordrec::Options options;
  options.compact = &*p.view;
  return netrev::wordrec::identify_words(p.nl, options);
}

Parsed parse(const Design& d) {
  Parsed p;
  p.nl = netrev::parser::parse_bench(d.text);
  p.view.emplace(netrev::netlist::CompactView::build(p.nl));
  return p;
}

bool same_stats(const netrev::wordrec::IdentifyStats& a,
                const netrev::wordrec::IdentifyStats& b) {
  return a.groups == b.groups && a.subgroups == b.subgroups &&
         a.partial_subgroups == b.partial_subgroups &&
         a.control_signal_candidates == b.control_signal_candidates &&
         a.reduction_trials == b.reduction_trials &&
         a.unified_subgroups == b.unified_subgroups;
}

void Probe::warm_up() {
  netrev::perf::Profiler::global().disable();
  for (const Design& d : designs_) identify(parse(d));
}

void Probe::wordrec_layers(std::map<std::string, double>& m) {
  auto& profiler = netrev::perf::Profiler::global();
  double parse_s = 0, bytes = 0, compact_s = 0, compact_bytes = 0, gates = 0;
  double grouping_s = 0, identify_s = 0, untraced_s = 0, identify_cpu = 0;
  double sample_s = 0, lift_s = 0, dataflow_s = 0, lint_s = 0, eval_s = 0;
  double trials = 0, unified = 0, partial = 0, lift_ops = 0;
  double ops_checked = 0, ops_equivalent = 0, findings = 0;
  double vectors = 0;
  // Profiler counters, summed over designs: enable() zeroes them, and the
  // profiler is switched on for each design's traced calls only.
  std::map<std::string, double> counters;
  const char* const kCounters[] = {
      "stage.reduction_ns", "stage.hashing_ns", "stage.matching_ns",
      "stage.control_ns", "cones_hashed", "pairs_compared",
      "subtrees_diffed"};

  for (std::size_t i = 0; i < designs_.size(); ++i) {
    const Design& d = designs_[i];
    // Untraced reference for trace.overhead_share: the same identify with
    // the profiler off and no spans.  It runs before the traced identify on
    // every other design and pass, and after it otherwise, so neither side
    // always pays for going first.
    netrev::wordrec::IdentifyStats untraced_stats;
    const auto untraced = [&] {
      profiler.disable();
      const Parsed p = parse(d);
      const auto start = Clock::now();
      untraced_stats = identify(p).stats;
      untraced_s += seconds_since(start);
    };
    const bool untraced_first = (tracer_.pass() + i) % 2 == 0;
    if (untraced_first) untraced();

    profiler.enable();  // also zeroes every counter
    netrev::netlist::Netlist nl;
    parse_s += tracer_.span("parser.parse_bench", d.path, [&] {
      nl = netrev::parser::parse_bench(d.text);
    });
    bytes += static_cast<double>(d.text.size());

    std::optional<netrev::netlist::CompactView> view;
    compact_s += tracer_.span("netlist.CompactView::build", d.path, [&] {
      view.emplace(netrev::netlist::CompactView::build(nl));
    });
    compact_bytes += static_cast<double>(view->memory_bytes());
    gates += static_cast<double>(nl.gate_count());

    grouping_s += tracer_.span("wordrec.potential_bit_groups", d.path, [&] {
      const auto groups = netrev::wordrec::potential_bit_groups(nl);
      check(!groups.empty(), "no potential bit groups in " + d.path);
    });

    netrev::wordrec::Options options;
    options.compact = &*view;
    netrev::wordrec::IdentifyResult result;
    const double cpu0 = process_cpu_s();
    identify_s += tracer_.span("wordrec.identify_words", d.path, [&] {
      result = netrev::wordrec::identify_words(nl, options);
    });
    identify_cpu += process_cpu_s() - cpu0;
    check(!result.degraded(), "identify degraded on " + d.path);
    trials += static_cast<double>(result.stats.reduction_trials);
    unified += static_cast<double>(result.stats.unified_subgroups);
    partial += static_cast<double>(result.stats.partial_subgroups);

    std::vector<netrev::netlist::NetId> probes;
    for (const auto& word : result.words.words)
      for (const auto bit : word.bits) probes.push_back(bit);
    if (probes.size() > 4096) probes.resize(4096);
    const std::uint64_t vectors0 = profiler.counter_value("sim_vectors_run");
    sample_s += tracer_.span("sim.sample_random_vectors", d.path, [&] {
      const auto samples =
          netrev::sim::sample_random_vectors(*view, probes, 512, 0x5EED);
      check(samples.size() == probes.size() * 512, "sample size on " + d.path);
    });
    vectors += static_cast<double>(profiler.counter_value("sim_vectors_run") -
                                   vectors0);

    lift_s += tracer_.span("lift.lift_words", d.path, [&] {
      const auto lifted = netrev::lift::lift_words(nl, result.words);
      check(lifted.verdict == "equivalent",
            "lift verdict " + lifted.verdict + " on " + d.path);
      lift_ops += static_cast<double>(lifted.ops.size());
      ops_checked += static_cast<double>(lifted.ops_checked);
      ops_equivalent += static_cast<double>(lifted.ops_equivalent);
    });

    netrev::analysis::DataflowFacts facts;
    dataflow_s += tracer_.span("analysis.run_dataflow", d.path, [&] {
      facts = netrev::analysis::run_dataflow(nl);
    });
    lint_s += tracer_.span("analysis.analyze", d.path, [&] {
      const auto analysis = netrev::analysis::analyze(
          nl, {}, nullptr, netrev::analysis::RuleRegistry::builtin(), &facts);
      findings += static_cast<double>(analysis.findings.size());
    });

    const auto reference = netrev::eval::extract_reference_words(nl);
    eval_s += tracer_.span("eval.evaluate_words", d.path, [&] {
      const auto summary =
          netrev::eval::evaluate_words(result.words, reference.words);
      (void)summary;
    });

    for (const char* name : kCounters)
      counters[name] += static_cast<double>(profiler.counter_value(name));
    profiler.disable();

    if (!untraced_first) untraced();
    // The work counters must not depend on tracing.
    check(same_stats(untraced_stats, result.stats),
          "identify stats differ between traced and untraced runs on " +
              d.path);
  }

  const double reduction_s = counters["stage.reduction_ns"] / 1e9;
  m["parser.parse_s"] = parse_s;
  m["parser.mb_per_s"] = bytes / 1e6 / parse_s;
  m["netlist.compact_build_ms"] = compact_s * 1e3;
  m["netlist.compact_bytes_per_gate"] = compact_bytes / gates;
  m["wordrec.identify_s"] = identify_s;
  m["wordrec.grouping_s"] = grouping_s;
  m["wordrec.hashing_cpu_s"] = counters["stage.hashing_ns"] / 1e9;
  m["wordrec.matching_cpu_s"] = counters["stage.matching_ns"] / 1e9;
  m["wordrec.control_cpu_s"] = counters["stage.control_ns"] / 1e9;
  m["wordrec.reduction_cpu_s"] = reduction_s;
  m["wordrec.cones_hashed"] = counters["cones_hashed"];
  m["wordrec.pairs_compared"] = counters["pairs_compared"];
  m["wordrec.subtrees_diffed"] = counters["subtrees_diffed"];
  m["wordrec.reduction_trials"] = trials;
  m["wordrec.reduction_us_per_trial"] = trials ? reduction_s * 1e6 / trials : 0;
  m["wordrec.unified_share"] = partial ? unified / partial : 0;
  m["wordrec.trial_yield"] = trials ? unified / trials : 0;
  m["sim.sample_ms"] = sample_s * 1e3;
  m["sim.vectors_per_s"] = vectors / sample_s;
  m["lift.lift_s"] = lift_s;
  m["lift.ops"] = lift_ops;
  m["lift.verified_share"] = ops_checked ? ops_equivalent / ops_checked : 0;
  m["analysis.dataflow_s"] = dataflow_s;
  m["analysis.lint_s"] = lint_s;
  m["analysis.findings"] = findings;
  m["eval.evaluate_s"] = eval_s;
  m["thread_pool.utilisation"] =
      identify_cpu / (identify_s * static_cast<double>(jobs_));
  m["trace.overhead_share"] = (identify_s - untraced_s) / untraced_s;
}

void Probe::pipeline_layers(std::map<std::string, double>& m) {
  std::vector<std::string> paths;
  for (const Design& d : designs_) paths.push_back(d.path);

  // Batch: the whole pipeline over the design set with a private cache.
  {
    netrev::pipeline::ArtifactCache cache;
    netrev::pipeline::BatchOptions options;
    options.cache = &cache;
    netrev::pipeline::BatchResult result;
    const double cpu0 = process_cpu_s();
    const double wall = tracer_.span("pipeline.run_batch", "*", [&] {
      result = netrev::pipeline::run_batch(paths, options);
    });
    const double cpu = process_cpu_s() - cpu0;
    check(result.ok == paths.size(), "batch entries not all ok");
    m["batch.run_s"] = wall;
    m["batch.parallel_efficiency"] =
        cpu / (wall * static_cast<double>(jobs_));
  }

  // Protocol executor, no socket: one cold and several warm identifies per
  // design against one cache, then Session::identify_json on the cached
  // design.
  netrev::pipeline::ArtifactCache cache;
  protocol::ExecutorConfig config;
  config.cache = &cache;
  protocol::Executor executor(config);
  constexpr int kWarm = 20;
  std::vector<double> cold_ms, warm_ms, hit_ms, response_kb;
  std::map<std::string, double> warm_by_design;
  for (const Design& d : designs_) {
    protocol::Request request;
    request.op = protocol::Op::kIdentify;
    request.design = d.path;
    protocol::Response response;
    cold_ms.push_back(1e3 * tracer_.span("protocol.execute.cold", d.path, [&] {
      response = executor.execute(request, {});
    }));
    check(response.status == protocol::Status::kOk,
          "executor identify status on " + d.path);
    response_kb.push_back(static_cast<double>(response.result.size()) / 1024);
    std::vector<double> warm;
    for (int i = 0; i < kWarm; ++i)
      warm.push_back(1e3 * tracer_.span("protocol.execute.warm", d.path, [&] {
        const auto again = executor.execute(request, {});
        check(again.result == response.result,
              "warm executor bytes differ on " + d.path);
      }));
    warm_by_design[d.path] = median(warm);
    warm_ms.insert(warm_ms.end(), warm.begin(), warm.end());

    netrev::RunConfig run_config;
    netrev::Session session(run_config, &cache);
    const auto design = session.load_netlist(d.path);
    for (int i = 0; i < kWarm; ++i)
      hit_ms.push_back(1e3 * tracer_.span("pipeline.Session::identify_json",
                                          d.path, [&] {
        check(session.identify_json(design) == response.result,
              "cached identify_json differs on " + d.path);
      }));
  }
  m["protocol.exec_cold_ms"] = median(cold_ms);
  m["protocol.exec_warm_ms_p50"] = median(warm_ms);
  m["protocol.response_kb"] = median(response_kb);
  m["cache.warm_hit_ms"] = median(hit_ms);

  // Serve: the socket server in-process on the same warm cache; overhead is
  // client latency minus the executor's warm time for the same request.
  const Design& smallest = *std::min_element(
      designs_.begin(), designs_.end(),
      [](const Design& a, const Design& b) {
        return a.text.size() < b.text.size();
      });
  {
    netrev::pipeline::serve::ServeOptions options;
    options.executor.cache = &cache;
    options.max_queue = 256;
    netrev::pipeline::serve::Server server(options);
    server.start();
    std::thread runner([&] { server.run(); });
    netrev::pipeline::client::Endpoint endpoint;
    endpoint.port = server.port();
    std::vector<double> overhead;
    {
      netrev::pipeline::client::Connection conn(endpoint);
      for (int i = 0; i < kWarm; ++i) {
        const double ms = 1e3 * tracer_.span("serve.round_trip", smallest.path, [&] {
          const auto reply = conn.round_trip_line(identify_line("s", smallest.path));
          check(reply.find("\"status\":\"ok\"") != std::string::npos,
                "serve identify status on " + smallest.path);
        });
        overhead.push_back(ms - warm_by_design[smallest.path]);
      }
      // A pipelined burst shows the admission queue's depth.
      constexpr int kBurst = 32;
      std::string burst;
      for (int i = 0; i < kBurst; ++i)
        burst += identify_line("b" + std::to_string(i), smallest.path) + "\n";
      std::size_t queue_max = 0;
      conn.send_all(burst);
      for (int i = 0; i < kBurst; ++i) {
        queue_max = std::max(queue_max, server.health().queued);
        conn.read_line(std::chrono::milliseconds(60000));
      }
      m["serve.queue_max"] = static_cast<double>(queue_max);
    }
    const std::string stats = server.executor().stats_json();
    const auto at = stats.find("\"overloaded\":");
    m["serve.shed"] = at == std::string::npos
                          ? 0.0
                          : std::stod(stats.substr(at + 13));
    m["serve.overhead_ms_p50"] = median(overhead);
    server.request_drain();
    runner.join();
  }
  m["cache.hits"] = static_cast<double>(cache.hits());
  m["cache.misses"] = static_cast<double>(cache.misses());
  m["cache.evictions"] = static_cast<double>(cache.evictions());
  m["cache.hit_ratio"] =
      static_cast<double>(cache.hits()) /
      static_cast<double>(std::max<std::uint64_t>(1, cache.hits() + cache.misses()));

  // Supervisor: one `netrev worker` process.  A ping round trip is the pure
  // pipe-and-protocol cost; a warm identify adds the worker's own cache hit.
  {
    netrev::pipeline::supervisor::PoolOptions options;
    options.exe = netrev_;
    options.args = {"worker", "--jobs", std::to_string(jobs_)};
    options.workers = 1;
    netrev::pipeline::supervisor::WorkerPool pool(options);
    protocol::Request ping;
    ping.id = "p";
    const std::string ping_line = protocol::render_request(ping);
    const std::string line = identify_line("w", smallest.path);
    const auto first = pool.run(line);
    check(!first.crashed, "worker crashed on " + smallest.path);
    std::vector<double> round_ms, ipc_ms;
    for (int i = 0; i < kWarm; ++i) {
      round_ms.push_back(
          1e3 * tracer_.span("supervisor.WorkerPool::run", smallest.path, [&] {
            check(!pool.run(line).crashed, "worker crashed on " + smallest.path);
          }));
      ipc_ms.push_back(
          1e3 * tracer_.span("supervisor.WorkerPool::run.ping", "", [&] {
            check(!pool.run(ping_line).crashed, "worker crashed on ping");
          }));
    }
    m["supervisor.roundtrip_ms_p50"] = median(round_ms);
    m["supervisor.ipc_ms_p50"] = median(ipc_ms);
    m["supervisor.restarts"] = static_cast<double>(pool.stats().restarts);
  }
}

std::map<std::string, double> Probe::pass() {
  tracer_.next_pass();
  std::map<std::string, double> m;
  wordrec_layers(m);
  pipeline_layers(m);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string netrev, spans_path;
  std::size_t jobs = 4;
  double seconds = 0;
  std::vector<Design> designs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&] {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return std::string(argv[++i]);
    };
    try {
      if (arg == "--netrev") netrev = value();
      else if (arg == "--jobs") jobs = std::stoul(value());
      else if (arg == "--seconds") seconds = std::stod(value());
      else if (arg == "--spans") spans_path = value();
      else designs.push_back({arg, read_file(arg)});
    } catch (const std::exception& e) {
      std::cerr << "perfbench_trace: " << e.what() << '\n';
      return 2;
    }
  }
  if (netrev.empty() || designs.empty()) {
    std::cerr << "usage: perfbench_trace --netrev <exe> [--jobs N] "
                 "[--seconds S] [--spans PATH] <design.bench>...\n";
    return 2;
  }
  netrev::ThreadPool::set_global_jobs(jobs);
  netrev::pipeline::supervisor::ignore_sigpipe();

  Probe probe(netrev, jobs, designs);
  std::vector<std::map<std::string, double>> passes;
  try {
    probe.warm_up();
    const auto start = Clock::now();
    // At least two passes, so that trace.overhead_share sees the untraced
    // identify both before and after the traced one, and the pass-to-pass
    // check below has something to compare.
    while (passes.size() < 2 || seconds_since(start) < seconds)
      passes.push_back(probe.pass());
  } catch (const std::exception& e) {
    std::cerr << "perfbench_trace: " << e.what() << '\n';
    return 1;
  }
  if (!spans_path.empty()) probe.tracer().write(spans_path);

  // Work counters must repeat exactly from pass to pass; times are medians.
  const char* const kExact[] = {
      "wordrec.cones_hashed", "wordrec.pairs_compared",
      "wordrec.subtrees_diffed", "wordrec.reduction_trials", "lift.ops",
      "analysis.findings"};
  for (const auto& p : passes)
    for (const char* name : kExact)
      probe.check(p.at(name) == passes.front().at(name),
                   std::string(name) + " differs between passes");

  std::ostringstream out;
  out.precision(17);
  out << "{\"passes\":" << passes.size()
      << ",\"attempted\":" << probe.attempted()
      << ",\"failed\":" << probe.failures().size() << ",\"failures\":[";
  for (std::size_t i = 0; i < probe.failures().size() && i < 20; ++i)
    out << (i ? "," : "") << netrev::jsonout::quote(probe.failures()[i]);
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : passes.front()) {
    std::vector<double> values;
    for (const auto& p : passes) values.push_back(p.at(name));
    out << (first ? "" : ",") << netrev::jsonout::quote(name) << ':'
        << median(values);
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
