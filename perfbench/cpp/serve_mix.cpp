// serve_mix: an in-process serve::Service with its one warm SolveCache,
// driven open-loop at a fixed offered rate over a few client connections.
// The only workload where cache hits, admission and the per-connection
// write ring sit on the request path. New texts miss the cache and repeats
// hit it, so a cache change that speeds up hits but slows down misses shows
// in the split between the median (mostly new requests) and the fast tail.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "cache/solve_cache.hpp"
#include "core/csv.hpp"
#include "core/sweep.hpp"
#include "exec/parallel.hpp"
#include "layers.hpp"
#include "mg/system.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "spec/parser.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace mg = rascad::mg;
namespace serve = rascad::serve;

namespace {

/// Offered load, requests per second: a quarter of the service's saturated
/// throughput on this request mix over four connections, measured as
/// 59-65 req/s on a 4-vCPU x86-64 host. At that load a request seldom
/// waits for another, so its latency is its service time.
constexpr double kRate = 15.0;
/// p90 latency limit for goodput, measured from each request's due time.
/// Far above the latencies at kRate: goodput only flags a collapse.
constexpr double kLatencyLimitMs = 1000.0;
/// Per 20 requests: 3 repeat an earlier text, 1 sweeps one, 16 are new.
/// The shares are assumed; there is no record of real traffic to take
/// them from.
constexpr std::size_t kBlock = 20;
constexpr std::size_t kRepeatsPerBlock = 3;
constexpr std::size_t kSweepsPerBlock = 1;
constexpr std::size_t kSweepPoints = 4;
/// Free time ahead that a host-speed sample needs (the kernel takes ~4 ms).
constexpr int kKernelGapMs = 15;
/// Client connections: at most four, and at most one per hardware thread.
std::size_t connection_count() {
  return std::min<std::size_t>(4, rascad::exec::hardware_thread_count());
}

enum class Kind { kNew, kRepeat, kSweep };

struct Request {
  Kind kind = Kind::kNew;
  std::size_t text = 0;  // index into Schedule::texts
  std::string diagram;   // sweep target
  std::string block;
  double lo = 0.0;
  double hi = 0.0;
};

struct Schedule {
  std::vector<std::string> texts;  // every distinct text, warm-up first
  std::size_t warm = 0;            // texts sent during set-up
  std::vector<Request> requests;
};

/// The seeded request stream. Warm-up texts are index-space 1<<32 + k so
/// they never collide with the measured new texts.
Schedule make_schedule(const std::vector<Template>& templates,
                       std::uint64_t seed, std::size_t count) {
  Schedule s;
  for (std::size_t t = 0; t < templates.size(); ++t) {
    s.texts.push_back(corpus_text(templates[t], seed, (1ULL << 32) + t));
  }
  s.warm = s.texts.size();
  Rng rng(mix_seed(seed, 0x5E7E));
  std::vector<std::size_t> order;
  std::uint64_t new_index = 0;
  for (std::size_t b = 0; b * kBlock < count; ++b) {
    std::vector<Kind> kinds(kBlock, Kind::kNew);
    for (std::size_t i = 0; i < kRepeatsPerBlock; ++i) kinds[i] = Kind::kRepeat;
    for (std::size_t i = 0; i < kSweepsPerBlock; ++i) {
      kinds[kRepeatsPerBlock + i] = Kind::kSweep;
    }
    rng.shuffle(kinds);
    for (Kind kind : kinds) {
      if (s.requests.size() == count) break;
      Request r;
      r.kind = kind;
      if (kind == Kind::kNew) {
        // Templates in shuffled rounds, as in corpus_cold.
        if (order.empty()) {
          for (std::size_t t = 0; t < templates.size(); ++t) order.push_back(t);
          rng.shuffle(order);
        }
        const std::size_t t = order.back();
        order.pop_back();
        r.text = s.texts.size();
        s.texts.push_back(corpus_text(templates[t], seed, new_index++));
      } else {
        r.text = rng.below(s.texts.size());
      }
      if (kind == Kind::kSweep) {
        // Sweep the MTBF of one block of the chosen text that has one.
        const rascad::spec::ModelSpec m =
            rascad::spec::parse_model(s.texts[r.text]);
        std::vector<std::pair<std::string, const rascad::spec::BlockSpec*>>
            candidates;
        for (const auto& d : m.diagrams) {
          for (const auto& blk : d.blocks) {
            if (blk.mtbf_h > 0.0) candidates.emplace_back(d.name, &blk);
          }
        }
        const auto& [diagram, blk] = candidates[rng.below(candidates.size())];
        r.diagram = diagram;
        r.block = blk->name;
        r.lo = 0.5 * blk->mtbf_h;
        r.hi = 2.0 * blk->mtbf_h;
      }
      s.requests.push_back(std::move(r));
    }
  }
  return s;
}

std::string fmt_double(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// The reply text the service must send for a solve of `text`, from an
/// in-process build (results are bitwise identical for any cache state and
/// thread count). Also runs the closed-form and series oracles.
std::string expected_solve(const std::string& text, Checks& checks) {
  rascad::cache::SolveCache cache;
  mg::SystemModel::Options opts;
  opts.cache = &cache;
  const mg::SystemModel system =
      mg::SystemModel::build(rascad::spec::parse_model(text), opts);
  check_closed_forms(system, checks, "serve reference");
  check_series(system, checks, "serve reference");
  const double mission = system.spec().globals.mission_time_h;
  std::string out;
  out += "availability=" + fmt_double(system.availability()) + "\n";
  out += "yearly_downtime_min=" + fmt_double(system.yearly_downtime_min()) +
         "\n";
  out += "eq_failure_rate=" + fmt_double(system.eq_failure_rate()) + "\n";
  out += "mtbf_h=" + fmt_double(system.mtbf_h()) + "\n";
  out += "mission_time_h=" + fmt_double(mission) + "\n";
  out += "interval_availability=" +
         fmt_double(system.interval_availability(mission)) + "\n";
  out += "reliability=" + fmt_double(system.reliability(mission)) + "\n";
  out += "blocks=" + std::to_string(system.blocks().size()) + "\n";
  out += "states=" + std::to_string(system.total_states()) + "\n";
  return out;
}

/// Sweep CSV rows without the provenance columns (solve_source and the
/// fresh / cached / reused / iteration counts depend on the cache's state,
/// the measures do not).
std::vector<std::string> sweep_measures(const std::string& csv) {
  std::vector<std::string> rows;
  std::istringstream is(csv);
  std::string line;
  while (std::getline(is, line)) {
    std::vector<std::string> f;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t comma = line.find(',', pos);
      f.push_back(line.substr(pos, comma - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (f.size() < 11) {
      rows.push_back(line);
      continue;
    }
    rows.push_back(f[0] + ',' + f[1] + ',' + f[2] + ',' + f[3] + ',' + f[9] +
                   ',' + f[10]);
  }
  return rows;
}

std::vector<std::string> expected_sweep(const std::string& text,
                                        const Request& r) {
  rascad::cache::SolveCache cache;
  rascad::core::SweepOptions opts;
  opts.model.cache = &cache;
  const auto points = rascad::core::sweep_block_parameter(
      rascad::spec::parse_model(text), r.diagram, r.block,
      [](rascad::spec::BlockSpec& b, double v) { b.mtbf_h = v; },
      rascad::core::linspace(r.lo, r.hi, kSweepPoints), opts);
  return sweep_measures(rascad::core::sweep_csv(points));
}

struct Record {
  Clock::time_point due;
  double latency_ms = 0.0;  // completion - due time
  double late_ms = 0.0;     // send time - due time
  serve::Reply reply;
  bool done = false;
};

/// A started service with warm cache and connected clients. Members are
/// destroyed in reverse order: the clients disconnect, then ~Service stops
/// the service and unlinks its socket.
struct Rig {
  serve::Service service;
  std::vector<serve::Client> clients;

  Rig(const std::string& socket, const Schedule& schedule)
      : service(config(socket)) {
    service.start();
    clients.resize(connection_count());
    for (auto& c : clients) {
      c.connect_retry(socket, 5000.0);
      if (!c.ping().ok()) throw std::runtime_error("serve: ping failed");
    }
    // Warm the cache with the warm-up texts, one connection per thread.
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (auto& c : clients) {
      threads.emplace_back([&] {
        for (std::size_t i; (i = next++) < schedule.warm;) {
          if (!c.solve(schedule.texts[i]).ok()) failed = true;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed) throw std::runtime_error("serve: warm-up solve failed");
  }

  static serve::ServiceConfig config(const std::string& socket) {
    serve::ServiceConfig cfg;
    cfg.socket_path = socket;
    return cfg;
  }
};

struct LoadResult {
  std::vector<Record> records;
  double window_s = 0.0;
  std::size_t inflight_peak = 0;
  serve::ServiceStats stats;
};

/// Sends schedule.requests open-loop at kRate: request i is due at
/// start + i / kRate; a free connection sends it at its due time (late if
/// every connection was busy) and the latency runs from the due time.
LoadResult drive(Rig& rig, const Schedule& schedule, HostSpeed* speed,
                 SpanTotals* spans) {
  LoadResult out;
  out.records.resize(schedule.requests.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> sent{0};
  std::atomic<std::size_t> replied{0};
  std::atomic<bool> running{true};
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto period = std::chrono::duration<double>(1.0 / kRate);
  const auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
  };
  std::vector<std::thread> threads;
  for (auto& client : rig.clients) {
    threads.emplace_back([&, c = &client] {
      for (std::size_t i; (i = next++) < schedule.requests.size();) {
        const Request& r = schedule.requests[i];
        const auto due = due_at(i);
        std::this_thread::sleep_until(due);
        Record& rec = out.records[i];
        rec.due = due;
        rec.late_ms = ms_since(due);
        const std::string& text = schedule.texts[r.text];
        ++sent;
        rec.reply = r.kind == Kind::kSweep
                        ? c->sweep(text, r.diagram, r.block, "mtbf_h", r.lo,
                                   r.hi, kSweepPoints)
                        : c->solve(text);
        rec.latency_ms = ms_since(due);
        rec.done = true;
        ++replied;
      }
    });
  }
  // Poll admission state every 5 ms. In untraced runs, sample the host
  // speed at most every 100 ms, and only in a gap: no request outstanding
  // and the next one not due for kKernelGapMs, so the kernel never shares
  // the cores with service work and never delays a request. In a traced
  // run drain the obs buffers instead, so none of the production spans are
  // lost to the buffer caps.
  const std::size_t cores = rascad::exec::hardware_thread_count();
  std::thread poller([&] {
    auto last_sample = start;
    while (running.load()) {
      out.inflight_peak =
          std::max(out.inflight_peak, rig.service.stats().inflight);
      const std::size_t s = sent.load();
      const auto now = Clock::now();
      if (speed && now - last_sample >= std::chrono::milliseconds(100) &&
          replied.load() == s && s < schedule.requests.size() &&
          due_at(s) - now >= std::chrono::milliseconds(kKernelGapMs)) {
        speed->sample(cores);
        last_sample = now;
      }
      if (spans) spans->add_drained();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& t : threads) t.join();
  out.window_s = std::chrono::duration<double>(Clock::now() - start).count();
  running = false;
  poller.join();
  if (spans) spans->add_drained();
  out.stats = rig.service.stats();
  return out;
}

/// What every reply must be: for each solve text the reply text of an
/// in-process build, for each sweep request the measure columns of an
/// in-process sweep. Computed in parallel, once per run.
struct Expected {
  std::vector<std::string> solve;                // by text index
  std::vector<std::vector<std::string>> sweep;   // by request index
};

Expected expected_replies(const Schedule& schedule, Checks& checks) {
  Expected e;
  e.solve.resize(schedule.texts.size());
  e.sweep.resize(schedule.requests.size());
  std::vector<char> needed(schedule.texts.size(), 0);
  for (const auto& r : schedule.requests) {
    if (r.kind != Kind::kSweep) needed[r.text] = 1;
  }
  std::vector<Checks> text_checks(schedule.texts.size());
  rascad::exec::parallel_for(schedule.texts.size(), [&](std::size_t i) {
    if (needed[i]) e.solve[i] = expected_solve(schedule.texts[i], text_checks[i]);
  });
  rascad::exec::parallel_for(schedule.requests.size(), [&](std::size_t i) {
    const Request& r = schedule.requests[i];
    if (r.kind == Kind::kSweep) e.sweep[i] = expected_sweep(schedule.texts[r.text], r);
  });
  for (const auto& c : text_checks) {
    for (const auto& m : c.messages()) checks.fail(m);
  }
  return e;
}

/// Checks every reply; clears ok[i] for a wrong one.
void check_replies(const Schedule& schedule, const Expected& expected,
                   const std::vector<Record>& records, std::vector<char>& ok,
                   Checks& checks) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Request& r = schedule.requests[i];
    const Record& rec = records[i];
    const std::string where = "serve request " + std::to_string(i);
    std::string error;
    if (!rec.done) {
      error = "not sent";
    } else if (rec.reply.rejected()) {
      error = "refused with retry-after";
    } else if (!rec.reply.ok()) {
      error = rec.reply.text;
    } else if (r.kind == Kind::kSweep) {
      if (sweep_measures(rec.reply.stream) != expected.sweep[i]) {
        error = "sweep differs from an in-process sweep";
      }
    } else if (rec.reply.text != expected.solve[r.text]) {
      error = "reply differs from an in-process build";
    }
    if (!error.empty()) {
      checks.fail(where + ": " + error);
      ok[i] = 0;
    }
  }
}

/// Single-threaded replay of the requests through the layer split, with
/// one persistent cache standing in for the service's warm one. Each
/// request also runs untraced on a second persistent cache, for the
/// reconciliation.
void replay_layers(const Schedule& schedule, double budget_ms,
                   TraceReport& trace, std::vector<double>& untraced) {
  rascad::cache::SolveCache untraced_cache;
  rascad::cache::SolveCache layer_cache;
  SeenWork seen;
  const auto solve_untraced = [&](const std::string& text) {
    mg::SystemModel::Options opts;
    opts.cache = &untraced_cache;
    opts.parallel.threads = 1;
    const mg::SystemModel system =
        mg::SystemModel::build(rascad::spec::parse_model(text), opts);
    const double mission = system.spec().globals.mission_time_h;
    return system.interval_availability(mission) +
           system.reliability(mission);
  };
  for (std::size_t i = 0; i < schedule.warm; ++i) {
    solve_untraced(schedule.texts[i]);
    LayerTotals warm;
    decompose_solve(schedule.texts[i], layer_cache, seen, false, warm);
  }
  const auto start = Clock::now();
  for (const Request& r : schedule.requests) {
    if (ms_since(start) >= budget_ms) break;
    if (r.kind == Kind::kSweep) continue;  // the split covers the solve path
    const std::string& text = schedule.texts[r.text];
    const auto t0 = Clock::now();
    solve_untraced(text);
    untraced.push_back(ms_since(t0));
    decompose_solve(text, layer_cache, seen, false, trace.layers);
  }
}

}  // namespace

Outcome run_serve_mix(const Args& args) {
  Outcome out;
  Checks checks;
  const std::string socket =
      ".perfbench-serve-" + std::to_string(::getpid()) + ".sock";
  // A traced run drives the service for half its time and replays the
  // requests single-threaded through the layer split for the other half.
  const double drive_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const auto count =
      static_cast<std::size_t>(std::max(1.0, drive_s * kRate));

  std::vector<Template> templates;
  Schedule schedule;
  std::unique_ptr<Rig> rig;
  HostSpeed speed;
  const OpTimes setups = time_setups(
      [&] {
        rig.reset();
        templates = load_templates();
        schedule = make_schedule(templates, args.seed, count);
        rig = std::make_unique<Rig>(socket, schedule);
      },
      speed, rascad::exec::hardware_thread_count());

  TraceReport trace;
  if (args.trace) rascad::obs::set_enabled(true);
  const double cpu0 = process_cpu_s();
  const LoadResult load =
      drive(*rig, schedule, args.trace ? nullptr : &speed,
            args.trace ? &trace.spans : nullptr);
  const double cpu_s = process_cpu_s() - cpu0;
  rascad::obs::set_enabled(false);
  rig.reset();

  const Expected expected = expected_replies(schedule, checks);
  std::vector<char> ok(count, 1);
  check_replies(schedule, expected, load.records, ok, checks);
  OpTimes ops;
  std::vector<double> late;
  std::uint64_t good = 0;
  std::size_t repeats = 0;
  out.attempted = count;
  for (std::size_t i = 0; i < count; ++i) {
    const Record& rec = load.records[i];
    ops.add(rec.due, rec.latency_ms);
    late.push_back(rec.late_ms);
    if (!ok[i]) {
      ++out.failed;
    } else if (rec.latency_ms <= kLatencyLimitMs) {
      ++good;
    }
    if (schedule.requests[i].kind == Kind::kRepeat) ++repeats;
  }
  const double repeat_share =
      static_cast<double>(repeats) / static_cast<double>(count);
  std::ostringstream os;
  os << "offered " << kRate << " req/s over " << connection_count()
     << " connections; p90 limit " << kLatencyLimitMs
     << " ms; share of requests repeating an earlier text " << repeat_share
     << "; rejected " << load.stats.rejected << "; inflight peak "
     << load.inflight_peak << "; cache hits/misses blocks "
     << load.stats.cache_blocks.hits << "/" << load.stats.cache_blocks.misses
     << " curves " << load.stats.cache_curves.hits << "/"
     << load.stats.cache_curves.misses
     << " (not exact: concurrent misses on one signature each solve)";
  out.note(os.str());

  if (args.trace) {
    trace.cache_blocks = load.stats.cache_blocks;
    trace.cache_curves = load.stats.cache_curves;
    trace.cpu_util =
        cpu_s / (load.window_s *
                 static_cast<double>(rascad::exec::default_thread_count()));
    trace.span_ops = count;
    trace.serve_rejected = static_cast<double>(load.stats.rejected);
    trace.serve_inflight_peak = static_cast<double>(load.inflight_peak);
    trace.late_ms_p90 = percentile(late, 0.9);
    trace.repeat_share = repeat_share;
    std::vector<double> untraced;
    replay_layers(schedule, (args.seconds - drive_s) * 1000.0, trace,
                  untraced);
    trace.untraced_op_ms = mean(untraced);
    add_trace_metrics(out, trace);
    reconcile(out, checks, trace, /*enforce=*/false);
  } else {
    // Goodput: correct requests within the latency limit per second of the
    // window (first due time to last reply).
    add_end_to_end(out, ops, good, setups, speed, load.window_s);
  }
  finish_checks(out, checks);
  return out;
}

}  // namespace perfbench
