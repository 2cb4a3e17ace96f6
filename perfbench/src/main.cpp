// perfbench_serve: one run of the serving benchmark (see perfbench/NOTES.md).
//
//   perfbench_serve --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> [--commit <id>] [--source-sha256 <hex>]
//
// Untraced (--trace 0): sets up a 10^6-vertex structure behind a started
// service::BatchServer with a local WAL, serves the workload from one
// closed-loop client for --seconds, checks every answer, recovers from a
// simulated crash (the WAL cut back to an early acknowledged update), and
// prints the end-to-end metrics. Traced (--trace 1): the same, but the
// serving time alternates with windows of the per-layer ladder
// (ladder.hpp) over the same structure, half the time each, and prints the
// per-layer metrics. The last stdout line is the result object; the line
// before it holds the run's metadata.
#include <malloc.h>
#include <sched.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "contraction/construct.hpp"
#include "contraction/telemetry.hpp"
#include "durability/checkpoint.hpp"
#include "durability/manager.hpp"
#include "durability/wal.hpp"
#include "ladder.hpp"
#include "parallel/adaptive.hpp"
#include "parallel/scheduler.hpp"
#include "parallel/stats.hpp"
#include "service/batch_server.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace parct;
using namespace perfbench;

namespace {

// Engine thread (worker 0) + one pool thread; with the client that keeps
// busy threads at 3 on a 4-vCPU host.
constexpr unsigned kPoolWorkers = 2;
constexpr std::size_t kVertices = 1'000'000;
constexpr int kSetupReps = 3;
constexpr int kRecoverReps = 5;
constexpr std::size_t kRecoverySample = 4096;
// Recovery replays a WAL tail of this many acknowledged updates, so its
// work does not grow with how many updates a run manages to serve.
constexpr std::uint64_t kRecoveryTail = 8;
// A traced run alternates this many served windows with as many ladder
// windows, so that host drift falls on both sides of the sum check alike.
constexpr int kTraceWindows = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string workdir;
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_serve: %s\nusage: perfbench_serve --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> --workdir "
               "<dir> [--commit <id>] [--source-sha256 <hex>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--workdir") a.workdir = v;
      else if (k == "--commit") a.commit = v;
      else if (k == "--source-sha256") a.source_sha256 = v;
      else usage(("unknown option " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.workload.empty() || a.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    usage("out-of-range --seconds or --trace");
  }
  return a;
}

std::string fs_type(const std::string& path) {
  struct statfs sb {};
  if (statfs(path.c_str(), &sb) != 0) return "unknown";
  switch (static_cast<unsigned long>(sb.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794C7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(sb.f_type));
      return hex;
    }
  }
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
}

// Pins the calling thread to the highest CPU it may run on; returns it (-1:
// left unpinned). Called after the pool has started, so only this thread
// and the threads it starts later (the server's engine, the ladder) share
// the CPU; the pool thread stays free. The client and the engine then hand
// each request back and forth on one CPU, and no reply waits for an idle
// vCPU to wake: unpinned, that wake-up made most of a small query batch's
// latency and varied several-fold with the host's load.
int pin_to_last_cpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

// The latency distribution recorded in the metadata: min, p10, p25, p50,
// p75, p90, p95, p99, max.
std::vector<double> quantiles(const std::vector<double>& v) {
  std::vector<double> q;
  for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    q.push_back(quantile(v, p));
  }
  return q;
}

double seconds_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now()) * 1e-3;
}

// A started server over a freshly constructed structure. Members are
// destroyed server first, then its WAL manager, then the structure.
struct Live {
  std::unique_ptr<contract::ContractionForest> c;
  std::unique_ptr<durability::Manager> wal;
  std::unique_ptr<service::BatchServer> server;

  void reset() {
    server.reset();
    wal.reset();
    c.reset();
  }
};

// Ordered name -> (value, unit) for the result object.
class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    m_[name] = {value, unit};
  }
  std::string json() const {
    std::string s = "{";
    for (const auto& [name, vu] : m_) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, "
                    "\"unit\": \"%s\"}",
                    s.size() > 1 ? ", " : "", name.c_str(), vu.first,
                    vu.second);
      s += buf;
    }
    return s + "}";
  }

 private:
  std::map<std::string, std::pair<double, const char*>> m_;
};

// Metadata as a flat JSON object of pre-rendered values.
class Meta {
 public:
  void num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    add(k, buf);
  }
  void str(const char* k, const std::string& v) {
    std::string q = "\"";
    for (char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      q += ch;
    }
    add(k, q + "\"");
  }
  void boolean(const char* k, bool v) { add(k, v ? "true" : "false"); }
  void list(const char* k, const std::vector<double>& vs) {
    std::string l = "[";
    for (double v : vs) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.6g", l.size() > 1 ? ", " : "", v);
      l += buf;
    }
    add(k, l + "]");
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  void add(const char* k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += std::string("\"") + k + "\": " + v;
  }
  std::string body_;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec* spec = find_spec(args.workload);
  if (spec == nullptr) usage("unknown --workload");
  const bool traced = args.trace == 1;

  const std::string wal_dir = (fs::path(args.workdir) / "wal").string();
  const std::string ladder_dir =
      (fs::path(args.workdir) / "wal-ladder").string();
  fs::create_directories(args.workdir);

  par::scheduler::initialize(kPoolWorkers);
  const unsigned nproc = online_cpus();
  const int shared_cpu = pin_to_last_cpu();

  // --- inputs and oracle, before any clock ------------------------------
  const auto t_gen = Clock::now();
  const Inputs in = generate(*spec, kVertices, args.seed);
  Oracle oracle(in.base);
  const double generation_s = seconds_since(t_gen);
  const std::size_t cap = in.base.capacity();
  const std::vector<service::Weight> weights(cap, 1);
  const std::uint64_t coin_seed = hashing::mix64(args.seed ^ 0xC01ull);

  // --- set-up, repeated; the last one serves ----------------------------
  std::vector<double> setup_s, construct_s, checkpoint_s;
  Live live;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    live.reset();
    fs::remove_all(wal_dir);
    const auto t0 = Clock::now();
    live.c = std::make_unique<contract::ContractionForest>(cap, 4, coin_seed);
    const auto tc = Clock::now();
    contract::construct(*live.c, in.base);
    construct_s.push_back(seconds_since(tc));
    live.wal = std::make_unique<durability::Manager>(wal_dir);
    service::ServiceConfig cfg;
    cfg.durability = live.wal.get();
    live.server =
        std::make_unique<service::BatchServer>(*live.c, cfg, weights);
    const auto tk = Clock::now();
    live.wal->checkpoint(*live.c, weights, 0);
    checkpoint_s.push_back(seconds_since(tk));
    live.server->start();
    setup_s.push_back(seconds_since(t0));
  }
  const double checkpoint_mb =
      static_cast<double>(fs::file_size(
          fs::path(wal_dir) / durability::checkpoint_filename(0))) /
      (1024.0 * 1024.0);

  // --- serving: one closed-loop client, one request outstanding ---------
  service::BatchServer& server = *live.server;
  Checker checker(in, oracle, args.seed, 0);
  // Per-sample accumulators; the warm-up's are discarded.
  struct Samples {
    // query_ms: batches after a request's first; ryw_ms: the first batch,
    // which follows an update (read-your-writes) and wakes a cold engine.
    std::vector<double> update_ms, query_ms, ryw_ms;
    double check_ms = 0;  // client-side checking, not serving time
    std::uint64_t edits = 0, items = 0;
    double affected_per_edit = 0, rounds = 0, ws_misses = 0, erase_ms = 0,
           promote_ms = 0;
  } smp;

  // The simulated crash point: right after the kRecoveryTail-th
  // acknowledged update (or the last one, in a run with fewer). Recovery
  // later sees only the WAL bytes fsync'd by then.
  struct CrashPoint {
    std::uint64_t version = 0;
    std::uint64_t wal_bytes = 0;
    std::vector<VertexId> probe;
    std::vector<std::pair<VertexId, service::Weight>> answers;
  } crash;
  std::uint64_t acked = 0;
  auto mark_crash_point = [&] {
    crash.version = server.version();
    crash.wal_bytes = server.stats().wal_bytes;
    hashing::SplitMix64 rng(hashing::mix64(args.seed ^ 0x5EEull));
    const service::SnapshotHandle snap = server.snapshot();
    crash.probe.resize(kRecoverySample);
    crash.answers.clear();
    for (VertexId& v : crash.probe) {
      v = static_cast<VertexId>(rng.next_below(kVertices));
      crash.answers.push_back({snap->root(v), snap->tree_weight(v)});
    }
  };

  auto update = [&](const Step& s) {
    service::UpdateRequest u;
    u.batch = s.batch;
    const auto t0 = Clock::now();
    std::future<service::UpdateResult> fut =
        server.submit_update(std::move(u));
    try {
      const service::UpdateResult r = fut.get();
      const auto t1 = Clock::now();
      if (checker.update_accepted(s, r.version)) {
        smp.update_ms.push_back(ms_between(t0, t1));
        smp.edits += s.batch.size();
        smp.affected_per_edit +=
            static_cast<double>(r.stats.total_affected) /
            static_cast<double>(s.batch.size());
        smp.rounds += r.stats.rounds;
        smp.ws_misses += static_cast<double>(r.stats.ws_misses);
        smp.erase_ms += r.stats.phase_seconds[contract::kPhaseErase] * 1e3;
        smp.promote_ms +=
            r.stats.phase_seconds[contract::kPhasePromote] * 1e3;
      }
      if (++acked == kRecoveryTail) mark_crash_point();
      smp.check_ms += ms_between(t1, Clock::now());
    } catch (const std::invalid_argument&) {
      checker.update_rejected(s, true);
    } catch (const std::exception&) {
      checker.update_rejected(s, false);
    }
  };
  auto query = [&](const service::QueryBatch& q, bool first) {
    service::QueryBatch copy = q;
    const auto t0 = Clock::now();
    std::future<service::QueryResult> fut =
        server.submit_queries(std::move(copy));
    try {
      const service::QueryResult r = fut.get();
      const auto t1 = Clock::now();
      (first ? smp.ryw_ms : smp.query_ms).push_back(ms_between(t0, t1));
      smp.items += q.size();
      checker.query_answered(q, r);
      smp.check_ms += ms_between(t1, Clock::now());
    } catch (const std::exception&) {
      checker.query_failed();
    }
  };

  // Warm-up: the first pair of the stream (first-use allocations, the
  // second snapshot buffer, cold caches), checked but not sampled.
  Cursor cursor;
  drive(in, 0.0, cursor, update, query);
  smp = Samples{};
  const std::uint64_t warm_updates = server.stats().updates_applied;

  // Serving time and pool counters cover the served windows only.
  double serve_s = 0;
  double steals = 0, parks = 0;
  CpuTimes host;  // steal and total CPU time of the host's vCPUs
  auto serve = [&](double seconds) {
    const par::stats::PoolCounters p0 = par::stats::snapshot();
    const CpuTimes c0 = cpu_times();
    const double check0 = smp.check_ms;
    const auto t0 = Clock::now();
    drive(in, seconds, cursor, update, query);
    serve_s += seconds_since(t0) - (smp.check_ms - check0) * 1e-3;
    const CpuTimes c1 = cpu_times();
    const par::stats::PoolCounters p1 = par::stats::snapshot();
    steals += static_cast<double>(p1.steals - p0.steals);
    parks += static_cast<double>(p1.parks - p0.parks);
    host.steal += c1.steal - c0.steal;
    host.total += c1.total - c0.total;
  };

  // Traced: served windows alternate with ladder windows over the same
  // structure (the server idles meanwhile; both end on the base forest).
  std::optional<Tracer> tracer;
  std::unique_ptr<Ladder> ladder;
  double peak_mb = 0;
  if (!traced) {
    serve(args.seconds);
    peak_mb = status_mb("VmHWM:");
  } else {
    fs::remove_all(ladder_dir);
    tracer.emplace(Clock::now());
    ladder = std::make_unique<Ladder>(*live.c, in, oracle, 0, ladder_dir,
                                      args.seed, *tracer);
    const double window_s = args.seconds / (2 * kTraceWindows);
    for (int w = 0; w < kTraceWindows; ++w) {
      serve(window_s);
      // On its own thread, as the engine's epochs are: same allocator arena
      // behaviour, and the pool sees an external thread as worker 0.
      std::exception_ptr ladder_error;
      std::thread([&] {
        try {
          ladder->run(window_s);
        } catch (...) {
          ladder_error = std::current_exception();
        }
      }).join();
      if (ladder_error) std::rethrow_exception(ladder_error);
    }
  }

  const service::ServiceStats st = server.stats();
  // The engine's own timings of the sampled updates, in order.
  std::vector<double> epoch_ms, apply_ms, publish_phase_ms;
  std::uint64_t update_epochs = 0;
  for (const service::EpochRecord& e : st.epoch_log) {
    if (e.update_ops != 0 && ++update_epochs > warm_updates) {
      epoch_ms.push_back(e.epoch_seconds * 1e3);
      apply_ms.push_back(e.update_seconds * 1e3);
      publish_phase_ms.push_back(e.publish_seconds * 1e3);
    }
  }

  if (acked < kRecoveryTail) mark_crash_point();
  const LadderResult lad = traced ? ladder->result() : LadderResult{};
  std::uint64_t attempted = checker.attempted + lad.attempted;
  std::uint64_t failed = checker.failed + lad.failed;
  if (server.version() != checker.version()) ++failed;
  ladder.reset();
  live.reset();

  // --- recovery after the simulated crash -------------------------------
  // Drop every WAL byte written after the crash point, as a crash would
  // (the setup checkpoint is the only one, so one segment, based at 0).
  fs::resize_file(fs::path(wal_dir) / durability::wal_filename(0),
                  crash.wal_bytes);
  // Recovered several times (a recovery only reads the directory and adds
  // an empty segment at the recovered version); the median is reported
  // and every recovery is checked. Recovery's own footprint is the peak
  // RSS above what the process holds before it (inputs, oracle), once the
  // heap freed with the live structure has gone back to the system.
  malloc_trim(0);
  const double base_rss_mb = status_mb("VmRSS:");
  const bool rss_reset = reset_peak_rss();
  std::vector<double> recover_s;
  double recover_rss_mb = 0;
  std::uint64_t replayed = 0;
  for (int rep = 0; rep < kRecoverReps; ++rep) {
    const auto t_rec = Clock::now();
    service::RecoveredServer rec = service::BatchServer::recover(wal_dir);
    recover_s.push_back(seconds_since(t_rec));
    if (rep == 0) recover_rss_mb = status_mb("VmHWM:") - base_rss_mb;
    ++attempted;
    bool same = rec.version == crash.version;
    const service::SnapshotHandle snap = rec.server->snapshot();
    for (std::size_t i = 0; i < crash.probe.size(); ++i) {
      same = same && snap->root(crash.probe[i]) == crash.answers[i].first &&
             snap->tree_weight(crash.probe[i]) == crash.answers[i].second;
    }
    if (!same) ++failed;
    replayed = rec.replayed;
  }

  // --- output -----------------------------------------------------------
  const double update_mean = mean(smp.update_ms);
  const double applied = std::max<double>(1.0, smp.update_ms.size());
  Metrics metrics;
  Meta meta;
  if (!traced) {
    // The update median and the closed loop's rates (1 / mean request
    // time) move with the host's slow drift too far from run to run to
    // carry a regression bound; they are in the metadata (update_ms_q,
    // edits_per_s, queries_per_s).
    metrics.put("setup_s", quantile(setup_s, 0.5), "s");
    metrics.put("update_p90_ms", quantile(smp.update_ms, 0.9), "ms");
    metrics.put("query_p50_ms", quantile(smp.query_ms, 0.5), "ms");
    metrics.put("query_p90_ms", quantile(smp.query_ms, 0.9), "ms");
    metrics.put("recover_s", quantile(recover_s, 0.5), "s");
    metrics.put("peak_rss_mb", peak_mb, "MB");
    metrics.put("success_rate",
                1.0 - static_cast<double>(failed) /
                          static_cast<double>(attempted),
                "share");
  } else {
    double layer_sum = 0;
    for (double ms : lad.layer_ms) layer_sum += ms;
    // The engine's timings, paired with the client's over the updates the
    // (capped) epoch log covers. Admission, queueing, wake-up and the
    // future, as the server sees them: client latency minus epoch time.
    const std::size_t paired =
        std::min(epoch_ms.size(), smp.update_ms.size());
    auto head = [paired](const std::vector<double>& v) {
      return mean({v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(paired, v.size()))});
    };
    const double epoch_mean = head(epoch_ms);
    const double admission_ms = head(smp.update_ms) - epoch_mean;

    metrics.put("forest.validate_ms", lad.layer_ms[0], "ms");
    metrics.put("contraction.apply_ms", lad.layer_ms[1], "ms");
    metrics.put("durability.append_ms", lad.layer_ms[2], "ms");
    metrics.put("rc.repair_ms", lad.layer_ms[3], "ms");
    metrics.put("forest.mirror_ms", lad.layer_ms[4], "ms");
    metrics.put("service.publish_ms", lad.layer_ms[5], "ms");
    metrics.put("contraction.affected_per_edit",
                smp.affected_per_edit / applied, "count");
    metrics.put("contraction.rounds", smp.rounds / applied, "count");
    metrics.put("contraction.ws_misses", smp.ws_misses / applied, "count");
    metrics.put("contraction.phase_erase_ms", smp.erase_ms / applied, "ms");
    metrics.put("contraction.phase_promote_ms", smp.promote_ms / applied,
                "ms");
    metrics.put("contraction.construct_s", quantile(construct_s, 0.5), "s");
    metrics.put("rc.touched_per_edit", lad.touched_per_edit, "count");
    metrics.put("service.publish_bytes", lad.publish_bytes, "B");
    metrics.put("service.answer_us_per_query", lad.answer_us_per_query, "us");
    metrics.put("service.overhead_ms", update_mean - layer_sum, "ms");
    metrics.put("service.admission_ms", admission_ms, "ms");
    metrics.put("durability.wal_bytes_per_edit",
                static_cast<double>(st.wal_bytes) /
                    std::max<double>(1.0, static_cast<double>(st.update_ops)),
                "B");
    metrics.put("durability.checkpoint_s", quantile(checkpoint_s, 0.5), "s");
    metrics.put("durability.checkpoint_mb", checkpoint_mb, "MB");
    metrics.put("durability.recover_rss_mb", recover_rss_mb, "MB");
    metrics.put("parallel.serial_cutover",
                static_cast<double>(par::serial_cutover()), "count");
    metrics.put("parallel.steals", steals / applied, "count");
    metrics.put("parallel.parks", parks / applied, "count");
    // Sum check against an independent measure: the ladder's layers plus
    // the server-measured admission overhead, against the client mean. The
    // windows alternate, so host drift weighs on both sides alike.
    metrics.put("ladder.sum_gap_pct",
                update_mean > 0 ? std::abs(layer_sum + admission_ms -
                                           update_mean) /
                                      update_mean * 100.0
                                : 0.0,
                "%");
    // The spans' own bookkeeping: each update span minus its layer spans.
    metrics.put("trace.overhead_ms", lad.request_ms - layer_sum, "ms");

    const std::string spans = (fs::path(args.workdir) /
                               ("spans-" + args.workload + "-seed" +
                                std::to_string(args.seed) + ".jsonl"))
                                  .string();
    meta.str("spans_file", tracer->write_jsonl(spans) ? spans : "unwritten");
    meta.num("ladder_updates", static_cast<double>(lad.updates));
    meta.num("ladder_request_ms", lad.request_ms);
    meta.num("ladder_layer_sum_ms", layer_sum);
    // Traced against untraced over the same scope, and per engine phase:
    // apply, then repair + mirror + publish.
    meta.num("traced_minus_untraced_ms", lad.request_ms - epoch_mean);
    meta.num("served_epoch_ms", epoch_mean);
    meta.num("served_apply_ms", head(apply_ms));
    meta.num("ladder_apply_ms", lad.layer_ms[1]);
    meta.num("served_publish_phase_ms", head(publish_phase_ms));
    meta.num("ladder_publish_phase_ms",
             lad.layer_ms[3] + lad.layer_ms[4] + lad.layer_ms[5]);
  }

  meta.str("workload", args.workload);
  meta.num("seed", static_cast<double>(args.seed));
  meta.num("n", static_cast<double>(kVertices));
  meta.num("seconds", args.seconds);
  meta.num("trace", args.trace);
  meta.num("pool_workers", kPoolWorkers);
  meta.num("nproc", nproc);
  meta.num("client_engine_cpu", shared_cpu);
  meta.num("serial_cutover", static_cast<double>(par::serial_cutover()));
  meta.num("calibrated_serial_cutover",
           static_cast<double>(
               par::adaptive_detail::calibrated_serial_cutover()));
  meta.str("build_type", PERFBENCH_BUILD_TYPE);
  meta.boolean("parct_stats", contract::kStatsEnabled);
  meta.str("durability_fs", fs_type(args.workdir));
  meta.str("commit", args.commit);
  meta.str("source_sha256", args.source_sha256);
  meta.num("generation_s", generation_s);
  meta.num("setup_s_min", quantile(setup_s, 0));
  meta.num("setup_s_max", quantile(setup_s, 1));
  meta.num("recover_s_min", quantile(recover_s, 0));
  meta.num("recover_s_max", quantile(recover_s, 1));
  meta.num("serve_s", serve_s);
  meta.num("edits_per_s", static_cast<double>(smp.edits) / serve_s);
  meta.num("queries_per_s", static_cast<double>(smp.items) / serve_s);
  meta.num("host_steal_pct",
           host.total > 0 ? host.steal / host.total * 100.0 : 0.0);
  meta.list("update_ms_q", quantiles(smp.update_ms));
  meta.list("query_ms_q", quantiles(smp.query_ms));
  meta.list("ryw_query_ms_q", quantiles(smp.ryw_ms));
  meta.num("update_samples", static_cast<double>(smp.update_ms.size()));
  meta.num("query_samples", static_cast<double>(smp.query_ms.size()));
  meta.num("ryw_query_samples", static_cast<double>(smp.ryw_ms.size()));
  meta.num("epoch_samples", static_cast<double>(epoch_ms.size()));
  meta.num("update_mean_ms", update_mean);
  meta.num("invalid_rejected", static_cast<double>(checker.invalid_rejected));
  meta.num("wrong_items", static_cast<double>(checker.wrong_items));
  meta.num("error_rate",
           static_cast<double>(failed) / static_cast<double>(attempted));
  meta.num("wal_records_replayed", static_cast<double>(replayed));
  meta.boolean("recover_rss_reset", rss_reset);
  meta.num("recover_base_rss_mb", base_rss_mb);
  std::printf("{\"meta\": %s}\n", meta.json().c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  par::scheduler::shutdown();
  return 0;
}
