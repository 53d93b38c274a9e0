// http: the open-loop front door. net::serve_http + net::ApiService
// (coalescing scheduler, one pool thread, int8 uploads, a durable cursor per
// round) run on a server thread the benchmark owns; one generator thread
// sends, each call on its own connection (the server serves a connection
// until the peer half-closes):
//   - seeded Poisson POST /unlearn at a fixed rate,
//   - for each pending request, GET /request/:id right after the POST's ack
//     (the request is queued), then kPollGap after the previous poll
//     returned, until it reports completed,
//   - GET /metrics every kMetricsPeriod.
// Requests come in episodes of a few distinct targets; after each episode
// the service drains, the benchmark evaluates the model, resets the
// coordinator and rebuilds the ApiService from the trained state, all in a
// pause outside the schedule. The server runs drain() from its idle hook, so
// a call that arrives during a drain waits for it: reads beside writes load
// the single-threaded net loop, serve admission and coalescing.
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <thread>

#include "fl/quantize.h"
#include "fl/shard_tree.h"
#include "metrics/evaluate.h"
#include "net/api.h"
#include "net/http.h"
#include "net/socket.h"
#include "schedule.h"
#include "serve/durable.h"
#include "stats.h"
#include "store/store.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

namespace qd = quickdrop;
namespace fs = std::filesystem;

namespace {

/// POST /unlearn per second. Chosen so drains keep the server busy for
/// 10-30% of the window. Per request the mix is then one POST and one
/// immediate poll that rarely wait, one poll that waits out the drain, plus a
/// /metrics call a second that waits when it lands in a drain: about 60% of
/// calls are unblocked, so ack p50 falls among them and ack p75 well inside
/// the calls that waited behind a drain.
constexpr double kPostRate = 2.0;
constexpr int kTargetsPerEpisode = 5;
/// Polls follow the previous poll by this gap. serve_http runs its idle
/// hook (the drain) only after kIdleSliceMs without a pending connection, so
/// the gap must exceed the slice or polling alone would starve the drain.
constexpr double kPollGap = 0.025;
constexpr int kIdleSliceMs = 5;
constexpr double kMetricsPeriod = 1.0;
constexpr int kCallTimeoutMs = 20000;
/// One local step of batch 8 per SGA / recovery round keeps a cycle short
/// enough for forty requests to fit the window at 10-30% drain busy.
constexpr ServingSteps kServing{.local_steps = 1, .batch = 8};

struct HttpResult {
  int status = 0;
  std::string body;
};

/// One request on its own connection. `call` (>= 0) tags it with an
/// X-Call header so the server's handler timing can be matched to it.
HttpResult http_call(std::uint16_t port, const std::string& method, const std::string& target,
                     const std::string& body = "", std::int64_t call = -1) {
  auto conn = qd::net::tcp_connect("127.0.0.1", port);
  std::string wire = method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (call >= 0) wire += "X-Call: " + std::to_string(call) + "\r\n";
  if (!body.empty()) {
    wire += "Content-Type: application/json\r\nContent-Length: " + std::to_string(body.size()) +
            "\r\n";
  }
  wire += "\r\n" + body;
  conn->write_all(std::span(reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()));
  conn->finish_write();
  std::string response;
  std::uint8_t buf[4096];
  for (;;) {
    if (!conn->wait_readable(kCallTimeoutMs)) throw std::runtime_error("call timed out");
    const auto n = conn->read_some(buf);
    if (n == 0) break;
    response.append(reinterpret_cast<const char*>(buf), n);
  }
  HttpResult result;
  if (response.rfind("HTTP/1.1 ", 0) != 0 || response.size() < 12) {
    throw std::runtime_error("malformed response");
  }
  result.status = std::stoi(response.substr(9, 3));
  const auto head_end = response.find("\r\n\r\n");
  if (head_end != std::string::npos) result.body = response.substr(head_end + 4);
  return result;
}

/// Integer value of the first `"key": N` in a JSON body, or -1.
std::int64_t json_int(const std::string& body, const std::string& key) {
  const auto at = body.find("\"" + key + "\": ");
  if (at == std::string::npos) return -1;
  return std::stoll(body.substr(at + key.size() + 4));
}

double json_number(const std::string& body, const std::string& key) {
  const auto at = body.find("\"" + key + "\": ");
  if (at == std::string::npos) return -1;
  return std::stod(body.substr(at + key.size() + 4));
}

/// Episodes of distinct targets: the shuffled target sequence, each target
/// placed in the first episode with room that lacks it.
std::vector<std::vector<qd::serve::ServiceRequest>> episode_plan(
    std::uint64_t seed, int posts, const qd::core::QuickDrop& coordinator) {
  std::vector<std::vector<qd::serve::ServiceRequest>> episodes;
  std::vector<std::set<std::pair<qd::serve::RequestKind, int>>> seen;
  for (const auto& t : shuffled_targets(seed ^ 0x4877ULL, posts, coordinator)) {
    const auto key = std::pair(t.kind, t.target);
    std::size_t e = 0;
    while (e < episodes.size() &&
           (static_cast<int>(episodes[e].size()) >= kTargetsPerEpisode || seen[e].count(key))) {
      ++e;
    }
    if (e == episodes.size()) {
      episodes.emplace_back();
      seen.emplace_back();
    }
    episodes[e].push_back(t);
    seen[e].insert(key);
  }
  return episodes;
}

std::string unlearn_body(const qd::serve::ServiceRequest& t) {
  return std::string("{\"kind\": \"") + qd::serve::kind_name(t.kind) +
         "\", \"target\": " + std::to_string(t.target) + "}";
}

enum class Route { kPost, kStatus, kMetrics };

/// Everything the server thread records; read by the generator only after
/// the server thread has been joined.
struct ServerLog {
  std::vector<double> post_s, status_s, metrics_s;  ///< handler time by route
  std::map<std::int64_t, double> handler_by_call;   ///< X-Call tag -> handler time
  std::vector<std::pair<double, double>> drains;    ///< busy drains [start, end]
  std::vector<double> round_s, sga_s, recover_s, commit_s, growth_bytes;
  std::vector<quickdrop::nn::ModelState> round_states;  ///< traced runs: for the codec replay
  /// (episode, id) -> when its drain finished.
  std::map<std::pair<int, std::int64_t>, double> completed_at;
  std::vector<double> episode_acc, eval_s;
  std::string error;
};

/// The service and the server thread running serve_http over it.
class Server {
 public:
  Server(Trained& trained, const std::string& store_path, bool trace)
      : trained_(trained),
        store_(store_path),
        durable_(qd::serve::durable_cursor_callback(store_, *trained.fed.quickdrop)),
        tracer_(trace, 1),
        listener_(0) {
    rebuild_api();
    thread_ = std::thread([this] { serve(); });
  }
  ~Server() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Blocks until the server thread has evaluated the drained model on the
  /// classes the episode left, reset the coordinator and rebuilt the API.
  void next_episode(std::vector<int> forgotten_classes) {
    std::unique_lock lock(mu_);
    forgotten_classes_ = std::move(forgotten_classes);
    rebuild_ = true;
    cv_.wait(lock, [this] { return !rebuild_ || failed_; });
  }
  [[nodiscard]] bool failed() {
    std::lock_guard lock(mu_);
    return failed_;
  }

  /// Stops and joins the server thread; the log is then safe to read.
  ServerLog& finish() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return log_;
  }
  [[nodiscard]] const Tracer& tracer() const { return tracer_; }

 private:
  void rebuild_api() {
    auto& coordinator = *trained_.fed.quickdrop;
    coordinator.reset_forgotten();
    qd::net::ApiConfig config;
    config.service.policy = qd::serve::SchedulerPolicy::kCoalesce;
    // The API reports service time in simulated seconds from a cost model;
    // pricing only sample gradients (1e-3 s each) makes /metrics'
    // sim_clock_seconds the thousands of sample gradients computed.
    config.service.cost_model = {.seconds_per_round = 0.0, .seconds_per_sample_grad = 1e-3};
    config.service.cursor_callback = [this](const qd::core::UnlearnCursor& cursor,
                                            const qd::nn::ModelState& state) {
      const double entry = now_s();
      const bool sga = cursor.phase == qd::core::UnlearnCursor::kPhaseUnlearn;
      tracer_.add(sga ? "fl.sga_round" : "fl.recover_round", episode_, mark_, entry);
      log_.round_s.push_back(entry - mark_);
      (sga ? log_.sga_s : log_.recover_s).push_back(entry - mark_);
      if (tracer_.enabled() && episode_ >= 0) log_.round_states.push_back(state);
      const auto size_before = fs::file_size(store_.path());
      {
        ScopedSpan span(tracer_, "store.cursor_commit", episode_);
        durable_(cursor, state);
      }
      mark_ = now_s();
      log_.commit_s.push_back(mark_ - entry);
      log_.growth_bytes.push_back(static_cast<double>(fs::file_size(store_.path()) - size_before));
    };
    api_.emplace(trained_.fed.quickdrop, trained_.base, config);
  }

  qd::net::HttpResponse handle(const qd::net::HttpRequest& request) {
    const double t0 = now_s();
    const Route route = request.target == "/unlearn"           ? Route::kPost
                        : request.target.rfind("/request/", 0) == 0 ? Route::kStatus
                                                                  : Route::kMetrics;
    const char* name = route == Route::kPost     ? "net.post"
                       : route == Route::kStatus ? "net.status"
                                                 : "net.metrics";
    const int span = tracer_.open(name, episode_, t0);
    auto response = api_->handle(request);
    if (route == Route::kPost && response.status == 202) {
      admitted_.push_back(json_int(response.body, "id"));
    }
    const double t1 = now_s();
    tracer_.close(span, t1);
    (route == Route::kPost ? log_.post_s : route == Route::kStatus ? log_.status_s : log_.metrics_s)
        .push_back(t1 - t0);
    const std::string& call = request.header("x-call");
    if (!call.empty()) log_.handler_by_call[std::stoll(call)] = t1 - t0;
    return response;
  }

  void idle() {
    {
      std::lock_guard lock(mu_);
      if (rebuild_) {
        ScopedSpan span(tracer_, "metrics.eval", episode_);
        const double t0 = now_s();
        auto& fed = trained_.fed;
        qd::nn::load_state(*fed.eval_model, api_->state());
        log_.episode_acc.push_back(qd::metrics::accuracy_excluding_classes(
            *fed.eval_model, fed.data.test, forgotten_classes_));
        log_.eval_s.push_back(now_s() - t0);
        rebuild_api();
        ++episode_;
        rebuild_ = false;
        cv_.notify_all();
        return;
      }
    }
    if (admitted_.empty()) return;
    const double t0 = now_s();
    mark_ = t0;
    const int span = tracer_.open("net.drain", episode_, t0);
    api_->drain();
    {
      ScopedSpan clear(tracer_, "store.cursor_clear", episode_);
      qd::serve::clear_durable_cursors(store_, trained_.fed.quickdrop->state_layout()->hash());
    }
    const double t1 = now_s();
    tracer_.close(span, t1);
    log_.drains.emplace_back(t0, t1);
    for (const auto id : admitted_) log_.completed_at[{episode_, id}] = t1;
    admitted_.clear();
  }

  void serve() {
    try {
      qd::net::serve_http(
          listener_, [this](const qd::net::HttpRequest& r) { return handle(r); },
          [this] { idle(); }, [this] { return stop_.load(); }, kIdleSliceMs);
    } catch (const std::exception& e) {
      std::lock_guard lock(mu_);
      log_.error = e.what();
      failed_ = true;
      cv_.notify_all();
    }
  }

  Trained& trained_;
  qd::store::Store store_;
  qd::core::UnlearnCursorCallback durable_;
  Tracer tracer_;
  ServerLog log_;
  std::optional<qd::net::ApiService> api_;
  std::vector<std::int64_t> admitted_;  ///< admitted since the last drain
  int episode_ = -1;  // the warm-up episode is -1
  double mark_ = 0.0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool rebuild_ = false;
  bool failed_ = false;
  std::vector<int> forgotten_classes_;

  std::atomic<bool> stop_{false};
  qd::net::TcpListener listener_;
  std::thread thread_;  // last: joins before the members it uses go away
};

/// Generator-side record of one run.
struct GenLog {
  std::vector<CallTiming> calls;  ///< every scheduled call, in send order
  std::vector<double> lag_s;
  std::map<std::pair<int, std::int64_t>, double> post_due;  ///< (episode, id) -> due
  int failed_calls = 0;
  double window_s = 0.0;  ///< summed episode durations (pauses excluded)
  std::int64_t completed_reported = 0;
  std::int64_t cycles = 0;
  double total_bytes = 0.0;
  double kgrads = 0.0;
};

/// Sends one episode's schedule and waits for all its requests to complete.
void run_episode(Server& server, Clock& clock, int episode,
                 const std::vector<qd::serve::ServiceRequest>& targets,
                 std::uint64_t seed, Tracer& tracer, Report& report, GenLog& log) {
  const auto offsets = poisson_schedule(seed ^ (0x9E37ULL * (episode + 1)), kPostRate,
                                        static_cast<int>(targets.size()));
  const double origin = clock.now() + 0.01;
  std::size_t next_post = 0;
  double next_metrics = origin + kMetricsPeriod;
  std::map<std::int64_t, double> pending;  // id -> next poll due
  const double deadline = origin + 120.0;

  // Scheduled calls are numbered in send order (warm-up calls are untagged).
  auto call_id = [&] {
    return episode < 0 ? std::int64_t{-1} : static_cast<std::int64_t>(log.calls.size());
  };
  auto record = [&](const CallTiming& t, bool ok) {
    log.calls.push_back(t);
    log.lag_s.push_back(t.lag());
    report.attempt(ok);
    if (!ok) ++log.failed_calls;
  };

  while (next_post < targets.size() || !pending.empty()) {
    if (clock.now() > deadline || server.failed()) {
      throw std::runtime_error("http episode " + std::to_string(episode) + ": " +
                               (server.failed() ? "server thread failed" : "deadline passed"));
    }
    const double post_due =
        next_post < targets.size() ? origin + offsets[next_post] : 1e300;
    double poll_due = 1e300;
    std::int64_t poll_id = -1;
    for (const auto& [id, due] : pending) {
      if (due < poll_due) {
        poll_due = due;
        poll_id = id;
      }
    }
    const double due = std::min({post_due, poll_due, next_metrics});
    if (due == post_due) {
      const auto& target = targets[next_post++];
      HttpResult result;
      const auto timing = timed_call(clock, due, [&] {
        ScopedSpan span(tracer, "gen.post", episode);
        result = http_call(server.port(), "POST", "/unlearn", unlearn_body(target), call_id());
        return result.status == 202;
      });
      record(timing, timing.ok);
      if (timing.ok) {
        const auto id = json_int(result.body, "id");
        log.post_due[{episode, id}] = due;
        pending[id] = timing.end;  // first poll right away: the request is queued
      } else {
        report.check("POST /unlearn " + unlearn_body(target) + " -> 202", false,
                     "status " + std::to_string(result.status));
      }
    } else if (due == poll_due) {
      HttpResult result;
      const auto timing = timed_call(clock, due, [&] {
        ScopedSpan span(tracer, "gen.status", episode);
        result = http_call(server.port(), "GET", "/request/" + std::to_string(poll_id), "",
                           call_id());
        return result.status == 200;
      });
      record(timing, timing.ok);
      if (timing.ok && result.body.find("\"completed\"") != std::string::npos) {
        pending.erase(poll_id);
      } else {
        pending[poll_id] = timing.end + kPollGap;
      }
    } else {
      HttpResult result;
      const auto timing = timed_call(clock, due, [&] {
        ScopedSpan span(tracer, "gen.metrics", episode);
        result = http_call(server.port(), "GET", "/metrics", "", call_id());
        return result.status == 200;
      });
      record(timing, timing.ok);
      next_metrics += kMetricsPeriod;
    }
  }
  log.window_s += clock.now() - origin;

  // Outside the schedule: the service must account for every request.
  const auto metrics = http_call(server.port(), "GET", "/metrics");
  report.attempt(metrics.status == 200);
  const auto completed = json_int(metrics.body, "completed");
  if (completed != static_cast<std::int64_t>(targets.size())) {
    report.check("episode " + std::to_string(episode) + " /metrics completed == POSTs", false,
                 std::to_string(completed) + " of " + std::to_string(targets.size()));
  }
  log.completed_reported += completed;
  log.cycles += json_int(metrics.body, "cycles");
  log.total_bytes += static_cast<double>(json_int(metrics.body, "total_bytes"));
  log.kgrads += json_number(metrics.body, "sim_clock_seconds");

  std::vector<int> classes;
  for (const auto& t : targets) {
    if (t.kind == qd::serve::RequestKind::kClass) classes.push_back(t.target);
  }
  server.next_episode(classes);
}

/// The update codec, replayed after the window on model-sized deltas between
/// consecutive round states of the run: encode_delta -> probe_quantized ->
/// fold_quantized into a shard tree, finalized every ten folds like a
/// ten-client round.
void replay_codec(LayerFigures& layers, Report& report, const qd::core::QuickDrop& coordinator,
                  const std::vector<qd::nn::ModelState>& states) {
  std::vector<double> encode_s, probe_s, fold_s, finalize_s;
  const auto timed = [](std::vector<double>& out, const auto& fn) {
    const double t0 = now_s();
    fn();
    out.push_back(now_s() - t0);
  };
  qd::fl::ShardTree tree(coordinator.state_layout(), {});
  for (std::size_t i = 1; i < states.size(); ++i) {
    const auto& base = states[i - 1];
    const auto delta = qd::nn::subtract(states[i], base);
    std::vector<std::uint8_t> wire;
    timed(encode_s, [&] { wire = qd::fl::encode_delta(delta, qd::fl::Codec::kInt8); });
    qd::fl::ShardTree::WireProbe probe;
    timed(probe_s, [&] { probe = tree.probe_quantized(wire, base); });
    if (!probe.finite) report.check("codec replay delta finite", false, std::to_string(i));
    timed(fold_s, [&] { tree.fold_quantized(static_cast<int>(i % 10), wire, base, 1.0); });
    if (i % 10 == 0) {
      timed(finalize_s, [&] { (void)tree.finalize(0.1); });
      tree.reset();
    }
  }
  layers.add("fl.encode_us", 1e6 * percentile(encode_s, 50, "encode"), "us");
  layers.add("fl.probe_us", 1e6 * percentile(probe_s, 50, "probe"), "us");
  layers.add("fl.fold_us", 1e6 * percentile(fold_s, 50, "fold"), "us");
  layers.add("fl.finalize_us", 1e6 * mean(finalize_s), "us");
}

}  // namespace

void run_http(const Options& options, Report& report) {
  const int posts = std::max(40, static_cast<int>(kPostRate * options.seconds));
  // Batching depends on timing here, so no count is exact; the facts file
  // only keeps the untraced window for the tracing-overhead figure.
  Facts facts(options, "p" + std::to_string(posts));
  SteadyClock clock;

  // Set-up: data, federation, base training, the server, and one warm-up
  // request driven to completion.
  const double setup_start = now_s();
  Trained trained = build_trained(options.seed, kServing);
  const std::string store_path = options.out_dir + "/http.qds";
  fs::remove(store_path);
  Server server(trained, store_path, options.trace);
  {
    GenLog warm;
    Report scratch;
    Tracer off(false, 0);
    run_episode(server, clock, -1, {qd::serve::ServiceRequest{}}, options.seed, off,
                scratch, warm);
    if (!scratch.correct()) report.check("http warm-up request", false, "");
  }
  const double setup_s = now_s() - setup_start;

  const auto plan = episode_plan(options.seed, posts, *trained.fed.quickdrop);
  Tracer tracer(options.trace, 0);
  GenLog log;
  const double start = now_s();
  const int window = tracer.open("http.window", -1, start);
  for (std::size_t e = 0; e < plan.size(); ++e) {
    run_episode(server, clock, static_cast<int>(e), plan[e], options.seed, tracer, report, log);
  }
  const double end = now_s();
  tracer.close(window, end);
  ServerLog& server_log = server.finish();
  if (!server_log.error.empty()) report.check("server thread", false, server_log.error);

  // Forget latency: from each POST's due time to the end of its drain.
  std::vector<double> forget_s;
  for (const auto& [key, due] : log.post_due) {
    const auto done = server_log.completed_at.find(key);
    if (done != server_log.completed_at.end()) forget_s.push_back(done->second - due);
  }
  report.check("every POST answered 202 and completed",
               static_cast<int>(forget_s.size()) == posts,
               std::to_string(forget_s.size()) + " of " + std::to_string(posts));
  report.check("/metrics completed counts equal the POSTs sent", log.completed_reported == posts,
               std::to_string(log.completed_reported) + " of " + std::to_string(posts));
  report.check("no call failed or got a 5xx", log.failed_calls == 0,
               std::to_string(log.failed_calls) + " of " + std::to_string(log.calls.size()));
  std::vector<double> ack_s;
  // A failed call misses every latency limit: it counts as 10^6 s.
  for (const auto& call : log.calls) ack_s.push_back(call.ok ? call.latency() : 1e6);
  double busy = 0.0;
  std::vector<double> drain_s;
  for (const auto& [t0, t1] : server_log.drains) {
    busy += t1 - t0;
    drain_s.push_back(t1 - t0);
  }
  const double busy_pct = 100.0 * busy / log.window_s;
  std::printf("http: %d POSTs in %zu episodes, %zu calls, %.1f s window, drain busy %.1f%%, "
              "%lld cycles\n",
              posts, plan.size(), log.calls.size(), log.window_s, busy_pct,
              static_cast<long long>(log.cycles));

  if (!options.trace) {
    facts.note("untraced_wall_s", end - start);
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("op_ms_p50", 1e3 * percentile(forget_s, 50, "forget"), "ms");
    report.metric("op_ms_p75", 1e3 * percentile(forget_s, 75, "forget"), "ms");
    report.metric("ack_ms_p50", 1e3 * percentile(ack_s, 50, "HTTP call"), "ms");
    report.metric("op_kb", log.total_bytes / posts / 1024.0, "KiB");
    report.metric("op_kgrads", log.kgrads / posts, "k");
    report.metric("acc_pct", 100.0 * mean(server_log.episode_acc), "%");
  } else {
    LayerFigures layers;
    layers.round_s = server_log.round_s;
    layers.commit_s = server_log.commit_s;
    layers.commit_growth_bytes = mean(server_log.growth_bytes);
    layers.commit_logical_bytes = static_cast<double>(
        qd::core::serialize_checkpoint(
            qd::core::make_checkpoint(trained.base, trained.fed.quickdrop->stores()))
            .size());
    layers.train_grads_per_round = 1e3 * log.kgrads / static_cast<double>(server_log.round_s.size());
    layers.add("net.post_us_p50", 1e6 * percentile(server_log.post_s, 50, "POST handler"), "us");
    layers.add("net.status_us_p50", 1e6 * percentile(server_log.status_s, 50, "status handler"),
               "us");
    layers.add("net.metrics_us_p50",
               1e6 * percentile(server_log.metrics_s, 50, "metrics handler"), "us");
    layers.add("net.drain_ms_p50", 1e3 * percentile(drain_s, 50, "drain"), "ms");
    layers.add("net.drain_busy_pct", busy_pct, "%");
    // Time a call spent outside its handler: queued behind a drain or
    // another connection, plus connection set-up and transfer.
    std::vector<double> waits;
    for (std::size_t i = 0; i < log.calls.size(); ++i) {
      const auto handled = server_log.handler_by_call.find(static_cast<std::int64_t>(i));
      if (handled != server_log.handler_by_call.end()) {
        waits.push_back(log.calls[i].latency() - handled->second);
      }
    }
    layers.add("net.ack_wait_ms_p75", 1e3 * percentile(waits, 75, "ack wait"), "ms");
    layers.add("serve.batch_mean",
               log.cycles > 0 ? static_cast<double>(log.completed_reported) / log.cycles : 0.0,
               "requests");
    layers.add("serve.cycles", static_cast<double>(log.cycles), "count");
    layers.add("gen.lag_ms_p75", 1e3 * percentile(log.lag_s, 75, "generator lag"), "ms");
    layers.add("gen.calls", static_cast<double>(log.calls.size()), "count");
    layers.add("gen.failed", static_cast<double>(log.failed_calls), "count");
    layers.add("core.sga_ms_p50", 1e3 * percentile(server_log.sga_s, 50, "SGA round"), "ms");
    layers.add("core.recover_ms_p50", 1e3 * percentile(server_log.recover_s, 50, "recovery round"),
               "ms");
    layers.add("metrics.eval_ms_mean", 1e3 * mean(server_log.eval_s), "ms");
    replay_codec(layers, report, *trained.fed.quickdrop, server_log.round_states);
    // The server thread's spans from set-up are left out of the table.
    report_layers(options, report, layers,
                  {tracer.spans(), spans_since(server.tracer().spans(), start)}, start, end - start,
                  facts.stored_note("untraced_wall_s"));
  }
  facts.save(report);
}

}  // namespace perfbench
