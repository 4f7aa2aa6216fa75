// The traced run: hosts the layers in-process and replays the workload's
// request stream, timing each public call from the benchmark's own code
// (the program gets no instrumentation). Prints the per-layer metrics as
// the result line, preceded by one line with the run's own end-to-end
// figures, so the difference from an untraced run is the tracing overhead.
//
// Layer metrics come from three places:
//   - set-up: LoadFactsFromFile, QueryDirectedChase + ChaseStats, Normalize
//     (both modes) and PreparedOMQ::Prepare, each repeated and medianed;
//   - calls into a hosted OmqeServer: QueryRegistry::Get/Prepare,
//     ParseRequest, SessionManager::Open/Fetch/Close/OverlayStats, and
//     EnumerationSession::Next;
//   - the replay: each request through loopback TCP (ServeTcp on a thread)
//     and through OmqeServer::HandleLine directly, and each FETCH through
//     HandleLine on one session and SessionManager::Fetch on a twin session
//     of the same query, so the differences isolate the transport and the
//     dispatch + render work.
#include <atomic>
#include <cstdio>
#include <deque>
#include <thread>

#include "base/timer.h"
#include "chase/query_directed.h"
#include "common.h"
#include "cq/parser.h"
#include "eval/normalize.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {
namespace {

using omqe::NowNanos;

constexpr int kRepeats = 3;        // set-up layers are timed this many times
constexpr int kSessionCycles = 2000;

/// Keeps timed calls whose results are otherwise unused from being elided.
volatile size_t g_sink = 0;

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double Us(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Correctness and failure bookkeeping of the traced run.
struct Checks {
  bool correct = true;
  std::string why;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> errors;  // by wire code

  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  /// Counts one request's reply; false on an ERR terminator.
  bool Reply(const Block& b) {
    attempted += 1;
    std::string code = ErrCodeOf(b.terminator);
    if (code.empty()) return true;
    failed += 1;
    errors[code] += 1;
    Fail("server answered " + b.terminator);
    return false;
  }
};

/// One server request: through HandleLine, timed.
Block Handle(omqe::server::OmqeServer* srv, const std::string& line,
             int64_t* ns, Checks* checks) {
  std::string out;
  const int64_t t0 = NowNanos();
  srv->HandleLine(line, &out);
  *ns = NowNanos() - t0;
  Block b = ParseResponse(out);
  checks->Reply(b);
  return b;
}

/// One server request: through the TCP transport, timed.
Block Tcp(Conn* c, const std::string& line, int64_t* ns, Checks* checks) {
  Block b;
  const int64_t t0 = NowNanos();
  if (!c->Send(line) || !c->WaitBlock(&b)) {
    checks->attempted += 1;
    checks->failed += 1;
    checks->Fail("TCP connection failed");
    return b;
  }
  *ns = NowNanos() - t0;
  checks->Reply(b);
  return b;
}

uint64_t SidOf(const Block& b, Checks* checks) {
  uint64_t sid = 0;
  if (!omqe::server::ParseOpenSession(b.terminator, &sid)) {
    checks->Fail("bad OPEN reply: " + b.terminator);
  }
  return sid;
}

/// HandleLine FETCH on session `a` beside SessionManager::Fetch of the same
/// rows on twin session `b`; keeps the pass checksum of `a`.
class TwinFetcher {
 public:
  TwinFetcher(omqe::server::OmqeServer* srv, const omqe::Vocabulary* vocab,
              const Reference& ref, uint32_t batch, Checks* checks)
      : srv_(srv), vocab_(vocab), ref_(ref), batch_(batch), checks_(checks) {
    a_ = SidOf(Handle(srv, "OPEN a", &scratch_ns_, checks), checks);
    auto b = srv->sessions().Open(srv->registry().Get("a"), false);
    if (!b.ok()) checks->Fail("twin OPEN: " + b.status().ToString());
    b_ = b.ok() ? b.value() : 0;
    fetch_line_ = "FETCH " + std::to_string(a_) + " " + std::to_string(batch);
  }

  /// One FETCH on both sessions. `due` is the open-loop schedule time of
  /// the request (0 in a closed loop): a FETCH that queued behind a stalled
  /// one waited from then, not from its own HandleLine call. Returns the
  /// HandleLine latency from `due` (or from the call).
  int64_t Step(int64_t due) {
    int64_t handle_ns = 0;
    Block blk = Handle(srv_, fetch_line_, &handle_ns, checks_);
    const int64_t waited_ns =
        due > 0 ? NowNanos() - due : handle_ns;
    std::vector<omqe::ValueTuple> rows;
    bool done = false;
    const int64_t t0 = NowNanos();
    omqe::Status s = srv_->sessions().Fetch(b_, batch_, &rows, &done);
    const int64_t fetch_ns = NowNanos() - t0;
    if (!s.ok()) checks_->Fail("twin FETCH: " + s.ToString());
    // The twin must have produced exactly the rows the wire rendered.
    uint64_t twin_checksum = 0;
    for (const omqe::ValueTuple& row : rows) {
      twin_checksum += RowHash(RenderRow(*vocab_, row));
    }
    if (rows.size() != blk.rows || twin_checksum != blk.checksum) {
      checks_->Fail("twin session diverged from the HandleLine session");
    }
    session_fetch_us.push_back(Us(fetch_ns));
    wait_us.push_back(Us(waited_ns - fetch_ns));
    if (blk.rows > 0) {
      render_ns_per_row.push_back(static_cast<double>(handle_ns - fetch_ns) /
                                  static_cast<double>(blk.rows));
    }
    rows_ += blk.rows;
    checksum_ += blk.checksum;
    if (done) {
      if (rows_ != ref_.rows || checksum_ != ref_.checksum) {
        checks_->Fail("traced pass returned " + std::to_string(rows_) +
                      " rows, expected " + std::to_string(ref_.rows));
      }
      rows_ = checksum_ = 0;
      Handle(srv_, "RESET " + std::to_string(a_), &scratch_ns_, checks_);
      if (!srv_->sessions().Reset(b_).ok()) checks_->Fail("twin RESET failed");
    }
    return waited_ns;
  }

  std::vector<double> session_fetch_us;   ///< SessionManager::Fetch
  std::vector<double> wait_us;            ///< HandleLine (from due) − Fetch
  std::vector<double> render_ns_per_row;  ///< (HandleLine − Fetch) / rows

 private:
  omqe::server::OmqeServer* srv_;
  const omqe::Vocabulary* vocab_;
  const Reference& ref_;
  uint32_t batch_;
  Checks* checks_;
  uint64_t a_ = 0, b_ = 0;
  std::string fetch_line_;
  uint64_t rows_ = 0, checksum_ = 0;
  int64_t scratch_ns_ = 0;
};

}  // namespace

int RunTraced(const Args& args, const Workload& w, const InputFiles& files) {
  Checks checks;
  std::map<std::string, Metric> m;

  // data: LoadFactsFromFile (with the ontology parse the server does first).
  std::vector<double> load_s;
  Env env;
  for (int k = 0; k < kRepeats; ++k) {
    const int64_t t0 = NowNanos();
    auto loaded = LoadEnv(files);
    load_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    env = std::move(loaded).value();
  }
  m["data.load_s"] = {Median(load_s), "s"};
  auto ref_or = ComputeReference(&env);
  if (!ref_or.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref_or.status().ToString().c_str());
    return 1;
  }
  const Reference& ref = ref_or.value();

  // chase / eval / core prepare, each timed on its own.
  omqe::CQ query = omqe::ParseCQ(kQueryText, env.vocab.get()).value();
  omqe::OMQ omq = omqe::MakeOMQ(env.ontology, query);
  omqe::PrepareOptions popts;
  if (w.prepare_threads > 0) popts.chase.num_threads = w.prepare_threads;
  const double input_facts = static_cast<double>(env.db->TotalFacts());
  std::vector<double> chase_ms, match_ms, apply_ms, norm_ms, prep_ms;
  double chase_facts = 0, applied_ratio = 0, trees = 0;
  for (int k = 0; k < kRepeats; ++k) {
    int64_t t0 = NowNanos();
    auto chase = omqe::QueryDirectedChase(*env.db, env.ontology, query,
                                          popts.chase);
    chase_ms.push_back(Ms(NowNanos() - t0));
    if (!chase.ok()) {
      std::fprintf(stderr, "chase: %s\n", chase.status().ToString().c_str());
      return 1;
    }
    const omqe::ChaseStats& cs = (*chase)->stats;
    match_ms.push_back(Ms(static_cast<int64_t>(cs.match_nanos)));
    apply_ms.push_back(Ms(static_cast<int64_t>(cs.apply_nanos)));
    chase_facts = static_cast<double>((*chase)->db.TotalFacts());
    applied_ratio = cs.candidates > 0 ? static_cast<double>(cs.applied) /
                                            static_cast<double>(cs.candidates)
                                      : 1.0;
    omqe::Normalized complete_norm, partial_norm;
    t0 = NowNanos();
    omqe::Status s1 = omqe::Normalize(query, (*chase)->db, true, &complete_norm);
    omqe::Status s2 = omqe::Normalize(query, (*chase)->db, false, &partial_norm);
    norm_ms.push_back(Ms(NowNanos() - t0));
    if (!s1.ok() || !s2.ok()) checks.Fail("Normalize failed");
    t0 = NowNanos();
    auto prepared = omqe::PreparedOMQ::Prepare(omq, *env.db, popts);
    prep_ms.push_back(Ms(NowNanos() - t0));
    if (!prepared.ok()) {
      std::fprintf(stderr, "prepare: %s\n", prepared.status().ToString().c_str());
      return 1;
    }
    trees = static_cast<double>((*prepared)->num_progress_trees());
  }
  if (trees != static_cast<double>(ref.trees) ||
      chase_facts != static_cast<double>(ref.chase_facts)) {
    checks.Fail("in-process prepare shape differs from the reference");
  }
  m["chase.ms"] = {Median(chase_ms), "ms"};
  m["chase.match_ms"] = {Median(match_ms), "ms"};
  m["chase.apply_ms"] = {Median(apply_ms), "ms"};
  m["chase.facts"] = {chase_facts, "count"};
  m["chase.ns_per_fact"] = {Median(chase_ms) * 1e6 / input_facts, "ns"};
  m["chase.applied_ratio"] = {applied_ratio, "ratio"};
  m["eval.normalize_ms"] = {Median(norm_ms), "ms"};
  m["eval.normalize_ns_per_fact"] = {Median(norm_ms) * 1e6 / chase_facts, "ns"};
  m["core.prepare_ms"] = {Median(prep_ms), "ms"};
  m["core.collect_ms"] = {
      std::max(0.0, Median(prep_ms) - Median(chase_ms) - Median(norm_ms)),
      "ms"};
  m["core.trees"] = {trees, "count"};

  // Host the server: the same options the wire run passes on the command
  // line, with ServeTcp on a thread for the transport leg.
  omqe::server::ServerOptions options;
  options.registry.prepare_threads = w.prepare_threads;
  omqe::server::OmqeServer srv(env.vocab.get(), &env.ontology, env.db.get(),
                               options);
  std::atomic<int> port{0};
  std::thread tcp([&] {
    omqe::Status s = omqe::server::ServeTcp(
        &srv, 0, [&](uint16_t bound) { port.store(bound); });
    if (!s.ok()) std::fprintf(stderr, "ServeTcp: %s\n", s.ToString().c_str());
  });
  while (port.load() == 0) std::this_thread::yield();
  // Stops the transport and joins its thread on every path out.
  struct Stopper {
    omqe::server::OmqeServer* srv;
    std::thread* tcp;
    ~Stopper() {
      srv->BeginShutdown();
      tcp->join();
    }
  } stopper{&srv, &tcp};

  // registry: Prepare while the server is quiet, then Get.
  std::vector<double> reg_prep_ms;
  for (int k = 0; k < kRepeats; ++k) {
    const int64_t t0 = NowNanos();
    auto p = srv.registry().Prepare("a", query);
    reg_prep_ms.push_back(Ms(NowNanos() - t0));
    if (!p.ok()) {
      std::fprintf(stderr, "registry prepare: %s\n", p.status().ToString().c_str());
      return 1;
    }
  }
  m["registry.prepare_ms"] = {Median(reg_prep_ms), "ms"};
  std::vector<double> get_ns;
  size_t sink = 0;  // summed into g_sink after the timed loops
  for (int batch = 0; batch < 200; ++batch) {
    const int64_t t0 = NowNanos();
    for (int i = 0; i < 1000; ++i) sink += srv.registry().Get("a") != nullptr;
    get_ns.push_back(static_cast<double>(NowNanos() - t0) / 1000.0);
  }
  m["registry.get_ns"] = {Median(get_ns), "ns"};

  // protocol: ParseRequest over the workload's request lines.
  std::vector<std::string> lines;
  if (w.name == "session-churn") {
    lines = {"OPEN a", "FETCH 17 1", "CLOSE 17"};
  } else {
    lines = {"FETCH 17 " + std::to_string(w.fetch_batch), "RESET 17"};
    if (w.name == "prepare-under-fetch") {
      lines.push_back(std::string("PREPARE b ") + kQueryText);
    }
  }
  std::vector<double> parse_ns;
  for (int batch = 0; batch < 200; ++batch) {
    const int64_t t0 = NowNanos();
    for (int i = 0; i < 1000; ++i) {
      sink += omqe::server::ParseRequest(lines[i % lines.size()]).ok();
    }
    parse_ns.push_back(static_cast<double>(NowNanos() - t0) / 1000.0);
  }
  m["protocol.parse_ns"] = {Median(parse_ns), "ns"};

  // session_manager: Open / Fetch 1 / Close cycles.
  omqe::server::SessionManager& sm = srv.sessions();
  std::shared_ptr<const omqe::PreparedOMQ> prepared = srv.registry().Get("a");
  std::vector<double> open_us, close_us;
  for (int i = 0; i < kSessionCycles && checks.correct; ++i) {
    int64_t t0 = NowNanos();
    auto sid = sm.Open(prepared, false);
    open_us.push_back(Us(NowNanos() - t0));
    if (!sid.ok()) {
      checks.Fail("Open: " + sid.status().ToString());
      break;
    }
    std::vector<omqe::ValueTuple> rows;
    bool done = false;
    if (!sm.Fetch(sid.value(), 1, &rows, &done).ok() || rows.size() != 1) {
      checks.Fail("Fetch 1 on a fresh session");
    }
    t0 = NowNanos();
    if (!sm.Close(sid.value()).ok()) checks.Fail("Close failed");
    close_us.push_back(Us(NowNanos() - t0));
  }
  m["session.open_us"] = {Median(open_us), "us"};
  m["session.close_us"] = {Median(close_us), "us"};

  // core: per-answer EnumerationSession::Next, and the overlay a drained
  // session touched (SessionManager::OverlayStats).
  {
    omqe::EnumerationSession es(prepared);
    omqe::ValueTuple row;
    std::vector<double> next_ns;
    next_ns.reserve(ref.rows + 1);
    for (bool more = true; more;) {
      const int64_t t0 = NowNanos();
      more = es.Next(&row);
      next_ns.push_back(static_cast<double>(NowNanos() - t0));
    }
    m["core.next_p50_ns"] = {Quantile(next_ns, 0.5), "ns"};
    m["core.next_p99_ns"] = {Quantile(next_ns, 0.99), "ns"};
    auto sid = sm.Open(prepared, false);
    std::vector<omqe::ValueTuple> rows;
    bool done = false;
    while (sid.ok() && !done && sm.Fetch(sid.value(), 100000, &rows, &done).ok()) {
    }
    auto overlay = sid.ok() ? sm.OverlayStats(sid.value())
                            : StatusOr<omqe::LinkOverlay::Stats>(sid.status());
    if (!overlay.ok() || rows.size() != ref.rows) {
      checks.Fail("drained session returned " + std::to_string(rows.size()) +
                  " rows, expected " + std::to_string(ref.rows));
    } else {
      m["core.overlay_touched_per_row"] = {
          static_cast<double>(overlay->touched_nodes) /
              static_cast<double>(rows.size()),
          "count"};
    }
    if (sid.ok()) sm.Close(sid.value());
  }

  // The replay. First the transport leg: each request of the workload's
  // cycle over TCP, then the same request through HandleLine.
  const int64_t replay_ns = static_cast<int64_t>(args.seconds) * 1'000'000'000;
  Conn conn;
  if (omqe::Status s = conn.Connect(static_cast<uint16_t>(port.load())); !s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<double> tcp_us, handle_us;
  {
    int64_t ns = 0;
    const int64_t end = NowNanos() + replay_ns * 3 / 10;
    if (w.name == "session-churn") {
      while (NowNanos() < end && checks.correct) {
        for (bool via_tcp : {true, false}) {
          std::vector<double>& out = via_tcp ? tcp_us : handle_us;
          auto call = [&](const std::string& line) {
            Block b = via_tcp ? Tcp(&conn, line, &ns, &checks)
                              : Handle(&srv, line, &ns, &checks);
            out.push_back(Us(ns));
            return b;
          };
          const std::string sid = std::to_string(SidOf(call("OPEN a"), &checks));
          if (call("FETCH " + sid + " 1").rows != 1) checks.Fail("FETCH 1 row");
          call("CLOSE " + sid);
        }
      }
    } else {
      const std::string tcp_sid =
          std::to_string(SidOf(Tcp(&conn, "OPEN a", &ns, &checks), &checks));
      const std::string handle_sid =
          std::to_string(SidOf(Handle(&srv, "OPEN a", &ns, &checks), &checks));
      const std::string batch = " " + std::to_string(w.fetch_batch);
      while (NowNanos() < end && checks.correct) {
        Block b = Tcp(&conn, "FETCH " + tcp_sid + batch, &ns, &checks);
        tcp_us.push_back(Us(ns));
        bool tcp_done = false, handle_done = false;
        uint64_t k = 0;
        ParseFetchOk(b.terminator, &k, &tcp_done);
        b = Handle(&srv, "FETCH " + handle_sid + batch, &ns, &checks);
        handle_us.push_back(Us(ns));
        ParseFetchOk(b.terminator, &k, &handle_done);
        if (tcp_done) Tcp(&conn, "RESET " + tcp_sid, &ns, &checks);
        if (handle_done) Handle(&srv, "RESET " + handle_sid, &ns, &checks);
      }
    }
  }
  m["transport.overhead_us"] = {Median(tcp_us) - Median(handle_us), "us"};

  // Then the dispatch + render leg: HandleLine FETCH beside the twin
  // session's SessionManager::Fetch — closed loop, or for
  // prepare-under-fetch on the open-loop schedule while a second TCP
  // connection re-PREPAREs with the workload's idle time between replies.
  TwinFetcher twin(&srv, env.vocab.get(), ref, w.fetch_batch, &checks);
  std::vector<double> scheduled_us, prepare_ms;
  {
    const int64_t end = NowNanos() + replay_ns * 5 / 10;
    if (w.fetch_rate == 0) {
      while (NowNanos() < end && checks.correct) twin.Step(0);
    } else {
      std::atomic<bool> stop{false};
      Checks prep_checks;
      std::thread preparer([&] {
        Conn pc;
        if (!pc.Connect(static_cast<uint16_t>(port.load())).ok()) {
          prep_checks.Fail("preparer cannot connect");
          return;
        }
        const std::string line = std::string("PREPARE b ") + kQueryText;
        while (!stop.load() && prep_checks.correct) {
          int64_t ns = 0;
          Block b = Tcp(&pc, line, &ns, &prep_checks);
          prepare_ms.push_back(Ms(ns));
          uint64_t t = 0, f = 0;
          if (!ParsePreparedOk(b.terminator, &t, &f) || t != ref.trees ||
              f != ref.chase_facts) {
            prep_checks.Fail("PREPARE shape mismatch: " + b.terminator);
          }
          const int64_t resume = NowNanos() + int64_t{w.think_ms} * 1'000'000;
          while (!stop.load() && NowNanos() < resume) {
          }
        }
      });
      const int64_t period = 1'000'000'000 / w.fetch_rate;
      for (int64_t due = NowNanos(); due < end && checks.correct; due += period) {
        while (NowNanos() < due) {
        }
        scheduled_us.push_back(Us(twin.Step(due)));
      }
      stop.store(true);
      preparer.join();
      checks.attempted += prep_checks.attempted;
      checks.failed += prep_checks.failed;
      for (const auto& [code, n] : prep_checks.errors) checks.errors[code] += n;
      if (!prep_checks.correct) checks.Fail(prep_checks.why);
    }
  }
  m["session.fetch_us"] = {Median(twin.session_fetch_us), "us"};
  m["server.render_ns_per_row"] = {Median(twin.render_ns_per_row), "ns"};
  m["server.fetch_wait_p99_us"] = {Quantile(twin.wait_us, 0.99), "us"};
  for (const char* code :
       {"BADREQ", "NOTFOUND", "DEADLINE", "OVERLOAD", "CANCELLED", "INTERNAL"}) {
    m[std::string("err.") + code] = {static_cast<double>(checks.errors[code]),
                                     "count"};
  }

  // The traced run's own end-to-end figures (tracing overhead = these vs
  // the untraced run's).
  // As in the wire run, the closed-loop requests of prepare-under-fetch are
  // its PREPAREs.
  std::map<std::string, Metric> e2e;
  if (prepare_ms.empty()) {
    e2e["req_p50_us"] = {Median(tcp_us), "us"};
  } else {
    e2e["req_p50_us"] = {Median(prepare_ms) * 1e3, "us"};
    e2e["fetch_p50_us"] = {Quantile(scheduled_us, 0.5), "us"};
    e2e["fetch_p99_us"] = {Quantile(scheduled_us, 0.99), "us"};
  }
  std::printf("{\"traced_end_to_end\": %s}\n", MetricsObject(e2e).c_str());

  std::fprintf(stderr, "%s seed=%llu traced: %zu TCP / %zu HandleLine requests, "
               "%zu twin FETCHes, %zu PREPAREs under fetch\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               tcp_us.size(), handle_us.size(), twin.wait_us.size(),
               prepare_ms.size());
  for (const auto& [name, metric] : m) {
    std::fprintf(stderr, "  %-28s %14.3f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  if (!checks.correct) std::fprintf(stderr, "INCORRECT: %s\n", checks.why.c_str());
  g_sink = sink;
  std::printf("%s\n",
              ResultJson(checks.correct, checks.attempted, checks.failed, m)
                  .c_str());
  return checks.correct ? 0 : 1;
}

}  // namespace perfbench
