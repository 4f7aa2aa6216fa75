// perfbench_loadgen: drives the real omqe_server binary over loopback TCP
// and prints the end-to-end metrics as one JSON line (--trace 0), or runs
// the traced in-process replay and prints the per-layer metrics
// (--trace 1, traced.cc).
//
//   perfbench_loadgen --workload fetch-bulk --seed 3 --seconds 10
//       --trace 0 --server <path/to/omqe_server> --workdir <work dir>
//
// One client thread drives every connection of a workload, and it never
// sleeps while a reply is due: sockets are non-blocking and waits spin.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>
#include <fcntl.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "base/timer.h"
#include "common.h"
#include "server/protocol.h"

namespace perfbench {
namespace {

using omqe::NowNanos;

/// One omqe_server child process. The destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server on an ephemeral port and returns once it listens.
  Status Launch(const Args& args, const Workload& w, const InputFiles& files) {
    const std::string log = args.workdir + "/server.log";
    int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int read_fd = ::open(log.c_str(), O_RDONLY);
    if (log_fd < 0 || read_fd < 0) return Status::Internal("cannot open " + log);
    std::vector<std::string> argv_s = {
        args.server, "--ontology=" + files.ontology_path,
        "--data=" + files.facts_path, "--port=0"};
    if (w.prepare_threads > 0) {
      argv_s.push_back("--prepare-threads=" + std::to_string(w.prepare_threads));
    }
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(log_fd, 1);
      ::dup2(log_fd, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    if (pid_ < 0) {
      ::close(read_fd);
      return Status::Internal("fork() failed");
    }
    // The server announces its port on stderr. Spin on the log for it: a
    // sleep here would let this vCPU halt, and its wake-up through the
    // hypervisor would land in setup_s.
    constexpr char kMarker[] = "listening on 127.0.0.1:";
    std::string text;
    char chunk[4096];
    const int64_t deadline = NowNanos() + 120'000'000'000;
    while (NowNanos() < deadline) {
      ssize_t n = ::read(read_fd, chunk, sizeof(chunk));
      if (n > 0) text.append(chunk, static_cast<size_t>(n));
      size_t at = text.find(kMarker);
      if (at != std::string::npos) {
        size_t end = text.find(' ', at + sizeof(kMarker) - 1);
        if (end != std::string::npos) {
          port_ = static_cast<uint16_t>(
              std::atoi(text.c_str() + at + sizeof(kMarker) - 1));
          ::close(read_fd);
          return Status::OK();
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        ::close(read_fd);
        return Status::Internal("omqe_server exited during start-up: " + text);
      }
    }
    ::close(read_fd);
    return Status::Internal("omqe_server did not start listening");
  }

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) in MiB, 0 if unreadable.
  double PeakRssMb() const {
    std::FILE* f = std::fopen(("/proc/" + std::to_string(pid_) + "/status").c_str(), "r");
    if (f == nullptr) return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    }
    std::fclose(f);
    return kb / 1024.0;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Everything a measured phase records. A pass is the workload's repeating
/// unit: a whole drain (fetch-bulk), 250 cycles (session-churn), or one
/// PREPARE and its idle time (prepare-under-fetch). Per-pass figures are
/// medianed over the run, so a pass the host disturbed does not move them.
/// The FETCH p99 is taken per pass too: on fetch-bulk a pass holds about 20
/// FETCHes, so there it is close to the pass's slowest FETCH.
struct Recorder {
  std::vector<double> req_us;        ///< closed-loop request latencies
  std::vector<double> fetch_us;      ///< FETCH latencies
  std::vector<double> pass_rates;    ///< closed-loop requests/s per pass
  std::vector<double> pass_row_rates;   ///< rows / FETCH-busy time per pass
  std::vector<double> pass_fetch_p99;   ///< per-pass p99 FETCH latency
  std::vector<double> lag_us;        ///< open-loop send lag behind schedule
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t passes = 0;
  bool correct = true;
  std::string why;
  // The current pass: its FETCH latencies, rows, and the time with at least
  // one FETCH outstanding, from its send (or, in the open loop, its
  // scheduled send) to the reply that leaves none.
  std::vector<double> pass_fetch_us;
  double pass_rows = 0;
  double pass_busy_s = 0;
  int64_t busy_since = 0;
  int outstanding_fetches = 0;

  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
  /// Counts an ERR terminator or a broken connection as a failed request.
  bool Check(bool received, const Block& b) {
    if (!received) {
      failed += 1;
      Fail("connection failed");
      return false;
    }
    if (!ErrCodeOf(b.terminator).empty()) {
      failed += 1;
      Fail("server answered " + b.terminator);
      return false;
    }
    return true;
  }
  void FetchSent(int64_t t) {
    if (outstanding_fetches++ == 0) busy_since = t;
  }
  void Fetched(const Block& b, double lat_us) {
    fetch_us.push_back(lat_us);
    pass_fetch_us.push_back(lat_us);
    pass_rows += static_cast<double>(b.rows);
    if (--outstanding_fetches == 0) {
      pass_busy_s += static_cast<double>(NowNanos() - busy_since) * 1e-9;
    }
  }
  void EndPass() {
    passes += 1;
    if (!pass_fetch_us.empty()) {
      pass_fetch_p99.push_back(Quantile(pass_fetch_us, 0.99));
    }
    if (pass_busy_s > 0) pass_row_rates.push_back(pass_rows / pass_busy_s);
    pass_fetch_us.clear();
    pass_rows = pass_busy_s = 0;
  }
};

/// Checks a PREPARE reply against the reference artifact's shape.
bool CheckPrepared(bool received, const Block& b, const Reference& ref,
                   Recorder* rec) {
  if (!rec->Check(received, b)) return false;
  uint64_t trees = 0, facts = 0;
  if (!ParsePreparedOk(b.terminator, &trees, &facts) || trees != ref.trees ||
      facts != ref.chase_facts) {
    rec->Fail("PREPARE shape mismatch: " + b.terminator);
    return false;
  }
  return true;
}

/// PREPAREs the served query under the name "a".
bool Prepare(Conn* c, const Reference& ref, Recorder* rec) {
  Block b;
  bool ok = c->Send(std::string("PREPARE a ") + kQueryText) && c->WaitBlock(&b);
  return CheckPrepared(ok, b, ref, rec);
}

bool Open(Conn* c, Recorder* rec, uint64_t* sid) {
  Block b;
  bool ok = c->Send("OPEN a") && c->WaitBlock(&b);
  if (!rec->Check(ok, b)) return false;
  if (!omqe::server::ParseOpenSession(b.terminator, sid)) {
    rec->Fail("bad OPEN reply: " + b.terminator);
    return false;
  }
  return true;
}

/// Sends one request and spins for its reply; returns the latency in µs.
double Roundtrip(Conn* c, const std::string& line, Block* b, bool* ok) {
  const int64_t t0 = NowNanos();
  *ok = c->Send(line) && c->WaitBlock(b);
  return static_cast<double>(NowNanos() - t0) * 1e-3;
}

/// fetch-bulk: drain the session in large batches, RESET, repeat.
void RunFetchBulk(Conn* c, uint64_t sid, const Workload& w,
                  const Reference& ref, int64_t end_ns, Recorder* rec) {
  const std::string fetch = "FETCH " + std::to_string(sid) + " " +
                            std::to_string(w.fetch_batch);
  const std::string reset = "RESET " + std::to_string(sid);
  for (bool more_passes = true; more_passes && rec->correct;) {
    const int64_t pass_t0 = NowNanos();
    uint64_t reqs = 0, rows = 0, checksum = 0;
    for (bool done = false; !done;) {
      Block b;
      bool ok;
      rec->FetchSent(NowNanos());
      double lat = Roundtrip(c, fetch, &b, &ok);
      rec->attempted += 1;
      reqs += 1;
      if (!rec->Check(ok, b)) return;
      uint64_t k = 0;
      if (!ParseFetchOk(b.terminator, &k, &done) || k != b.rows) {
        rec->Fail("bad FETCH reply: " + b.terminator);
        return;
      }
      rec->req_us.push_back(lat);
      rec->Fetched(b, lat);
      rows += b.rows;
      checksum += b.checksum;
    }
    Block b;
    bool ok;
    double lat = Roundtrip(c, reset, &b, &ok);
    rec->attempted += 1;
    reqs += 1;
    if (!rec->Check(ok, b)) return;
    rec->req_us.push_back(lat);
    const int64_t pass_end = NowNanos();
    rec->pass_rates.push_back(static_cast<double>(reqs) * 1e9 /
                              static_cast<double>(pass_end - pass_t0));
    if (rows != ref.rows || checksum != ref.checksum) {
      rec->Fail("pass returned " + std::to_string(rows) + " rows, expected " +
                std::to_string(ref.rows) + " (or checksum differs)");
    }
    rec->EndPass();
    more_passes = pass_end < end_ns;
  }
}

/// session-churn: OPEN / FETCH 1 / CLOSE cycles, in passes of kCycles.
void RunSessionChurn(Conn* c, const Reference& ref, int64_t end_ns,
                     Recorder* rec) {
  constexpr int kCycles = 250;
  for (bool more_passes = true; more_passes && rec->correct;) {
    const int64_t pass_t0 = NowNanos();
    for (int i = 0; i < kCycles; ++i) {
      Block b;
      bool ok;
      double lat = Roundtrip(c, "OPEN a", &b, &ok);
      rec->attempted += 1;
      uint64_t sid = 0;
      if (!rec->Check(ok, b)) return;
      if (!omqe::server::ParseOpenSession(b.terminator, &sid)) {
        rec->Fail("bad OPEN reply: " + b.terminator);
        return;
      }
      rec->req_us.push_back(lat);

      const std::string s = std::to_string(sid);
      rec->FetchSent(NowNanos());
      lat = Roundtrip(c, "FETCH " + s + " 1", &b, &ok);
      rec->attempted += 1;
      if (!rec->Check(ok, b)) return;
      uint64_t k = 0;
      bool done = false;
      if (!ParseFetchOk(b.terminator, &k, &done) || k != 1 || b.rows != 1 ||
          done || ref.row_hashes.count(b.first_row_hash) == 0) {
        rec->Fail("FETCH 1 returned a wrong row or shape: " + b.terminator);
        return;
      }
      rec->req_us.push_back(lat);
      rec->Fetched(b, lat);

      lat = Roundtrip(c, "CLOSE " + s, &b, &ok);
      rec->attempted += 1;
      if (!rec->Check(ok, b)) return;
      if (b.terminator != "OK CLOSE " + s) {
        rec->Fail("bad CLOSE reply: " + b.terminator);
        return;
      }
      rec->req_us.push_back(lat);
    }
    const int64_t pass_end = NowNanos();
    rec->pass_rates.push_back(3.0 * kCycles * 1e9 /
                              static_cast<double>(pass_end - pass_t0));
    rec->EndPass();
    more_passes = pass_end < end_ns;
  }
}

/// prepare-under-fetch: connection `p` re-PREPAREs name "b" (closed loop,
/// idling `think_ms` after each reply) while connection `f` sends FETCHes on
/// session `sid` of "a" on a fixed schedule (open loop), each timed from its
/// scheduled send. A drained pass is followed by one RESET.
void RunPrepareUnderFetch(Conn* p, Conn* f, uint64_t sid, const Workload& w,
                          const Reference& ref, int64_t end_ns,
                          Recorder* rec) {
  const std::string fetch = "FETCH " + std::to_string(sid) + " " +
                            std::to_string(w.fetch_batch);
  const std::string reset = "RESET " + std::to_string(sid);
  const std::string prepare = std::string("PREPARE b ") + kQueryText;
  const int64_t period = 1'000'000'000 / w.fetch_rate;
  struct Pending {
    int64_t due;
    bool is_reset;
  };
  std::deque<Pending> pending;
  bool reset_wanted = false, reset_in_flight = false;
  uint64_t pass_rows = 0, pass_checksum = 0;
  int64_t next_due = NowNanos();
  int64_t prepare_t0 = 0, next_prepare = 0;
  bool prepare_in_flight = false;
  while (rec->correct) {
    const int64_t now = NowNanos();
    const bool open = now < end_ns;
    if (open && now >= next_due) {
      const bool is_reset = reset_wanted;
      if (!f->Send(is_reset ? reset : fetch)) {
        rec->Check(false, Block());
        return;
      }
      rec->attempted += 1;
      rec->lag_us.push_back(static_cast<double>(NowNanos() - next_due) * 1e-3);
      pending.push_back({next_due, is_reset});
      if (is_reset) {
        reset_wanted = false;
        reset_in_flight = true;
      } else {
        rec->FetchSent(next_due);
      }
      next_due += period;
    }
    if (!prepare_in_flight && open && now >= next_prepare) {
      if (!p->Send(prepare)) {
        rec->Check(false, Block());
        return;
      }
      rec->attempted += 1;
      prepare_t0 = NowNanos();
      prepare_in_flight = true;
    }
    Block b;
    if (prepare_in_flight && p->TryBlock(&b)) {
      const int64_t t = NowNanos();
      prepare_in_flight = false;
      next_prepare = t + w.think_ms * 1'000'000;
      if (!CheckPrepared(true, b, ref, rec)) return;
      const double us = static_cast<double>(t - prepare_t0) * 1e-3;
      rec->req_us.push_back(us);
      rec->pass_rates.push_back(1e6 / us);
      rec->EndPass();
    }
    if (!pending.empty() && f->TryBlock(&b)) {
      const double lat =
          static_cast<double>(NowNanos() - pending.front().due) * 1e-3;
      const bool is_reset = pending.front().is_reset;
      pending.pop_front();
      if (!rec->Check(true, b)) return;
      if (is_reset) {
        reset_in_flight = false;
        if (pass_rows != ref.rows || pass_checksum != ref.checksum) {
          rec->Fail("pass returned " + std::to_string(pass_rows) +
                    " rows, expected " + std::to_string(ref.rows) +
                    " (or checksum differs)");
        }
        pass_rows = pass_checksum = 0;
      } else {
        uint64_t k = 0;
        bool done = false;
        if (!ParseFetchOk(b.terminator, &k, &done) || k != b.rows) {
          rec->Fail("bad FETCH reply: " + b.terminator);
          return;
        }
        rec->Fetched(b, lat);
        pass_rows += b.rows;
        pass_checksum += b.checksum;
        if (done && !reset_in_flight) reset_wanted = true;
      }
    }
    if (p->failed() || f->failed()) {
      rec->Check(false, Block());
      return;
    }
    if (!open && pending.empty() && !prepare_in_flight) return;
  }
}

int RunWire(const Args& args, const Workload& w, const InputFiles& files) {
  auto env = LoadEnv(files);
  if (!env.ok()) {
    std::fprintf(stderr, "load: %s\n", env.status().ToString().c_str());
    return 1;
  }
  auto ref_or = ComputeReference(&env.value());
  if (!ref_or.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref_or.status().ToString().c_str());
    return 1;
  }
  const Reference& ref = ref_or.value();

  // Set-up, kSetups times: launch, PREPARE the query, OPEN the session the
  // workload fetches on. The last server stays up for the measured phase.
  const bool needs_session = w.name != "session-churn";
  const bool needs_preparer = w.name == "prepare-under-fetch";
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Conn> main_conn, prep_conn;
  uint64_t sid = 0;
  Recorder setup_rec;
  for (int k = 0; k < kSetups; ++k) {
    main_conn.reset();
    prep_conn.reset();
    server.reset();
    const int64_t t0 = NowNanos();
    server = std::make_unique<ServerProcess>();
    Status s = server->Launch(args, w, files);
    main_conn = std::make_unique<Conn>();
    if (s.ok()) s = main_conn->Connect(server->port());
    if (s.ok() && needs_preparer) {
      prep_conn = std::make_unique<Conn>();
      s = prep_conn->Connect(server->port());
    }
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
    if (!Prepare(main_conn.get(), ref, &setup_rec) ||
        (needs_session && !Open(main_conn.get(), &setup_rec, &sid))) {
      std::fprintf(stderr, "setup: %s\n", setup_rec.why.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
  }

  Recorder rec;
  const int64_t start = NowNanos();
  const int64_t end_ns = start + static_cast<int64_t>(args.seconds) * 1'000'000'000;
  if (w.name == "fetch-bulk") {
    RunFetchBulk(main_conn.get(), sid, w, ref, end_ns, &rec);
  } else if (w.name == "session-churn") {
    RunSessionChurn(main_conn.get(), ref, end_ns, &rec);
  } else {
    RunPrepareUnderFetch(prep_conn.get(), main_conn.get(), sid, w, ref, end_ns,
                         &rec);
  }
  const double wall_s = static_cast<double>(NowNanos() - start) * 1e-9;
  const double peak_rss_mb = server->PeakRssMb();
  main_conn.reset();
  prep_conn.reset();
  server.reset();

  if (!rec.lag_us.empty()) {
    // The open loop is valid only if the generator kept its schedule. The
    // host preempts the spinning sender now and then for a few ms; a p99 lag
    // beyond ten schedule periods means it fell behind.
    const double lag_p99 = Quantile(rec.lag_us, 0.99);
    std::fprintf(stderr, "generator lag: p50 %.1f us, p99 %.1f us, max %.1f us\n",
                 Quantile(rec.lag_us, 0.5), lag_p99,
                 Quantile(rec.lag_us, 1.0));
    if (lag_p99 > 10 * 1e6 / w.fetch_rate) {
      rec.Fail("open-loop generator fell behind its schedule");
    }
  }
  if (rec.passes == 0) rec.Fail("no whole pass completed");

  std::map<std::string, Metric> m;
  m["setup_s"] = {Median(setup_s), "s"};
  m["req_per_s"] = {Median(rec.pass_rates), "1/s"};
  m["req_p50_us"] = {Quantile(rec.req_us, 0.5), "us"};
  m["rows_per_s"] = {Median(rec.pass_row_rates), "1/s"};
  m["fetch_p50_us"] = {Quantile(rec.fetch_us, 0.5), "us"};
  m["fetch_p99_us"] = {Median(rec.pass_fetch_p99), "us"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  std::fprintf(stderr,
               "%s seed=%llu: %.2f s measured, %llu passes, %zu requests "
               "timed, %zu FETCHes\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               wall_s, static_cast<unsigned long long>(rec.passes),
               rec.req_us.size(), rec.fetch_us.size());
  for (const auto& [name, metric] : m) {
    std::fprintf(stderr, "  %-16s %14.3f %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  if (!rec.correct) std::fprintf(stderr, "INCORRECT: %s\n", rec.why.c_str());
  std::printf("%s\n", ResultJson(rec.correct, rec.attempted, rec.failed, m).c_str());
  return rec.correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") args->workload = v;
    else if (flag == "--seed") args->seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atoi(v);
    else if (flag == "--trace") args->trace = std::atoi(v) != 0;
    else if (flag == "--server") args->server = v;
    else if (flag == "--workdir") args->workdir = v;
    else return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->workdir.empty() && (args->trace || !args->server.empty());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --server <omqe_server> "
                 "--workdir <dir>\n");
    return 2;
  }
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  auto files = WriteInputs(args.workdir, args.seed);
  if (!files.ok()) {
    std::fprintf(stderr, "%s\n", files.status().ToString().c_str());
    return 1;
  }
  return args.trace ? RunTraced(args, w, files.value())
                    : RunWire(args, w, files.value());
}
