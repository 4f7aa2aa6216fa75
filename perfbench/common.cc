#include "common.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "cq/parser.h"
#include "data/loader.h"
#include "server/protocol.h"
#include "tgd/parser.h"
#include "workload/office.h"

namespace perfbench {

namespace {

// Example 1.1's ontology, as the text file the server loads.
constexpr char kOntologyText[] =
    "Researcher(x) -> exists y. HasOffice(x, y)\n"
    "HasOffice(x, y) -> Office(y)\n"
    "Office(x) -> exists y. InBuilding(x, y)\n";

const Workload kWorkloads[] = {
    // Closed loop, one connection: large FETCH batches drained to `done`,
    // then RESET, so every pass enumerates the whole answer set.
    {"fetch-bulk", /*fetch_batch=*/1000, /*fetch_rate=*/0, /*think_ms=*/0,
     /*prepare_threads=*/0},
    // Closed loop, one connection: OPEN / FETCH 1 / CLOSE cycles.
    {"session-churn", 1, 0, 0, 0},
    // Repeated PREPAREs on one connection, with 600 ms idle after each reply
    // (README.md says why); open-loop small FETCHes on another. The parallel
    // chase is on (--prepare-threads=2). At 4000 FETCHes/s the server's FETCH
    // thread idles ~0.2 ms between requests, short enough to be woken from
    // the hypervisor's halt-polling; at 400/s its vCPU halted fully and the
    // wake-up made up most of a quiet FETCH, and varied with the host.
    {"prepare-under-fetch", 16, 4000, 600, 2},
};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Folds one response line into `block`; true when it is the terminator.
bool AddLine(std::string_view line, Block* block) {
  if (StartsWith(line, "ROW ")) {
    uint64_t h = RowHash(line.substr(4));
    if (block->rows == 0) block->first_row_hash = h;
    block->rows += 1;
    block->checksum += h;
    return false;
  }
  if (!omqe::server::IsTerminator(line)) return false;
  block->terminator = std::string(line);
  return true;
}

}  // namespace

bool FindWorkload(std::string_view name, Workload* out) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

StatusOr<InputFiles> WriteInputs(const std::string& workdir, uint64_t seed) {
  InputFiles files;
  files.ontology_path = workdir + "/ontology.txt";
  files.facts_path = workdir + "/facts.txt";
  files.ontology_text = kOntologyText;

  omqe::Vocabulary vocab;
  omqe::Database db(&vocab);
  omqe::OfficeParams params;
  params.researchers = kResearchers;
  params.seed = seed;
  omqe::GenerateOffice(params, &db);

  std::string text;
  for (omqe::RelId r = 0; r < vocab.NumRelations(); ++r) {
    const uint32_t arity = vocab.Arity(r);
    for (uint32_t row = 0; row < db.NumRows(r); ++row) {
      const omqe::Value* t = db.Row(r, row);
      text += vocab.RelationName(r);
      text += '(';
      for (uint32_t i = 0; i < arity; ++i) {
        if (i) text += ", ";
        text += vocab.ConstantName(t[i]);
      }
      text += ")\n";
    }
  }
  std::ofstream facts(files.facts_path, std::ios::trunc);
  std::ofstream onto(files.ontology_path, std::ios::trunc);
  facts << text;
  onto << files.ontology_text;
  if (!facts.good() || !onto.good()) {
    return Status::Internal("cannot write inputs under " + workdir);
  }
  return files;
}

StatusOr<Env> LoadEnv(const InputFiles& files) {
  Env env;
  env.vocab = std::make_unique<omqe::Vocabulary>();
  auto onto = omqe::ParseOntology(files.ontology_text, env.vocab.get());
  if (!onto.ok()) return onto.status();
  env.ontology = std::move(onto).value();
  env.db = std::make_unique<omqe::Database>(env.vocab.get());
  Status s = omqe::LoadFactsFromFile(files.facts_path, env.db.get());
  if (!s.ok()) return s;
  return env;
}

std::string RenderRow(const omqe::Vocabulary& vocab,
                      const omqe::ValueTuple& row) {
  std::string out;
  for (uint32_t i = 0; i < row.size(); ++i) {
    if (i) out.push_back(',');
    omqe::Value v = row[i];
    if (omqe::IsConstant(v)) {
      out += vocab.ConstantName(v);
    } else if (v == omqe::kStar) {
      out.push_back('*');
    } else {
      out += vocab.ValueName(v);
    }
  }
  return out;
}

uint64_t RowHash(std::string_view rendered) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (char c : rendered) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // splitmix64 finaliser, so sums of hashes do not cancel structurally.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

StatusOr<Reference> ComputeReference(Env* env) {
  auto query = omqe::ParseCQ(kQueryText, env->vocab.get());
  if (!query.ok()) return query.status();
  omqe::OMQ omq = omqe::MakeOMQ(env->ontology, query.value());
  auto prepared = omqe::PreparedOMQ::Prepare(omq, *env->db);
  if (!prepared.ok()) return prepared.status();
  Reference ref;
  ref.trees = (*prepared)->num_progress_trees();
  ref.chase_facts = (*prepared)->chase().db.TotalFacts();
  omqe::EnumerationSession session(prepared.value());
  omqe::ValueTuple row;
  while (session.Next(&row)) {
    uint64_t h = RowHash(RenderRow(*env->vocab, row));
    ref.rows += 1;
    ref.checksum += h;
    ref.row_hashes.insert(h);
  }
  return ref;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between order statistics (numpy's default).
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Status Conn::Connect(uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket() failed");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    return Status::Internal(std::string("connect() failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed");
  }
  return Status::OK();
}

bool Conn::Send(std::string_view line) {
  std::string data(line);
  data.push_back('\n');
  size_t written = 0;
  while (written < data.size() && !failed_) {
    ssize_t w = ::write(fd_, data.data() + written, data.size() - written);
    if (w > 0) {
      written += static_cast<size_t>(w);
    } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
      continue;  // spin: the server is reading
    } else {
      failed_ = true;
    }
  }
  return !failed_;
}

bool Conn::ParseBlock(Block* out) {
  while (pos_ < buf_.size()) {
    const char* start = buf_.data() + pos_;
    const void* nl = std::memchr(start, '\n', buf_.size() - pos_);
    if (nl == nullptr) break;
    std::string_view line(start, static_cast<const char*>(nl) - start);
    pos_ += line.size() + 1;
    if (AddLine(line, &partial_)) {
      *out = std::move(partial_);
      partial_ = Block();
      return true;
    }
  }
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (1u << 16)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return false;
}

bool Conn::TryBlock(Block* out) {
  if (ParseBlock(out)) return true;
  if (failed_) return false;
  constexpr size_t kChunk = 1 << 16;
  const size_t old = buf_.size();
  buf_.resize(old + kChunk);
  ssize_t n = ::read(fd_, buf_.data() + old, kChunk);
  buf_.resize(old + (n > 0 ? static_cast<size_t>(n) : 0));
  if (n > 0) {
    // ACK what arrived now instead of on the next request: the server does
    // not set TCP_NODELAY, so under pipelined requests a delayed ACK would
    // hold each reply (Nagle) until the client's next send.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
  }
  if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
    failed_ = true;
    return false;
  }
  return n > 0 && ParseBlock(out);
}

bool Conn::WaitBlock(Block* out) {
  while (!TryBlock(out)) {
    if (failed_) return false;
  }
  return true;
}

Block ParseResponse(std::string_view text) {
  Block block;
  size_t start = 0;
  for (size_t nl = text.find('\n'); nl != std::string_view::npos;
       nl = text.find('\n', start)) {
    if (AddLine(text.substr(start, nl - start), &block)) break;
    start = nl + 1;
  }
  return block;
}

bool ParseFetchOk(std::string_view line, uint64_t* rows, bool* done) {
  constexpr std::string_view kPrefix = "OK FETCH ";
  if (!StartsWith(line, kPrefix)) return false;
  line.remove_prefix(kPrefix.size());
  size_t space = line.find(' ');
  if (space == std::string_view::npos) return false;
  if (!omqe::server::ParseU64(line.substr(0, space), rows)) return false;
  std::string_view state = line.substr(space + 1);
  if (state != "more" && state != "done") return false;
  *done = state == "done";
  return true;
}

bool ParsePreparedOk(std::string_view line, uint64_t* trees,
                     uint64_t* chase_facts) {
  if (!StartsWith(line, "OK PREPARED ")) return false;
  size_t t = line.find(" trees=");
  size_t f = line.find(" chase_facts=");
  if (t == std::string_view::npos || f == std::string_view::npos || f < t) {
    return false;
  }
  std::string_view trees_text = line.substr(t + 7, f - t - 7);
  std::string_view facts_text = line.substr(f + 13);
  return omqe::server::ParseU64(trees_text, trees) &&
         omqe::server::ParseU64(facts_text, chase_facts);
}

std::string ErrCodeOf(std::string_view line) {
  if (!StartsWith(line, "ERR ")) return "";
  line.remove_prefix(4);
  return std::string(line.substr(0, line.find(' ')));
}

std::string MetricsObject(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + MetricsObject(metrics) + "}";
}

}  // namespace perfbench
