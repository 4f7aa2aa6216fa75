// Shared pieces of the wire-level benchmark: workload parameters, generated
// inputs and their reference answers, sample statistics, and a busy-polling
// protocol client. The load generator (loadgen.cc) and the traced in-process
// replay (traced.cc) both build on these.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "base/status.h"
#include "core/prepared.h"
#include "data/database.h"
#include "tgd/tgd.h"

namespace perfbench {

using omqe::Status;
using omqe::StatusOr;

/// One workload's fixed shape. Sizes are constants of the benchmark, so a
/// run's work depends only on the seed (which varies the generated data)
/// and on how many whole passes fit in the measured time.
struct Workload {
  std::string name;
  /// Rows per FETCH request.
  uint32_t fetch_batch = 0;
  /// Open-loop FETCH rate (requests/s); 0 for the closed-loop workloads.
  uint32_t fetch_rate = 0;
  /// Idle time between a PREPARE reply and the next PREPARE (ms).
  uint32_t think_ms = 0;
  /// Chase worker lanes per PREPARE (--prepare-threads); 0 = server default.
  uint32_t prepare_threads = 0;
};

/// Looks up a workload by name; false if unknown.
bool FindWorkload(std::string_view name, Workload* out);

/// Researchers in the generated office database (paper Example 1.1 scaled).
inline constexpr uint32_t kResearchers = 20000;
/// The served query: Example 1.1's q over the office ontology.
inline constexpr char kQueryText[] =
    "q(x1, x2, x3) :- HasOffice(x1, x2), InBuilding(x2, x3)";
/// Server launches per run; setup_s is their median.
inline constexpr int kSetups = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server;   ///< path to the omqe_server binary
  std::string workdir;  ///< where generated inputs are written
};

/// The generated ontology and fact files, written under the work directory.
struct InputFiles {
  std::string ontology_path;
  std::string facts_path;
  std::string ontology_text;
};

/// Writes the seed's office instance and ontology as text files.
StatusOr<InputFiles> WriteInputs(const std::string& workdir, uint64_t seed);

/// One loaded environment (vocabulary, ontology, database), parsed from the
/// generated files exactly as the server parses them.
struct Env {
  std::unique_ptr<omqe::Vocabulary> vocab;
  omqe::Ontology ontology;
  std::unique_ptr<omqe::Database> db;
};
StatusOr<Env> LoadEnv(const InputFiles& files);

/// Renders one answer tuple the way the server's FETCH does ("a,b,*").
std::string RenderRow(const omqe::Vocabulary& vocab,
                      const omqe::ValueTuple& row);

/// Order-independent row hashing: each row's text is hashed and the hashes
/// are summed, so a pass's checksum does not depend on answer order.
uint64_t RowHash(std::string_view rendered);

/// The reference answer of the served query: what every drained pass must
/// return, and the prepare shape every PREPARE must report.
struct Reference {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  std::unordered_set<uint64_t> row_hashes;
  uint64_t trees = 0;
  uint64_t chase_facts = 0;
};

/// Prepares the query in-process and drains one EnumerationSession.
StatusOr<Reference> ComputeReference(Env* env);

/// Sample statistics.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// One response block: its ROW lines folded into a count and checksum, and
/// its terminator line.
struct Block {
  uint64_t rows = 0;
  uint64_t checksum = 0;
  uint64_t first_row_hash = 0;
  std::string terminator;
};

/// A protocol connection whose reads never sleep: the socket is
/// non-blocking and a wait for a response spins on read(). A blocking wait
/// lets the waiting vCPU halt, and the wake-up through the hypervisor costs
/// more than the request itself (see README.md).
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY, then goes non-blocking.
  Status Connect(uint16_t port);
  /// Sends `line` plus '\n'; spins while the send buffer is full.
  bool Send(std::string_view line);
  /// Completes the next response block from buffered or newly readable
  /// bytes without blocking. False when no whole block is available yet;
  /// failed() tells a closed or broken connection apart.
  bool TryBlock(Block* out);
  /// Spins until the next block arrives; false on a broken connection.
  bool WaitBlock(Block* out);
  bool failed() const { return failed_; }

 private:
  /// Parses buffered lines up to the next terminator.
  bool ParseBlock(Block* out);

  int fd_ = -1;
  bool failed_ = false;
  std::string buf_;
  size_t pos_ = 0;
  Block partial_;
};

/// Folds a whole response block (as HandleLine returns it) into a Block.
Block ParseResponse(std::string_view text);

/// Parses "OK FETCH <k> more|done"; false if the line has another shape.
bool ParseFetchOk(std::string_view line, uint64_t* rows, bool* done);
/// Parses "OK PREPARED <name> trees=<t> chase_facts=<f>".
bool ParsePreparedOk(std::string_view line, uint64_t* trees,
                     uint64_t* chase_facts);
/// The wire code of an "ERR <code> ..." line, or "" for any other line.
std::string ErrCodeOf(std::string_view line);

/// The JSON result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
struct Metric {
  double value;
  std::string unit;
};
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);
/// {"name": value, ...} with full-precision numbers.
std::string MetricsObject(const std::map<std::string, Metric>& metrics);

/// Traced in-process replay (traced.cc): prints the per-layer metrics.
int RunTraced(const Args& args, const Workload& workload,
              const InputFiles& files);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
