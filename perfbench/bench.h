// Shared vocabulary of the repository benchmark (README.md): what one pass
// of a workload reports, the metric catalog, and the span recorder of the
// traced run.
//
// sihle-lint: disable-file=R005 — this file reads the host wall clock to
// time the benchmark's calls into the library; no reading feeds a
// simulation decision, so it is not an unlogged scheduling choice.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

// Host monotonic clock, in seconds since an arbitrary origin.
inline double host_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using Metrics = std::map<std::string, double>;


// One metric as BENCHMARK.json declares it.
struct MetricDef {
  std::string name;
  std::string unit;
  const char* better;  // "higher" or "lower"
};

// Host- and simulated-clock spans of the traced run, kept in memory and
// written out (JSON lines) when the run ends.
class Tracer {
 public:
  struct HostSpan {
    std::string name;
    int pass;
    double start, end;  // host seconds
  };
  struct SimSpan {
    const char* scheme;     // static label
    std::uint32_t tid;
    std::uint64_t seq;      // op sequence within the thread: the span id
    std::int32_t attempt;   // -1 for the run_cs span, else body invocation
    Cycles start, end;      // simulated cycles
  };

  // Host span covering [start, now()).
  void host(const std::string& name, double start) {
    host_.push_back({name, pass_, start, host_seconds()});
  }
  void begin_pass(int pass, bool instrumented) {
    pass_ = pass;
    instrumented_ = instrumented;
  }
  // True while a pass attaches rings and records simulated spans.
  bool instrumented() const { return instrumented_; }
  // Every instrumented pass records simulated spans, so each pays the
  // same tracing cost; only the first pass's spans are kept, which bounds
  // memory (later passes repeat them exactly: the determinism check).
  void sim(const SimSpan& s) { sim_.push_back(s); }
  void end_pass() {
    if (instrumented_ && kept_ == 0) kept_ = sim_.size();
    sim_.resize(kept_);
    instrumented_ = false;
  }
  // Writes every span as one JSON object per line; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  int pass_ = 0;
  bool instrumented_ = false;
  std::size_t kept_ = 0;
  std::vector<HostSpan> host_;
  std::vector<SimSpan> sim_;
};

// What one pass of a workload's fixed work reports.
struct PassResult {
  double setup_s = 0.0;   // pass start -> first timed call
  double timed_s = 0.0;   // inside the timed library calls
  double verify_s = 0.0;  // first timed call -> last verdict
  double ops = 0.0;       // work units the timed calls completed
  Tally tally;            // correctness checks
  Metrics host;    // per-layer, host clock: minimum over plain passes
  Metrics sim;     // per-layer, simulated clock and counts: exact
  Metrics traced;  // per-layer, from event rings: instrumented passes only
  // Further values that must repeat exactly but are not published
  // (content fingerprints, hashes).
  std::vector<std::uint64_t> exact;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Unit of PassResult::ops, for the report.
  virtual const char* ops_unit() const = 0;
  // Runs one pass.  `tracer` is null in untimed-only runs; when it is
  // non-null and instrumented() the pass also attaches event rings and
  // records simulated spans.
  virtual PassResult pass(Tracer* tracer) = 0;
  // A pass under a configuration that must not change any simulated
  // result (the service on 2 host threads); null when there is none.
  virtual std::unique_ptr<PassResult> variant_pass() { return nullptr; }
};

std::unique_ptr<Workload> make_tree_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_service_workload(std::uint64_t seed);
std::unique_ptr<Workload> make_mc_workload(std::uint64_t seed);

// Per-layer metrics each workload publishes in the traced run.
std::vector<MetricDef> tree_catalog();
std::vector<MetricDef> service_catalog();
std::vector<MetricDef> mc_catalog();

}  // namespace perfbench
