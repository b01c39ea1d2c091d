// lemming_tree: the paper's write-only lemming setting, as a closed loop.
//
// 8 simulated threads on one Machine toggle keys of a red-black tree (keys
// 0..255, the even half prefilled; each op inserts its key, or erases it
// when present) under a TTAS main lock with spurious aborts at 1e-4 per
// transactional access.  Every thread has a fixed budget of 500 ops, run
// in turn under the four canonical schemes.  Workers call elision::run_cs
// directly, as bench/sim_wallclock.cpp does; each scheme's Machine::run is
// one timed call.
//
// Correctness: the tree is a valid red-black tree after every scheme, S+N
// equals the op budget, and — because every op toggles its key — the final
// key set equals the prefill XOR the parity of each key's draws, whatever
// order the ops serialized in.  A lost or doubled update breaks the parity.
#include <algorithm>
#include <bitset>

#include "bench.h"
#include "ds/rbtree.h"
#include "elision/elided_lock.h"
#include "harness/cli.h"
#include "runtime/ctx.h"
#include "stats/op_stats.h"
#include "stats/timeline.h"

namespace perfbench {
namespace {

using namespace sihle;
using runtime::Ctx;
using runtime::Machine;

constexpr int kThreads = 8;
constexpr std::uint64_t kOpsPerThread = 500;
constexpr std::uint64_t kOpsPerScheme = kThreads * kOpsPerThread;
constexpr std::int64_t kKeys = 256;
constexpr double kSpurious = 1e-4;
// Lemming-detector window: 2.5 simulated microseconds at 3.4 GHz, a few
// HLE ops per window, so a serialized stretch spans several windows.
constexpr Cycles kWindowCycles = 8'500;
// Set-up is repeated this many times per pass; the pass reports the fastest.
constexpr int kSetupRepeats = 5;
// Event-ring capacity per thread: a thread records at most a few thousand
// events per scheme, so nothing is dropped.
constexpr std::size_t kRingCapacity = std::size_t{1} << 15;

constexpr const char* kSchemes[] = {"standard", "hle", "hle-scm", "slr"};

struct CauseName {
  htm::AbortCause cause;
  const char* name;
};
constexpr CauseName kCauses[] = {
    {htm::AbortCause::kConflict, "conflict"},
    {htm::AbortCause::kCapacity, "capacity"},
    {htm::AbortCause::kExplicit, "explicit"},
    {htm::AbortCause::kSpurious, "spurious"},
    {htm::AbortCause::kPersistent, "persistent"},
};

bool speculates(const std::string& scheme) { return scheme != "standard"; }

// Where a body invocation's attempt span goes; tracer null = not traced.
struct AttemptSite {
  Tracer* tracer;
  const char* scheme;
  std::uint64_t seq;
  std::int32_t attempt;
};

// Records one attempt span from construction to destruction.  The guard
// lives in the body's coroutine frame, so an abort unwinding the body
// closes the span as surely as a commit does.
class AttemptSpan {
 public:
  AttemptSpan(Ctx& c, AttemptSite site) : c_(c), site_(site), start_(c.now()) {}
  AttemptSpan(const AttemptSpan&) = delete;
  AttemptSpan& operator=(const AttemptSpan&) = delete;
  ~AttemptSpan() {
    if (site_.tracer != nullptr) {
      site_.tracer->sim({site_.scheme, c_.id(), site_.seq, site_.attempt,
                         start_, c_.now()});
    }
  }

 private:
  Ctx& c_;
  AttemptSite site_;
  Cycles start_;
};

sim::Task<void> toggle(Ctx& c, ds::RBTree& tree, std::int64_t key,
                       AttemptSite site) {
  AttemptSpan span(c, site);
  const bool inserted = co_await tree.insert(c, key);
  if (!inserted) co_await tree.erase(c, key);
}

struct ThreadRec {
  stats::OpStats st;
  stats::LatencyHistogram op_latency;  // simulated cycles per run_cs call
  std::bitset<kKeys> toggled;          // parity of this thread's draws
};

// One scheme's machine and inputs, built during set-up.  Members are
// destroyed in reverse order, so the tree and lock release their lines
// before the Machine goes.
struct SchemeRun {
  const char* name = nullptr;
  elision::Policy policy;
  std::unique_ptr<stats::EventTrace> trace;
  std::unique_ptr<Machine> m;
  std::unique_ptr<elision::ElidedLock> lock;
  std::unique_ptr<ds::RBTree> tree;
  std::vector<ThreadRec> rec;
};

sim::Task<void> worker(Ctx& c, SchemeRun& run, ThreadRec& rec, Tracer* tr) {
  for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
    const auto key = static_cast<std::int64_t>(c.rng().below(kKeys));
    rec.toggled.flip(static_cast<std::size_t>(key));
    std::int32_t attempt = 0;
    const Cycles start = c.now();
    co_await elision::run_cs(
        run.policy, c, *run.lock,
        [&run, &attempt, key, tr, i](Ctx& cc) {
          return toggle(cc, *run.tree, key,
                        AttemptSite{tr, run.name, i, attempt++});
        },
        rec.st);
    rec.op_latency.record(c.now() - start);
    if (tr != nullptr) tr->sim({run.name, c.id(), i, -1, start, c.now()});
  }
}

void build(SchemeRun& run, const char* scheme, std::uint64_t seed,
           Tracer* tr) {
  run.name = scheme;
  run.policy = harness::parse_scheme(scheme);
  Machine::Config cfg;
  cfg.seed = seed;
  cfg.htm.spurious_abort_per_access = kSpurious;
  run.m = std::make_unique<Machine>(cfg);
  if (tr != nullptr) {
    run.trace = std::make_unique<stats::EventTrace>(kRingCapacity);
    run.m->set_event_trace(run.trace.get());
  }
  run.lock = std::make_unique<elision::ElidedLock>(
      *run.m, locks::LockKind::kTtas, run.policy.conflict.aux);
  run.tree = std::make_unique<ds::RBTree>(*run.m);
  for (std::int64_t k = 0; k < kKeys; k += 2) run.tree->debug_insert(k);
  run.rec.resize(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    run.m->spawn([&run, t, tr](Ctx& c) {
      return worker(c, run, run.rec[static_cast<std::size_t>(t)], tr);
    });
  }
}

// Final key set as a 64-bit FNV-1a hash, for the determinism fingerprint.
std::uint64_t content_hash(const ds::RBTree& tree) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::int64_t k : tree.debug_keys()) {
    h = (h ^ static_cast<std::uint64_t>(k)) * 1099511628211ULL;
  }
  return h;
}

class TreeWorkload final : public Workload {
 public:
  explicit TreeWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* ops_unit() const override { return "critical sections"; }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    Tracer* tr = tracer != nullptr && tracer->instrumented() ? tracer : nullptr;
    std::vector<SchemeRun> runs;
    std::vector<double> setups;
    double t0 = 0.0;
    for (int k = 0; k < kSetupRepeats; ++k) {
      runs.clear();
      t0 = host_seconds();
      runs.resize(std::size(kSchemes));
      for (std::size_t s = 0; s < runs.size(); ++s) {
        build(runs[s], kSchemes[s], seed_, tr);
      }
      setups.push_back(host_seconds() - t0);
    }
    const double t1 = host_seconds();
    out.setup_s = *std::min_element(setups.begin(), setups.end());
    if (tracer != nullptr) tracer->host("setup", t0);
    double sim_mcycles = 0.0;
    for (SchemeRun& run : runs) {
      const double r0 = host_seconds();
      run.m->run();
      const double run_s = host_seconds() - r0;
      if (tracer != nullptr) {
        tracer->host(std::string("runtime.run.") + run.name, r0);
      }
      out.timed_s += run_s;
      const double v0 = host_seconds();
      sim_mcycles += collect(run, run_s, out);
      if (tracer != nullptr) {
        tracer->host(std::string("validate.") + run.name, v0);
      }
    }
    out.verify_s = host_seconds() - t1;
    out.ops = static_cast<double>(kOpsPerScheme * runs.size());
    out.sim["sim_mcycles"] = sim_mcycles;
    return out;
  }

 private:
  // Checks one finished scheme run and records its metrics; returns its
  // simulated makespan in Mcycles.
  double collect(SchemeRun& run, double run_s, PassResult& out) {
    Machine& m = *run.m;
    const std::string s = run.name;
    stats::OpStats st;
    stats::LatencyHistogram lat;
    std::bitset<kKeys> parity;
    for (const ThreadRec& r : run.rec) {
      st += r.st;
      lat += r.op_latency;
      parity ^= r.toggled;
    }
    std::uint64_t events = 0;
    for (std::uint32_t t = 0; t < m.exec().thread_count(); ++t) {
      events += m.exec().thread(t).events;
    }
    const Cycles makespan = m.exec().max_clock();

    bool content_ok = true;
    std::size_t expected_size = 0;
    for (std::int64_t k = 0; k < kKeys; ++k) {
      const bool expect = (k % 2 == 0) != parity[static_cast<std::size_t>(k)];
      expected_size += expect ? 1 : 0;
      content_ok = content_ok && run.tree->debug_contains(k) == expect;
    }
    content_ok = content_ok && run.tree->debug_size() == expected_size;
    std::string bad;
    if (!run.tree->debug_validate()) bad += " red-black invariants violated;";
    if (st.ops() != kOpsPerScheme) {
      bad += " S+N=" + std::to_string(st.ops()) + ", budget " +
             std::to_string(kOpsPerScheme) + ";";
    }
    if (!content_ok) bad += " final key set disagrees with the toggle parity;";
    out.tally.check(bad.empty(), kOpsPerScheme, s + ":" + bad);

    const double ops = static_cast<double>(st.ops() == 0 ? 1 : st.ops());
    out.host["runtime." + s + ".host_us_per_op"] = run_s * 1e6 / ops;
    out.host["sim." + s + ".host_ns_per_event"] =
        events == 0 ? 0.0 : run_s * 1e9 / static_cast<double>(events);
    out.sim["sim." + s + ".events"] = static_cast<double>(events);
    if (speculates(s)) {
      out.sim["htm." + s + ".aborts_per_op"] =
          static_cast<double>(st.aborts) / ops;
      for (const CauseName& c : kCauses) {
        const auto n = st.abort_causes[static_cast<std::size_t>(c.cause)];
        out.sim["htm." + s + ".abort_share." + c.name] =
            st.aborts == 0 ? 0.0
                           : static_cast<double>(n) /
                                 static_cast<double>(st.aborts);
      }
      out.sim["htm." + s + ".dooms"] =
          static_cast<double>(m.htm().total_dooms());
    }
    out.sim["elision." + s + ".ops_per_mcycle"] =
        makespan == 0 ? 0.0 : ops * 1e6 / static_cast<double>(makespan);
    out.sim["elision." + s + ".attempts_per_op"] = st.attempts_per_op();
    out.sim["elision." + s + ".nonspec_frac"] = st.nonspec_fraction();
    if (s == "hle-scm") {
      out.sim["elision.hle-scm.aux_per_op"] =
          static_cast<double>(st.aux_acquisitions) / ops;
    }
    out.sim["elision." + s + ".op_p50_kcycles"] =
        static_cast<double>(lat.percentile(0.50)) / 1e3;
    out.sim["elision." + s + ".op_p99_kcycles"] =
        static_cast<double>(lat.percentile(0.99)) / 1e3;
    out.sim["locks." + s + ".lock_held_arrival_frac"] =
        st.arrival_lock_held_fraction();
    out.exact.insert(out.exact.end(),
                     {makespan, st.spec_commits, st.aborts, st.nonspec,
                      st.arrivals, st.arrivals_lock_held, st.aux_acquisitions,
                      lat.count(), lat.max_value(), content_hash(*run.tree)});
    out.exact.insert(out.exact.end(), st.abort_causes.begin(),
                     st.abort_causes.end());

    if (run.trace != nullptr) {
      CycleShares cs;
      for (std::uint32_t t = 0; t < run.trace->threads(); ++t) {
        cs += account_thread(run.trace->ring(t), m.exec().thread(t).clock);
      }
      if (speculates(s)) {
        out.traced["htm." + s + ".wasted_cycle_share"] =
            CycleShares::share(cs.wasted, cs.total);
      }
      out.traced["locks." + s + ".held_cycle_share"] =
          CycleShares::share(cs.lock_held, cs.total);
      if (s == "hle-scm") {
        out.traced["locks.hle-scm.aux_held_cycle_share"] =
            CycleShares::share(cs.aux_held, cs.total);
      }
      const auto tl = stats::Timeline::aggregate(*run.trace, kWindowCycles);
      out.traced["stats." + s + ".lemming_fired"] =
          stats::detect_lemming(tl).fired ? 1.0 : 0.0;
    }
    return static_cast<double>(makespan) / 1e6;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_tree_workload(std::uint64_t seed) {
  return std::make_unique<TreeWorkload>(seed);
}

std::vector<MetricDef> tree_catalog() {
  std::vector<MetricDef> c;
  for (const char* sc : kSchemes) {
    const std::string s = sc;
    c.push_back({"runtime." + s + ".host_us_per_op", "us/op", "lower"});
    c.push_back({"sim." + s + ".events", "count", "lower"});
    c.push_back({"sim." + s + ".host_ns_per_event", "ns/event", "lower"});
    if (speculates(s)) {
      c.push_back({"htm." + s + ".aborts_per_op", "aborts/op", "lower"});
      for (const CauseName& cause : kCauses) {
        c.push_back({"htm." + s + ".abort_share." + cause.name, "fraction",
                     "lower"});
      }
      c.push_back({"htm." + s + ".dooms", "count", "lower"});
      c.push_back({"htm." + s + ".wasted_cycle_share", "fraction", "lower"});
    }
    c.push_back({"elision." + s + ".ops_per_mcycle", "ops/Mcycle", "higher"});
    c.push_back({"elision." + s + ".attempts_per_op", "attempts/op", "lower"});
    c.push_back({"elision." + s + ".nonspec_frac", "fraction", "lower"});
    if (s == "hle-scm") {
      c.push_back({"elision.hle-scm.aux_per_op", "aux/op", "lower"});
    }
    c.push_back({"elision." + s + ".op_p50_kcycles", "kcycles", "lower"});
    c.push_back({"elision." + s + ".op_p99_kcycles", "kcycles", "lower"});
    c.push_back({"locks." + s + ".lock_held_arrival_frac", "fraction", "lower"});
    c.push_back({"locks." + s + ".held_cycle_share", "fraction", "lower"});
    if (s == "hle-scm") {
      c.push_back({"locks.hle-scm.aux_held_cycle_share", "fraction", "lower"});
    }
    c.push_back({"stats." + s + ".lemming_fired", "flag", "lower"});
  }
  return c;
}

}  // namespace perfbench
