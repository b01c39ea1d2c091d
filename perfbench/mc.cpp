// mc_verify: a fixed set of small bounded model-checking cases over TTAS.
//
//   hle-1x1         hle, 1x1 critical sections: clean and complete
//   hle-spurious    hle, 1x1, one injectable spurious abort: clean
//   hle-scm-1x1     hle-scm, 1x1: clean
//   slr-1x1         slr:retries=1, 1x1: clean
//   slr-hazard      the wild-store hazard pair: lazy subscription commits
//                   torn snapshots, subscribe=commit-checked commits none
//                   (both keep the aborted-read concession)
//
// Each case is one timed call of the public explorer entry points
// (mc::explore_scheme, mc::explore_slr_hazard for the pair).  The explorer
// enumerates every schedule, so the cases take no seed: the workload's
// inputs are the same for every --seed.
//
// The cases are kept small (a pass takes about 0.2 s) so a run holds a few
// hundred passes, and its fastest pass reliably falls in a moment when the
// shared host is quiet; larger bounds (hle 2x1, hle-scm with a spurious
// abort) take seconds per pass and leave a run too few passes for that.
//
// Correctness: each case's verdict — completeness plus which finding kinds
// occur — equals its expected verdict; a case that differs counts as
// failed.
#include <algorithm>
#include <functional>

#include "bench.h"
#include "mc/workloads.h"
#include "stats/findings.h"

namespace perfbench {
namespace {

using namespace sihle;
using stats::FindingKind;

// Set-up (building the case table) takes about half a microsecond, so it
// is repeated this many times per pass and the pass reports the fastest.
constexpr int kSetupRepeats = 51;

// One explorer call and its expected verdict: the exploration is complete
// and exactly the `present` finding kinds occur (every other kind counts 0).
struct Exploration {
  std::function<mc::McScenarioResult()> run;
  std::vector<FindingKind> present;
};

struct Case {
  const char* name;
  std::vector<Exploration> explorations;
};

std::vector<Case> make_cases() {
  using locks::LockKind;
  mc::ScenarioOptions spurious;
  spurious.mc.spurious_budget = 1;
  return {
      {"hle-1x1",
       {{[] { return mc::explore_scheme("hle", LockKind::kTtas); }, {}}}},
      {"hle-spurious",
       {{[spurious] {
           return mc::explore_scheme("hle", LockKind::kTtas, spurious);
         },
         {}}}},
      {"hle-scm-1x1",
       {{[] { return mc::explore_scheme("hle-scm", LockKind::kTtas); }, {}}}},
      {"slr-1x1",
       {{[] { return mc::explore_scheme("slr:retries=1", LockKind::kTtas); },
         {}}}},
      {"slr-hazard",
       {{[] {
           return mc::explore_slr_hazard(htm::SlrHazard::kWildStore,
                                         elision::SubscribeKind::kLazy);
         },
         {FindingKind::kMcNonSerializableCommit,
          FindingKind::kMcInconsistentAbortedRead}},
        {[] {
           return mc::explore_slr_hazard(htm::SlrHazard::kWildStore,
                                         elision::SubscribeKind::kCommitChecked);
         },
         {FindingKind::kMcInconsistentAbortedRead}}}},
  };
}

// Empty when `r` is complete with exactly the `present` finding kinds,
// else what differs.
std::string verdict_diff(const mc::McScenarioResult& r,
                         const std::vector<FindingKind>& present) {
  std::string diff;
  if (!r.stats.complete) diff += " incomplete;";
  for (std::size_t k = 0; k < stats::kNumFindingKinds; ++k) {
    const auto kind = static_cast<FindingKind>(k);
    bool want = false;
    for (const FindingKind p : present) want = want || p == kind;
    const std::uint64_t n = r.findings.count(kind);
    if ((n > 0) != want) {
      diff += std::string(" ") + stats::to_string(kind) + "=" +
              std::to_string(n) + (want ? " (expected some);" : " (expected 0);");
    }
  }
  return diff;
}

class McWorkload final : public Workload {
 public:
  const char* ops_unit() const override { return "transitions"; }

  PassResult pass(Tracer* tracer) override {
    PassResult out;
    std::vector<Case> cases;
    std::vector<double> setups;
    double t0 = 0.0;
    for (int k = 0; k < kSetupRepeats; ++k) {
      cases.clear();
      t0 = host_seconds();
      cases = make_cases();
      setups.push_back(host_seconds() - t0);
    }
    const double t1 = host_seconds();
    out.setup_s = *std::min_element(setups.begin(), setups.end());
    if (tracer != nullptr) tracer->host("setup", t0);
    mc::McStats total;
    for (const Case& c : cases) {
      const double c0 = host_seconds();
      std::string diff;
      for (const Exploration& e : c.explorations) {
        const double e0 = host_seconds();
        const mc::McScenarioResult r = e.run();
        out.timed_s += host_seconds() - e0;
        diff += verdict_diff(r, e.present);
        total.runs += r.stats.runs;
        total.transitions += r.stats.transitions;
        total.sleep_pruned += r.stats.sleep_pruned;
        total.singleton_commits += r.stats.singleton_commits;
        out.exact.insert(out.exact.end(),
                         {r.stats.runs, r.stats.transitions,
                          r.stats.sleep_pruned, r.stats.singleton_commits,
                          r.stats.hash_pruned, r.stats.step_limited,
                          r.bad_schedules, r.findings.total()});
      }
      out.tally.check(diff.empty(), 1, std::string(c.name) + ":" + diff);
      const std::string span = std::string("mc.") + c.name;
      out.host[span + ".s"] = host_seconds() - c0;
      if (tracer != nullptr) tracer->host(span, c0);
    }
    out.verify_s = host_seconds() - t1;
    out.ops = static_cast<double>(total.transitions);
    out.sim["mc.schedules"] = static_cast<double>(total.runs);
    out.sim["mc.transitions"] = static_cast<double>(total.transitions);
    out.sim["mc.transitions_per_schedule"] =
        total.runs == 0 ? 0.0
                        : static_cast<double>(total.transitions) /
                              static_cast<double>(total.runs);
    out.sim["mc.sleep_pruned"] = static_cast<double>(total.sleep_pruned);
    out.sim["mc.singleton_commits"] =
        static_cast<double>(total.singleton_commits);
    out.host["mc.host_us_per_transition"] =
        total.transitions == 0
            ? 0.0
            : out.timed_s * 1e6 / static_cast<double>(total.transitions);
    return out;
  }
};

}  // namespace

std::unique_ptr<Workload> make_mc_workload(std::uint64_t /*seed*/) {
  return std::make_unique<McWorkload>();
}

std::vector<MetricDef> mc_catalog() {
  std::vector<MetricDef> c = {
      {"mc.schedules", "count", "lower"},
      {"mc.transitions", "count", "lower"},
      {"mc.transitions_per_schedule", "trans/schedule", "lower"},
      {"mc.sleep_pruned", "count", "higher"},
      {"mc.singleton_commits", "count", "higher"},
      {"mc.host_us_per_transition", "us/transition", "lower"},
  };
  for (const Case& k : make_cases()) {
    c.push_back({std::string("mc.") + k.name + ".s", "s", "lower"});
  }
  return c;
}

}  // namespace perfbench
