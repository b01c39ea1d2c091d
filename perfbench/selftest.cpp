// Self-tests of the benchmark's own metric math (metrics.h): the tail
// percentile choice and its sample count, error_rate accounting, and the
// traced cycle shares.  Run with `python3 perfbench/run.py --selftest`;
// exits 1 on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "ds/rbtree.h"
#include "elision/elided_lock.h"
#include "elision/registry.h"
#include "metrics.h"
#include "runtime/ctx.h"

namespace {

using namespace perfbench;
using sihle::stats::Event;
using sihle::stats::EventKind;
using sihle::stats::EventRing;

int g_checks = 0;

// A check that stays on in optimized builds (unlike assert).
void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    std::exit(1);
  }
}

void test_tail_choice() {
  // At n = 60,000 (the service workload) p99.99 leaves 6 samples beyond,
  // p99.9 leaves 60: p99.9 is the highest admissible tail.
  TailQuantile t = choose_tail(60'000);
  expect(t.p == 0.999 && t.beyond == 60 && t.samples == 60'000,
         "n=60000 picks p99.9 with 60 beyond");
  // Boundaries are exact in integers: 10 beyond is enough, 9 is not.
  expect(choose_tail(100'000).beyond == 10, "n=100000 picks p99.99 (10 beyond)");
  expect(choose_tail(99'999).p == 0.999, "n=99999 falls back to p99.9");
  expect(choose_tail(100).p == 0.9 && choose_tail(100).beyond == 10,
         "n=100 picks p90");
  expect(choose_tail(99).p == 0.0 && choose_tail(99).samples == 99,
         "n=99 has no admissible tail but keeps its sample count");
  expect(choose_tail(0).p == 0.0, "empty sample has no tail");
  expect(choose_tail(5'000).p == 0.99 && choose_tail(5'000).beyond == 50,
         "n=5000 picks p99");

  // Against a histogram of 1..60000: the chosen quantile is the 59,940th
  // sample, within the histogram's documented bucket width.
  sihle::stats::LatencyHistogram h;
  for (Cycles v = 1; v <= 60'000; ++v) h.record(v);
  t = tail_of(h);
  expect(t.p == 0.999 && t.samples == 60'000, "histogram tail choice");
  expect(t.value >= 59'940 && t.value <= 59'940 + 59'940 / 32 + 1,
         "histogram tail value within the quantile contract, got " +
             std::to_string(t.value));
  // 20 samples leave only 2 beyond p90, so no tail is admissible.
  sihle::stats::LatencyHistogram small;
  for (Cycles v = 1; v <= 20; ++v) small.record(v);
  t = tail_of(small);
  expect(t.p == 0.0, "20 samples admit no p90 (2 beyond)");
}

void test_error_rate() {
  Tally t;
  expect(t.error_rate() == 1.0, "nothing attempted counts as total failure");
  t.check(true, 100, "ok");
  expect(t.attempted == 100 && t.failed == 0 && t.error_rate() == 0.0,
         "passing checks add attempts only");
  t.check(false, 50, "bad batch");
  expect(t.attempted == 150 && t.failed == 50 && t.failures.size() == 1,
         "a failed check fails all its units");
  t.count(40, 4, "4 shed");
  expect(t.attempted == 190 && t.failed == 54, "partial failures count");
  t.count(10, 99, "over-count");
  expect(t.failed == 64, "failures never exceed the units attempted");
  Tally u;
  u.check(true, 10, "ok");
  u += t;
  expect(u.attempted == 210 && u.failed == 64 && u.failures.size() == 3,
         "tallies add");
  expect(u.error_rate() == 64.0 / 210.0, "error_rate = failed / attempted");
}

void push(EventRing& r, Cycles at, EventKind k) { r.push(Event{at, k, {}, 0}); }

void expect_shares_valid(const CycleShares& s, const std::string& what) {
  const double w = CycleShares::share(s.wasted, s.total);
  const double c = CycleShares::share(s.committed, s.total);
  const double l = CycleShares::share(s.lock_held, s.total);
  const double a = CycleShares::share(s.aux_held, s.total);
  for (const double x : {w, c, l, a}) {
    expect(x >= 0.0 && x <= 1.0, what + ": share in [0,1]");
  }
  expect(w + c + l + a <= 1.0 + 1e-12, what + ": shares sum to at most 1");
}

void test_cycle_shares_synthetic() {
  EventRing r(64);
  push(r, 10, EventKind::kTxBegin);
  push(r, 30, EventKind::kTxAbort);     // 20 wasted
  push(r, 40, EventKind::kAuxAcquire);  // SCM serializing path
  push(r, 45, EventKind::kTxBegin);     // 5 aux-held before
  push(r, 60, EventKind::kTxCommit);    // 15 committed (tx beats aux)
  push(r, 62, EventKind::kAuxRelease);  // 2 more aux-held
  push(r, 70, EventKind::kLockAcquire);
  push(r, 100, EventKind::kLockRelease);  // 30 lock held
  const CycleShares s = account_thread(r, 120);
  expect(s.total == 120 && s.wasted == 20 && s.committed == 15 &&
             s.aux_held == 7 && s.lock_held == 30,
         "synthetic ring accounting");
  expect_shares_valid(s, "synthetic ring");

  // A ring that dropped its head covers only its suffix.
  EventRing small(2);
  push(small, 5, EventKind::kTxBegin);
  push(small, 50, EventKind::kTxBegin);
  push(small, 80, EventKind::kTxAbort);
  const CycleShares d = account_thread(small, 100);
  expect(d.total == 50 && d.wasted == 30, "dropped-head ring accounting");
  expect_shares_valid(d, "dropped-head ring");
}

// Real rings from contended runs of each scheme: every thread's shares are in
// [0, 1] and sum to at most 1, and the machine-wide sums likewise.
sihle::sim::Task<void> toggler(sihle::runtime::Ctx& c,
                               const sihle::elision::Policy& policy,
                               sihle::elision::ElidedLock& lock,
                               sihle::ds::RBTree& tree,
                               sihle::stats::OpStats& st) {
  for (int i = 0; i < 200; ++i) {
    const auto key = static_cast<std::int64_t>(c.rng().below(64));
    co_await sihle::elision::run_cs(
        policy, c, lock,
        [&tree, key](sihle::runtime::Ctx& cc) -> sihle::sim::Task<void> {
          return [](sihle::runtime::Ctx& c2, sihle::ds::RBTree& t,
                    std::int64_t k) -> sihle::sim::Task<void> {
            if (!co_await t.insert(c2, k)) co_await t.erase(c2, k);
          }(cc, tree, key);
        },
        st);
  }
}

void test_cycle_shares_real() {
  for (const char* spec : {"hle", "hle-scm", "slr", "standard"}) {
    const auto policy = sihle::elision::parse_policy(spec);
    expect(policy.has_value(), std::string("parse ") + spec);
    sihle::runtime::Machine::Config cfg;
    cfg.seed = 7;
    cfg.htm.spurious_abort_per_access = 1e-3;
    sihle::runtime::Machine m(cfg);
    sihle::stats::EventTrace trace;
    m.set_event_trace(&trace);
    sihle::elision::ElidedLock lock(m, sihle::locks::LockKind::kTtas,
                                    policy->conflict.aux);
    sihle::ds::RBTree tree(m);
    std::vector<sihle::stats::OpStats> st(4);
    for (std::size_t t = 0; t < st.size(); ++t) {
      m.spawn([&, t](sihle::runtime::Ctx& c) {
        return toggler(c, *policy, lock, tree, st[t]);
      });
    }
    m.run();
    CycleShares all;
    for (std::uint32_t t = 0; t < trace.threads(); ++t) {
      const CycleShares s =
          account_thread(trace.ring(t), m.exec().thread(t).clock);
      expect(s.total == m.exec().thread(t).clock, "thread covers its clock");
      expect_shares_valid(s, std::string(spec) + " thread " + std::to_string(t));
      all += s;
    }
    expect_shares_valid(all, std::string(spec) + " machine");
    if (std::string(spec) != "standard") {
      expect(all.wasted > 0, std::string(spec) + ": contended run wastes cycles");
    }
  }
}

}  // namespace

int main() {
  test_tail_choice();
  test_error_rate();
  test_cycle_shares_synthetic();
  test_cycle_shares_real();
  std::printf("perfbench selftest: %d checks passed\n", g_checks);
  return 0;
}
