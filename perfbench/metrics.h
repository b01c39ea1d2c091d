// The benchmark's own metric math, kept free of I/O and timing so
// selftest.cpp can check it directly:
//
//  * the tail-percentile choice (the highest percentile with at least ten
//    samples beyond it, reported with its sample count);
//  * Tally, the attempted/failed accounting behind error_rate;
//  * CycleShares, the per-thread split of simulated cycles read from an
//    EventTrace ring (wasted speculation, main-lock held, aux-lock held).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "stats/event_ring.h"
#include "stats/latency.h"

namespace perfbench {

using sihle::sim::Cycles;

// A tail percentile of the form 1 - 10^-k together with the evidence
// behind it.
struct TailQuantile {
  double p = 0.0;             // 0 when the sample is too small for any tail
  std::uint64_t samples = 0;  // size of the sample
  std::uint64_t beyond = 0;   // samples ranked above the quantile
  Cycles value = 0;           // the quantile itself (0 when p == 0)
};

// The highest percentile p = 1 - 10^-k (k >= 1: p90, p99, p99.9, ...) with
// at least `min_beyond` of `n` samples ranked above it.  For such p the
// count above the ceil(p*n)-th sample is exactly floor(n / 10^k), so the
// choice is made in integers and cannot be tipped by rounding.
inline TailQuantile choose_tail(std::uint64_t n, std::uint64_t min_beyond = 10) {
  TailQuantile t;
  t.samples = n;
  std::uint64_t scale = 10;  // 10^k
  double p = 0.9;
  while (min_beyond > 0 && n / scale >= min_beyond) {
    t.p = p;
    t.beyond = n / scale;
    if (scale > UINT64_MAX / 10) break;
    scale *= 10;
    p = 1.0 - (1.0 - p) / 10.0;
  }
  return t;
}

// choose_tail over a latency histogram, with the quantile filled in.
inline TailQuantile tail_of(const sihle::stats::LatencyHistogram& h,
                            std::uint64_t min_beyond = 10) {
  TailQuantile t = choose_tail(h.count(), min_beyond);
  if (t.p > 0.0) t.value = h.percentile(t.p);
  return t;
}

// Correctness accounting: every unit of work a pass attempts is counted,
// and a unit whose check fails (or that was shed, lost, or is part of a
// non-reproducible pass) counts as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check

  // Records `units` attempted units; all of them fail when `ok` is false.
  void check(bool ok, std::uint64_t units, const std::string& what) {
    attempted += units;
    if (!ok) {
      failed += units;
      failures.push_back(what);
    }
  }
  // Records `units` attempted units of which `bad` failed.
  void count(std::uint64_t units, std::uint64_t bad, const std::string& what) {
    attempted += units;
    if (bad > 0) {
      failed += std::min(bad, units);
      failures.push_back(what);
    }
  }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    failures.insert(failures.end(), o.failures.begin(), o.failures.end());
    return *this;
  }
  // Failed over attempted.  Nothing attempted means nothing was verified,
  // which counts as total failure rather than as a perfect score.
  double error_rate() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Where one thread's simulated cycles went, from its event ring.  Each
// cycle is charged to at most one bucket, by precedence: main lock held
// non-speculatively, then inside a transaction (committed or wasted,
// decided when it ends), then SCM aux lock held; the rest is other work
// (lock waits, think time, backoff).  The buckets are therefore disjoint
// and their shares of `total` sum to at most 1.
struct CycleShares {
  Cycles total = 0;      // cycles covered: first event (or 0) to the final clock
  Cycles wasted = 0;     // TxBegin -> TxAbort
  Cycles committed = 0;  // TxBegin -> TxCommit
  Cycles lock_held = 0;  // LockAcquire -> LockRelease
  Cycles aux_held = 0;   // AuxAcquire -> AuxRelease, outside the two above

  CycleShares& operator+=(const CycleShares& o) {
    total += o.total;
    wasted += o.wasted;
    committed += o.committed;
    lock_held += o.lock_held;
    aux_held += o.aux_held;
    return *this;
  }
  static double share(Cycles part, Cycles whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  }
};

// Accounts one thread.  A ring that dropped its oldest events covers only
// its suffix, so accounting then starts at the first surviving event.
inline CycleShares account_thread(const sihle::stats::EventRing& ring,
                                  Cycles final_clock) {
  using sihle::stats::Event;
  using sihle::stats::EventKind;
  CycleShares s;
  Cycles start = 0;
  if (ring.dropped() > 0 && ring.size() > 0) start = ring[0].at;
  Cycles prev = start;
  Cycles pending_tx = 0;
  bool in_tx = false, lock = false, aux = false;
  auto charge = [&](Cycles until) {
    if (until <= prev) return;
    const Cycles d = until - prev;
    if (lock) {
      s.lock_held += d;
    } else if (in_tx) {
      pending_tx += d;
    } else if (aux) {
      s.aux_held += d;
    }
    prev = until;
  };
  ring.for_each([&](const Event& e) {
    charge(e.at);
    switch (e.kind) {
      case EventKind::kTxBegin:
        in_tx = true;
        pending_tx = 0;
        break;
      case EventKind::kTxCommit:
        s.committed += pending_tx;
        pending_tx = 0;
        in_tx = false;
        break;
      case EventKind::kTxAbort:
        s.wasted += pending_tx;
        pending_tx = 0;
        in_tx = false;
        break;
      case EventKind::kLockAcquire: lock = true; break;
      case EventKind::kLockRelease: lock = false; break;
      case EventKind::kAuxAcquire: aux = true; break;
      case EventKind::kAuxRelease: aux = false; break;
      case EventKind::kNumKinds: break;
    }
  });
  charge(final_clock);
  // A transaction still open at the final clock never resolved; its
  // cycles stay in no bucket.
  s.total = final_clock > start ? final_clock - start : 0;
  return s;
}

}  // namespace perfbench
