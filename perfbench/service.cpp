// readmostly_service: open Poisson arrivals through the sharded service.
//
// 8 shards (DomainSet domains) of 2 servers each; every shard guards a hash
// table with an rw lock.  Lookups elide it in shared mode
// (hle-retries:mode=shared), the 20% updates take it exclusively
// (hle-retries).  Keys follow Zipf s=0.9 over 4096 keys; 60,000 requests
// arrive at 5,000 per Mcycle into queues capped at 512, below saturation,
// so nothing is shed.  Timed passes run the domains on 1 host thread: at
// 4096-cycle epochs 2 threads are no faster, and their epoch barrier
// hands off between vCPUs, which a shared host delays by varying amounts
// from run to run.  The one timed
// call is harness::run_shard_workload; its DomainSet::run share
// (wall_seconds) is the simulation, the rest is stream generation and
// domain construction.
//
// Correctness: tables_valid, served + dropped == offered, and every request
// is served (a shed or unserved request counts as failed).  The variant
// pass on 2 host threads must reproduce every simulated value.
#include "bench.h"
#include "harness/cli.h"
#include "harness/shard_workload.h"

namespace perfbench {
namespace {

using namespace sihle;
using harness::ShardWorkloadConfig;
using harness::ShardWorkloadResult;

constexpr std::uint64_t kRequests = 60'000;

ShardWorkloadConfig make_config(std::uint64_t seed, int domain_threads) {
  ShardWorkloadConfig cfg;
  cfg.shards = 8;
  cfg.threads_per_shard = 2;
  cfg.keyspace = 4096;
  cfg.zipf_s = 0.9;
  cfg.update_pct = 20;
  cfg.seed = seed;
  cfg.domain_threads = domain_threads;
  cfg.epoch_cycles = 4096;
  cfg.scheme = harness::parse_scheme("hle-retries");
  cfg.read_scheme = harness::parse_scheme("hle-retries:mode=shared");
  cfg.lock = locks::LockKind::kRw;
  cfg.load.model = service::LoadModel::kPoisson;
  cfg.load.offered_ops_per_mcycle = 5000.0;
  cfg.load.requests = kRequests;
  cfg.load.sessions = 512;
  cfg.load.queue_capacity = 512;
  return cfg;
}

double kcycles(Cycles c) { return static_cast<double>(c) / 1e3; }

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(std::uint64_t seed) : seed_(seed) {}

  const char* ops_unit() const override { return "requests"; }

  PassResult pass(Tracer* tracer) override {
    return run(tracer, /*domain_threads=*/1);
  }

  std::unique_ptr<PassResult> variant_pass() override {
    return std::make_unique<PassResult>(run(nullptr, /*domain_threads=*/2));
  }

 private:
  PassResult run(Tracer* tracer, int domain_threads) {
    PassResult out;
    const bool instrumented = tracer != nullptr && tracer->instrumented();
    const double t0 = host_seconds();
    ShardWorkloadConfig cfg = make_config(seed_, domain_threads);
    cfg.per_shard_lemming = instrumented;
    const double t1 = host_seconds();
    const ShardWorkloadResult r = harness::run_shard_workload(cfg);
    const double call_s = host_seconds() - t1;
    if (tracer != nullptr) tracer->host("service.run_shard_workload", t1);
    // The call builds the request streams and the domains before its
    // DomainSet::run; that share is set-up, not simulation.
    const double inner_setup_s = call_s - r.wall_seconds;
    out.setup_s = (t1 - t0) + inner_setup_s;
    out.timed_s = r.wall_seconds;

    const double v0 = host_seconds();
    const auto& q = r.open.queue;
    // Requests are the units: shed or unserved ones fail, and a broken
    // table or a leak in the request accounting fails them all.
    std::uint64_t bad = q.offered - std::min(q.served, q.offered);
    std::string why =
        bad == 0 ? "" : " " + std::to_string(bad) + " requests shed or unserved;";
    if (!r.tables_valid) why += " hash tables invalid;";
    if (q.served + q.dropped != q.offered) why += " served + dropped != offered;";
    if (q.offered != kRequests) {
      why += " offered " + std::to_string(q.offered) + " requests, not " +
             std::to_string(kRequests) + ";";
    }
    if (!r.tables_valid || q.served + q.dropped != q.offered ||
        q.offered != kRequests) {
      bad = std::max<std::uint64_t>(q.offered, 1);
    }
    out.tally.count(std::max<std::uint64_t>(q.offered, 1), bad,
                    "readmostly_service:" + why);
    if (tracer != nullptr) tracer->host("validate", v0);
    out.verify_s = host_seconds() - t1;
    out.ops = static_cast<double>(q.served);

    const double ops =
        static_cast<double>(r.stats.ops() == 0 ? 1 : r.stats.ops());
    out.host["service.setup_s"] = inner_setup_s;
    out.host["runtime.host_us_per_epoch"] =
        r.epochs == 0 ? 0.0 : r.wall_seconds * 1e6 / static_cast<double>(r.epochs);
    out.host["sim.host_ns_per_event"] =
        r.total_events == 0
            ? 0.0
            : r.wall_seconds * 1e9 / static_cast<double>(r.total_events);
    out.sim["runtime.epochs"] = static_cast<double>(r.epochs);
    out.sim["runtime.remote_ops"] = static_cast<double>(r.remote_ops);
    out.sim["sim.events"] = static_cast<double>(r.total_events);
    out.sim["htm.aborts_per_op"] = static_cast<double>(r.stats.aborts) / ops;
    out.sim["elision.attempts_per_op"] = r.stats.attempts_per_op();
    out.sim["elision.nonspec_frac"] = r.stats.nonspec_fraction();
    out.sim["service.qdelay_p99_kcycles"] = kcycles(r.open.qdelay.percentile(0.99));
    out.sim["service.service_p99_kcycles"] =
        kcycles(r.open.service.percentile(0.99));
    out.sim["service.sojourn_p99_kcycles"] =
        kcycles(r.open.sojourn.percentile(0.99));
    out.sim["service.max_queue_depth"] = static_cast<double>(q.max_depth);
    out.sim["service.served"] = static_cast<double>(q.served);
    out.sim["sojourn_p50_kcycles"] = kcycles(r.open.sojourn.percentile(0.50));
    const TailQuantile tail = tail_of(r.open.sojourn);
    out.sim["sojourn_p999_kcycles"] = kcycles(tail.value);
    out.sim["service.sojourn_tail_pct"] = tail.p * 100.0;
    out.sim["service.sojourn_samples"] = static_cast<double>(tail.samples);
    out.sim["sim_mcycles"] = static_cast<double>(r.makespan) / 1e6;
    out.exact = {r.fingerprint, r.telemetry, r.stats.spec_commits,
                 r.stats.aborts, r.stats.nonspec, q.admitted, q.dropped};
    if (instrumented) {
      out.traced["stats.lemming_shards"] = static_cast<double>(r.lemming_shards);
    }
    return out;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_service_workload(std::uint64_t seed) {
  return std::make_unique<ServiceWorkload>(seed);
}

std::vector<MetricDef> service_catalog() {
  return {
      {"runtime.host_us_per_epoch", "us/epoch", "lower"},
      {"runtime.epochs", "count", "lower"},
      {"runtime.remote_ops", "count", "lower"},
      {"service.setup_s", "s", "lower"},
      {"sim.events", "count", "lower"},
      {"sim.host_ns_per_event", "ns/event", "lower"},
      {"htm.aborts_per_op", "aborts/op", "lower"},
      {"elision.attempts_per_op", "attempts/op", "lower"},
      {"elision.nonspec_frac", "fraction", "lower"},
      {"service.qdelay_p99_kcycles", "kcycles", "lower"},
      {"service.service_p99_kcycles", "kcycles", "lower"},
      {"service.sojourn_p99_kcycles", "kcycles", "lower"},
      {"service.max_queue_depth", "requests", "lower"},
      {"service.served", "requests", "higher"},
      {"service.sojourn_samples", "count", "higher"},
      {"service.sojourn_tail_pct", "%", "higher"},
      {"sojourn_p50_kcycles", "kcycles", "lower"},
      {"sojourn_p999_kcycles", "kcycles", "lower"},
      {"stats.lemming_shards", "shards", "lower"},
  };
}

}  // namespace perfbench
