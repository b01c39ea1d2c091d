// The repository benchmark's measuring program (README.md; run through
// run.py, which builds it).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--trace-out=FILE] [--catalog]
//
// A run is one reference pass, then timed passes until S host seconds have
// passed since the run began.  Every pass repeats the workload's fixed work at the same seed,
// so each must reproduce the reference's simulated values exactly (the
// determinism self-check); a pass that does not counts its work as failed.
//
// --trace=0 reports the end-to-end metrics: host throughput and pass time
// of the fastest timed pass, the median set-up time, and peak RSS.  Every
// pass does the same deterministic work, so host noise (other tenants'
// cache and memory traffic) only ever slows a pass: the fastest pass is
// the steadiest estimate of the work's cost, where the median moves with
// the share of the run the host spent contended.
// --trace=1 alternates plain passes (host spans only) with instrumented
// ones (event rings, simulated spans, per-shard lemming detection) and
// reports the per-layer metrics: host-clock ones are minima over the
// plain passes, simulated ones come from the reference pass, ring-derived
// ones from the instrumented passes, and trace.overhead compares the two
// kinds of pass.  Spans go to --trace-out as JSON lines.
//
// The last line of standard output is the result object run.py checks and
// forwards; the exit status is 1 when any check failed.
#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>

#include "bench.h"
#include "exp/replicates.h"
#include "stats/json.h"

namespace perfbench {
namespace {

const std::vector<MetricDef>& end_to_end_catalog() {
  static const std::vector<MetricDef> c = {
      {"host_ops_per_s", "ops/s", "higher"},
      {"verify_s", "s", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return c;
}

// Per-layer metrics every workload shares.
std::vector<MetricDef> common_catalog() {
  return {
      {"sim_mcycles", "Mcycles", "lower"},
      {"trace.overhead", "fraction", "lower"},
  };
}

struct WorkloadDef {
  const char* name;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
  std::vector<MetricDef> (*catalog)();
};

const WorkloadDef kWorkloads[] = {
    {"lemming_tree", make_tree_workload, tree_catalog},
    {"readmostly_service", make_service_workload, service_catalog},
    {"mc_verify", make_mc_workload, mc_catalog},
};

std::vector<MetricDef> per_layer_catalog() {
  std::vector<MetricDef> all = common_catalog();
  for (const WorkloadDef& w : kWorkloads) {
    for (MetricDef& d : w.catalog()) all.push_back(std::move(d));
  }
  return all;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool catalog = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--trace-out=FILE] | --catalog\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-') {
    usage("--" + key + " needs a non-negative integer, got '" + v + "'");
  }
  return x;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) usage("unexpected argument '" + a + "'");
    a = a.substr(2);
    std::string value;
    const auto eq = a.find('=');
    if (eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (a != "catalog") {
      if (i + 1 >= argc) usage("--" + a + " needs a value");
      value = argv[++i];
    }
    if (a == "workload") {
      o.workload = value;
      have_workload = true;
    } else if (a == "seed") {
      o.seed = parse_u64(a, value);
    } else if (a == "seconds") {
      const std::uint64_t s = parse_u64(a, value);
      if (s == 0 || s > 3600) usage("--seconds must be in [1, 3600]");
      o.seconds = static_cast<double>(s);
    } else if (a == "trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (a == "trace-out") {
      o.trace_out = value;
    } else if (a == "catalog") {
      o.catalog = true;
    } else {
      usage("unknown flag --" + a);
    }
  }
  if (!o.catalog && !have_workload) usage("--workload is required");
  return o;
}

// Peak resident memory of this process image, from VmHWM.  (getrusage's
// ru_maxrss is no substitute: Linux carries it across execve, so a child
// of a large parent would report the parent's peak.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// First key whose value differs between two metric maps, or "".
std::string first_difference(const Metrics& a, const Metrics& b) {
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second != v) return k;
  }
  for (const auto& [k, v] : b) {
    if (a.find(k) == a.end()) return k;
  }
  return "";
}

// Marks every unit of `p` failed unless its simulated values reproduce
// `ref` exactly.
void check_reproduces(const PassResult& ref, PassResult& p, const char* what) {
  std::string diff = first_difference(ref.sim, p.sim);
  if (diff.empty() && ref.exact != p.exact) diff = "content fingerprint";
  if (diff.empty()) return;
  p.tally.failed = p.tally.attempted;
  p.tally.failures.push_back(std::string(what) +
                             ": simulated result differs from the reference "
                             "pass (" + diff + ")");
}

// `s` as a JSON string literal.
std::string quoted(std::string_view s) {
  std::string out;
  sihle::stats::json::append_escaped(out, s);
  return out;
}

void print_catalog() {
  std::printf("[\n");
  const auto all = per_layer_catalog();
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::printf("  {\"name\": %s, \"unit\": %s, \"better\": %s}%s\n",
                quoted(all[i].name).c_str(),
                quoted(all[i].unit).c_str(),
                quoted(all[i].better).c_str(),
                i + 1 < all.size() ? "," : "");
  }
  std::printf("]\n");
}

struct Quartiles {
  double min, q1, med, q3, max;
};

Quartiles quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  auto at = [&](double f) {
    if (v.empty()) return 0.0;
    const double pos = f * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.0), at(0.25), sihle::exp::Replicates(v).median(), at(0.75),
          at(1.0)};
}

int run(const Options& o) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (o.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::string names;
    for (const WorkloadDef& w : kWorkloads) names += std::string(" ") + w.name;
    usage("unknown workload '" + o.workload + "'; choose one of:" + names);
  }
  std::unique_ptr<Workload> wl = def->make(o.seed);
  Tracer tracer;
  Tracer* tp = o.trace ? &tracer : nullptr;
  Tally tally;

  // The run measures for o.seconds from here, reference pass included.
  const double deadline = host_seconds() + o.seconds;
  // Reference pass: warms caches and pools, and fixes the simulated values
  // every later pass must reproduce.  Not part of any timing.
  tracer.begin_pass(0, false);
  PassResult ref = wl->pass(tp);
  tracer.end_pass();
  tally += ref.tally;

  std::vector<PassResult> plain, instrumented;
  for (int n = 1;; ++n) {
    const bool instr = o.trace && n % 2 == 1;
    tracer.begin_pass(n, instr);
    PassResult p = wl->pass(tp);
    tracer.end_pass();
    check_reproduces(ref, p, ("pass " + std::to_string(n)).c_str());
    if (instr && !instrumented.empty()) {
      const std::string diff =
          first_difference(instrumented.front().traced, p.traced);
      if (!diff.empty()) {
        p.tally.failed = p.tally.attempted;
        p.tally.failures.push_back("pass " + std::to_string(n) +
                                   ": traced result differs (" + diff + ")");
      }
    }
    tally += p.tally;
    (instr ? instrumented : plain).push_back(std::move(p));
    const bool enough = !plain.empty() && (!o.trace || !instrumented.empty());
    if (enough && host_seconds() >= deadline) break;
  }
  if (std::unique_ptr<PassResult> v = wl->variant_pass()) {
    check_reproduces(ref, *v, "variant pass");
    tally += v->tally;
  }

  auto dist = [](const std::vector<PassResult>& ps, auto field) {
    std::vector<double> v;
    for (const PassResult& p : ps) v.push_back(field(p));
    return quartiles(v);
  };
  const Quartiles ops_rate =
      dist(plain, [](const PassResult& p) { return p.ops / p.timed_s; });
  const Quartiles verify =
      dist(plain, [](const PassResult& p) { return p.verify_s; });
  const Quartiles setup =
      dist(plain, [](const PassResult& p) { return p.setup_s; });

  const double rss_mb = peak_rss_mb();
  Metrics out;
  std::vector<MetricDef> declared;
  if (!o.trace) {
    declared = end_to_end_catalog();
    out["host_ops_per_s"] = ops_rate.max;
    out["verify_s"] = verify.min;
    out["setup_s"] = setup.med;
    out["peak_rss_mb"] = rss_mb;
  } else {
    declared = per_layer_catalog();
    for (const auto& [k, v] : ref.sim) out[k] = v;
    for (const auto& [k, v] : instrumented.front().traced) out[k] = v;
    // Every host-clock per-layer metric is a time (lower is better), so
    // its fastest value is its minimum.
    for (const auto& [k, v] : plain.front().host) {
      double fastest = v;
      for (const PassResult& p : plain) fastest = std::min(fastest, p.host.at(k));
      out[k] = fastest;
    }
    const double plain_s = verify.min;
    const double instr_s =
        dist(instrumented, [](const PassResult& p) { return p.verify_s; }).min;
    out["trace.overhead"] = plain_s > 0.0 ? instr_s / plain_s - 1.0 : 0.0;
    // The workload must publish every metric of its own catalog, and only
    // those and the common ones; the other workloads' metrics read 0.
    std::vector<MetricDef> own = def->catalog();
    for (const MetricDef& d : own) {
      tally.check(out.count(d.name) == 1, 0, "metric " + d.name + " not produced");
    }
    for (MetricDef& d : common_catalog()) own.push_back(std::move(d));
    for (const auto& [k, v] : out) {
      bool known = false;
      for (const MetricDef& d : own) known = known || d.name == k;
      tally.check(known, 0, "metric " + k + " is not in the workload's catalog");
    }
    for (const MetricDef& d : declared) out.emplace(d.name, 0.0);
  }

  if (tp != nullptr && !o.trace_out.empty() && !tracer.write(o.trace_out)) {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 o.trace_out.c_str());
  }

  // Human-readable report.
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d: 1 reference + %zu plain"
              " + %zu instrumented passes\n",
              def->name, o.seed, o.trace ? 1 : 0, plain.size(),
              instrumented.size());
  std::printf("  %-22s %14.6g %-8s (fastest pass; median %.6g, q1 %.6g,"
              " q3 %.6g; %s per host second)\n",
              "host_ops_per_s", ops_rate.max, "ops/s", ops_rate.med,
              ops_rate.q1, ops_rate.q3, wl->ops_unit());
  std::printf("  %-22s %14.6g %-8s (fastest pass; median %.6g, q1 %.6g,"
              " q3 %.6g)\n",
              "verify_s", verify.min, "s", verify.med, verify.q1, verify.q3);
  std::printf("  %-22s %14.6g %-8s (q1 %.6g, q3 %.6g)\n", "setup_s", setup.med,
              "s", setup.q1, setup.q3);
  std::printf("  %-22s %14.6g %-8s\n", "peak_rss_mb", rss_mb, "MB");
  auto sim_line = [&](const char* name, const char* unit, const char* note) {
    const auto it = ref.sim.find(name);
    if (it == ref.sim.end()) {
      std::printf("  %-22s %14s %-8s (not simulated by this workload)\n", name,
                  "n/a", unit);
    } else {
      std::printf("  %-22s %14.6g %-8s %s\n", name, it->second, unit, note);
    }
  };
  sim_line("sim_mcycles", "Mcycles", "(simulated makespan, exact per seed)");
  char p50_note[96] = "";
  char tail_note[128] = "";
  if (ref.sim.count("service.sojourn_samples") != 0) {
    const double n = ref.sim.at("service.sojourn_samples");
    std::snprintf(p50_note, sizeof p50_note, "(of %.0f samples)", n);
    std::snprintf(tail_note, sizeof tail_note,
                  "(p%.6g of %.0f samples, the highest with >= 10 beyond)",
                  ref.sim.at("service.sojourn_tail_pct"), n);
  }
  sim_line("sojourn_p50_kcycles", "kcycles", p50_note);
  sim_line("sojourn_p999_kcycles", "kcycles", tail_note);
  std::printf("  %-22s %14.6g %-8s (%" PRIu64 " of %" PRIu64 " failed)\n",
              "error_rate", tally.error_rate(), "fraction", tally.failed,
              tally.attempted);
  for (const std::string& f : tally.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 && tally.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : declared) {
    json += first ? "" : ", ";
    first = false;
    json += quoted(d.name) + ": {\"value\": ";
    sihle::stats::json::append_double(json, out.at(d.name));
    json += ", \"unit\": " + quoted(d.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return tally.failed == 0 && tally.failures.empty() ? 0 : 1;
}

}  // namespace

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const HostSpan& s : host_) {
    std::fprintf(f,
                 "{\"clock\": \"host\", \"name\": %s, \"pass\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 quoted(s.name).c_str(), s.pass, s.start, s.end);
  }
  for (const SimSpan& s : sim_) {
    std::fprintf(f,
                 "{\"clock\": \"sim\", \"scheme\": %s, \"id\": \"%u:%" PRIu64
                 "\", \"attempt\": %d, \"start\": %" PRIu64 ", \"end\": %" PRIu64
                 "}\n",
                 quoted(s.scheme).c_str(), s.tid, s.seq, s.attempt,
                 static_cast<std::uint64_t>(s.start),
                 static_cast<std::uint64_t>(s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  if (o.catalog) {
    perfbench::print_catalog();
    return 0;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
