// kpm_perfbench: runs one benchmark workload and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}.  The lines
// before it record the host state.  See README.md for the workloads.
//
//   kpm_perfbench --workload dos_dram|service_mix|dist_elastic --seed N
//                 --seconds S [--trace 0|1] [--probe]
//                 [--toy] [--corrupt] [--out-dir DIR]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  if (p == 50.0) return median(std::move(v));
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

void put_end_to_end(RunOutcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& solve_s,
                    const std::vector<double>& job_latency_s,
                    long long jobs_completed, double window_s,
                    double tail_percentile) {
  out.put("setup_s", median(setup_s), "s");
  out.put("solve_s", median(solve_s), "s");
  out.put("jobs_per_s", static_cast<double>(jobs_completed) / window_s, "1/s");
  out.put("job_p50_ms", 1e3 * median(job_latency_s), "ms");
  out.put("job_tail_ms", 1e3 * percentile(job_latency_s, tail_percentile), "ms");
  out.put("peak_rss_mb", peak_rss_mib(), "MiB");
  const auto n = static_cast<double>(job_latency_s.size());
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%g of %zu samples, %.0f beyond", tail_percentile,
                job_latency_s.size(), std::floor(n * (1.0 - tail_percentile / 100.0)));
  out.notes["job_tail"] = buf;
  out.notes["setup.samples"] = std::to_string(setup_s.size());
  out.notes["solve.samples"] = std::to_string(solve_s.size());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

void print_metrics(std::ostringstream& os, const Metrics& m) {
  os << "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "kpm_perfbench: %s\nusage: kpm_perfbench --workload "
               "dos_dram|service_mix|dist_elastic --seed N --seconds S "
               "[--trace 0|1] [--probe] [--toy] [--corrupt] "
               "[--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") cfg.workload = value();
      else if (a == "--seed") cfg.seed = std::stoull(value());
      else if (a == "--seconds") cfg.seconds = std::stod(value());
      else if (a == "--trace") cfg.trace = value() != "0";
      else if (a == "--toy") cfg.toy = true;
      else if (a == "--probe") cfg.probe = true;
      else if (a == "--corrupt") cfg.corrupt = true;
      else if (a == "--out-dir") cfg.out_dir = value();
      else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be > 0");
  if (cfg.probe) cfg.trace = true;
  if (const std::string why = host_guard(); !why.empty()) {
    std::fprintf(stderr, "kpm_perfbench: refusing to run: %s\n", why.c_str());
    return 3;
  }

  RunOutcome out;
  tracing_enable(cfg.trace);
  const HostSnapshot begin = host_snapshot();
  try {
    Span whole("run");
    if (cfg.workload == "dos_dram") run_dos_dram(cfg, out);
    else if (cfg.workload == "service_mix") run_service_mix(cfg, out);
    else if (cfg.workload == "dist_elastic") run_dist_elastic(cfg, out);
    else return usage(("unknown workload " + cfg.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kpm_perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 4;
  }
  record_host(out, begin, host_snapshot());
  if (cfg.trace) {
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload + ".json";
    if (!write_trace(path)) {
      std::fprintf(stderr, "kpm_perfbench: cannot write %s\n", path.c_str());
      return 4;
    }
    out.notes["trace_file"] = path;
  }

  for (const auto& f : out.check_failures) {
    std::fprintf(stderr, "kpm_perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = out.check_failures.empty();

  std::ostringstream host;
  host << "{\"host\": {";
  bool first = true;
  for (const auto& [k, v] : out.notes) {
    host << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v) << "\"";
    first = false;
  }
  host << "}}";
  std::printf("%s\n", host.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"metrics\": ";
  print_metrics(res, cfg.trace ? out.per_layer : out.end_to_end);
  res << "}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
