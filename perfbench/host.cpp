// Host-state record, guard and ceilings: OpenMP environment, per-thread CPU
// affinity, steal time, involuntary context switches, LLC size, peak RSS and
// an in-run STREAM triad.  Everything here only reads /proc and /sys.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

std::string host_guard() {
  // With OMP_PROC_BIND/OMP_PLACES set, libgomp binds the initial thread to
  // one CPU and every std::thread it later creates (ranks, service workers)
  // inherits that one-CPU mask.
  for (const char* var : {"OMP_PROC_BIND", "OMP_PLACES"}) {
    if (std::getenv(var) != nullptr) {
      return std::string(var) +
             " is set: every in-process rank and service worker would run "
             "on one CPU; unset it";
    }
  }
  return {};
}

void spin_threads(int threads, double seconds) {
#ifdef _OPENMP
#pragma omp parallel num_threads(threads)
  {
    const double end = now_s() + seconds;
    volatile double sink = 0.0;
    while (now_s() < end) {
      for (int i = 0; i < 1000; ++i) sink = sink + 1e-9;
    }
  }
#else
  (void)threads;
  const double end = now_s() + seconds;
  while (now_s() < end) {
  }
#endif
}

long long llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return v;
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (f >> s && !s.empty()) {
    long long n = std::atoll(s.c_str());
    if (s.back() == 'K') n <<= 10;
    if (s.back() == 'M') n <<= 20;
    return n;
  }
  return 0;
}

double triad_gbs(long long bytes_per_array, int threads, int reps) {
  const long long n = bytes_per_array / static_cast<long long>(sizeof(double));
  // Uninitialized storage so the first touch happens in the parallel loop.
  std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> b(new double[static_cast<std::size_t>(n)]);
  std::unique_ptr<double[]> c(new double[static_cast<std::size_t>(n)]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
#pragma omp parallel for schedule(static) num_threads(threads)
  for (long long i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  double best = 0.0;
  const double scalar = 3.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (long long i = 0; i < n; ++i) pa[i] = pb[i] + scalar * pc[i];
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * 8.0 * static_cast<double>(n) / dt / 1e9);
  }
  if (pa[n / 2] != 7.0) return 0.0;  // keeps the stores observable
  return best;
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

void set_omp_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

HostSnapshot host_snapshot() {
  HostSnapshot s;
  s.t = now_s();
  std::ifstream f("/proc/stat");
  std::string cpu;
  long long field[8] = {};
  if (f >> cpu && cpu == "cpu") {
    for (auto& x : field) f >> x;
    s.steal_ticks = field[7];
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.invol_csw = ru.ru_nivcsw;
  return s;
}

namespace {

std::string status_field(const std::string& path, const char* key) {
  std::ifstream f(path);
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      std::size_t p = klen + 1;
      while (p < line.size() && (line[p] == ' ' || line[p] == '\t')) ++p;
      return line.substr(p);
    }
  }
  return "?";
}

}  // namespace

void record_threads(RunOutcome& out, const std::string& when) {
  // One entry per live thread of this process: tid and allowed CPU list.
  std::ostringstream os;
  if (DIR* d = opendir("/proc/self/task")) {
    std::vector<std::string> tids;
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') tids.emplace_back(e->d_name);
    }
    closedir(d);
    std::sort(tids.begin(), tids.end());
    for (const auto& tid : tids) {
      const std::string base = "/proc/self/task/" + tid + "/status";
      os << tid << ":" << status_field(base, "Cpus_allowed_list") << " ";
    }
  }
  out.notes["threads." + when] = os.str();
}

void record_host(RunOutcome& out, const HostSnapshot& begin,
                 const HostSnapshot& end) {
  out.notes["nproc"] = std::to_string(std::thread::hardware_concurrency());
  out.notes["llc_bytes"] = std::to_string(llc_bytes());
  out.notes["omp_max_threads"] = std::to_string(omp_threads());
  for (const char* var : {"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES",
                          "OMP_WAIT_POLICY", "GOMP_SPINCOUNT"}) {
    const char* v = std::getenv(var);
    out.notes[std::string("env.") + var] = v != nullptr ? v : "(unset)";
  }
  const long hz = sysconf(_SC_CLK_TCK);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(end.steal_ticks - begin.steal_ticks) /
                    static_cast<double>(hz > 0 ? hz : 100));
  out.notes["steal_s"] = buf;
  out.notes["involuntary_csw"] = std::to_string(end.invol_csw - begin.invol_csw);
  std::snprintf(buf, sizeof(buf), "%.3f", end.t - begin.t);
  out.notes["run_wall_s"] = buf;
}

}  // namespace perfbench
