// Shared declarations of the kpm benchmark binary (see README.md).
//
// One binary runs one workload per process.  Every workload reports the same
// end-to-end metrics.  A traced run (--trace 1) measures the per-layer
// metrics instead: the kernel layers (physics, sparse, core, host) on the
// workload's own operator, plus the layers the workload owns (runtime and
// elastic for dist_elastic, service for service_mix).  --probe measures only
// the owned layers, for the traced runs of the other workloads.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "physics/spectral_bounds.hpp"
#include "physics/ti_model.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;       ///< tiny inputs for the self-test
  bool probe = false;     ///< owned layers only: no timed loop
  bool corrupt = false;   ///< perturb one checked moment (the checks must fail)
  std::string out_dir;    ///< checkpoints and the trace file go here
};

/// Outcome of one run: the checked-operation counts and the metrics.
struct RunOutcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;
  Metrics end_to_end;
  Metrics per_layer;
  std::map<std::string, std::string> notes;  ///< free-form host/run record

  void fail_check(const std::string& what);
  void put(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void put_layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

// --- timing and statistics ----------------------------------------------------

[[nodiscard]] double now_s();
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` of a latency sample.  Each workload fixes the
/// percentile it reports as its tail: the highest that leaves at least ten
/// samples beyond it at the workload's reference sample count (the median
/// when a run has fewer than forty samples, where no percentile is a tail).
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The end-to-end metrics every workload reports, from its set-up
/// repetitions, its solve times and its job latencies (one per completed
/// job), `jobs_completed` in `window_s` seconds, and its tail percentile.
void put_end_to_end(RunOutcome& out, const std::vector<double>& setup_s,
                    const std::vector<double>& solve_s,
                    const std::vector<double>& job_latency_s,
                    long long jobs_completed, double window_s,
                    double tail_percentile);

/// Splits a 64-bit seed into independent streams (splitmix64).
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// --- host state ---------------------------------------------------------------

/// Refuses to run (returns an error message) when the OpenMP binding
/// environment would pin every std::thread the library starts to one CPU.
[[nodiscard]] std::string host_guard();
/// Busy-spins `threads` OpenMP threads for `seconds` so the vCPUs are awake
/// before a clock starts.  Untimed.
void spin_threads(int threads, double seconds);
/// LLC bytes as the OS reports them (0 if unknown).
[[nodiscard]] long long llc_bytes();
/// STREAM triad a = b + s*c over arrays of `bytes_per_array` each; returns
/// the best GB/s of `reps` passes (24 bytes moved per element).
[[nodiscard]] double triad_gbs(long long bytes_per_array, int threads, int reps);
[[nodiscard]] double peak_rss_mib();
/// OpenMP team size of the calling thread, and setter (1 without OpenMP).
[[nodiscard]] int omp_threads();
void set_omp_threads(int n);

/// Snapshot of the host counters the run records (steal time, context
/// switches); `record_host` writes the start/end deltas and the affinity of
/// every thread of this process into `out.notes`.
struct HostSnapshot {
  long long steal_ticks = 0;
  long long invol_csw = 0;
  double t = 0.0;
};
[[nodiscard]] HostSnapshot host_snapshot();
void record_threads(RunOutcome& out, const std::string& when);
void record_host(RunOutcome& out, const HostSnapshot& begin,
                 const HostSnapshot& end);

// --- tracing ------------------------------------------------------------------

/// RAII span; records nothing while tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  double start_ = 0.0;
};
void tracing_enable(bool on);
[[nodiscard]] bool tracing_on();
/// Writes the recorded spans as Chrome trace-event JSON.
bool write_trace(const std::string& path);

// --- exact spectrum checks ----------------------------------------------------

/// The fully periodic, potential-free TI lattice every workload uses.
[[nodiscard]] kpm::physics::TIParams ti_lattice(int nx, int ny, int nz);

/// Exact Chebyshev moments mu_m = (1/N) sum_E T_m(a(E - b)), m < M, from the
/// closed-form Bloch dispersion of the periodic TI.  Also reports the largest
/// |a(E - b)| so a scaling that does not enclose the spectrum is caught.
struct ExactMoments {
  std::vector<double> mu;
  double max_abs_x = 0.0;
  double dimension = 0.0;
};
[[nodiscard]] ExactMoments exact_moments(const kpm::physics::TIParams& p,
                                         const kpm::physics::Scaling& s,
                                         int num_moments);

/// Constant c of the stochastic-trace bound max_m |mu_m - exact| <= c/sqrt(NR).
inline constexpr double kTraceBoundC = 8.0;

/// Checks mu_0 == 1 to rounding and the stochastic-trace bound; records a
/// check failure in `out`.
void check_moments(RunOutcome& out, const std::string& what,
                     const std::vector<double>& mu, const ExactMoments& exact,
                     int num_random);

/// Bitwise comparison of two moment sequences.
bool check_bitwise(RunOutcome& out, const std::string& what,
                   const std::vector<double>& got,
                   const std::vector<double>& want);

/// Applies the --corrupt perturbation to one moment (the checks must catch it).
void corrupt_moment(std::vector<double>& mu);

// --- workloads ----------------------------------------------------------------

void run_dos_dram(const RunConfig& cfg, RunOutcome& out);
void run_service_mix(const RunConfig& cfg, RunOutcome& out);
void run_dist_elastic(const RunConfig& cfg, RunOutcome& out);

/// Per-layer measurements shared by the workloads.  `physics.*`, `sparse.*`,
/// `core.*` and `host.*` run on the caller's operator at its block width.
void measure_kernel_layers(const RunConfig& cfg, RunOutcome& out,
                           const kpm::sparse::CrsMatrix& h,
                           const kpm::physics::Scaling& s, int width,
                           int threads);

}  // namespace perfbench
