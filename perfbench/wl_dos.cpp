// Workload dos_dram: one large single-process DOS solve (moments_aug_spmmv
// on assembled CRS, wide R) whose working set is several times the LLC, so
// `sparse` and `core` do nearly all the work from DRAM.  Also holds the
// kernel-layer measurements (physics / sparse / core / host) every traced
// workload runs on its own operator.
#include <algorithm>
#include <optional>
#include <vector>

#include "bench.hpp"
#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "core/sweep_session.hpp"
#include "perfmodel/balance.hpp"
#include "sparse/kpm_kernels.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using kpm::complex_t;

kpm::blas::BlockVector random_block(kpm::global_index n, int width,
                                    std::uint64_t seed) {
  kpm::RandomVectorSource rng(seed);
  kpm::blas::BlockVector v(n, width);
  kpm::aligned_vector<complex_t> col(static_cast<std::size_t>(n));
  for (int r = 0; r < width; ++r) {
    rng.fill(col);
    v.set_column(r, col);
  }
  return v;
}

}  // namespace

void measure_kernel_layers(const RunConfig& cfg, RunOutcome& out,
                           const kpm::sparse::CrsMatrix& h,
                           const kpm::physics::Scaling& s, int width,
                           int threads) {
  const int saved = omp_threads();
  set_omp_threads(threads);
  const kpm::global_index n = h.nrows();
  const double min_time = cfg.toy ? 0.05 : 0.5;

  // sparse: one fused aug_spmmv (Chebyshev recurrence scalars) at the width.
  std::vector<double> sweep;
  {
    const kpm::blas::BlockVector v = random_block(n, width, mix_seed(cfg.seed, 900));
    kpm::blas::BlockVector w(n, width);
    std::vector<complex_t> dvv(static_cast<std::size_t>(width));
    std::vector<complex_t> dwv(static_cast<std::size_t>(width));
    const auto sc = kpm::sparse::AugScalars::recurrence(s.a, s.b);
    kpm::sparse::aug_spmmv(h, sc, v, w, dvv, dwv);  // untimed warm-up
    const double t_end = now_s() + min_time;
    while (sweep.size() < 5 || (now_s() < t_end && sweep.size() < 200)) {
      Span span("sparse.aug_spmmv");
      const double t0 = now_s();
      kpm::sparse::aug_spmmv(h, sc, v, w, dvv, dwv);
      sweep.push_back(now_s() - t0);
    }
  }
  const double sweep_s = median(sweep);
  kpm::perfmodel::KpmWorkload wl;
  wl.n = static_cast<double>(n);
  wl.nnz = static_cast<double>(h.nnz());
  wl.num_random = width;
  wl.num_moments = 2;  // one inner iteration = one sweep
  const double flops = kpm::perfmodel::kpm_total_flops(wl);
  const double bytes = kpm::perfmodel::traffic_aug_spmmv(wl);
  out.put_layer("sparse.sweep_ms", 1e3 * sweep_s, "ms");
  out.put_layer("sparse.gflops", flops / sweep_s / 1e9, "Gflop/s");
  out.put_layer("sparse.computed_gbs", bytes / sweep_s / 1e9, "GB/s");

  // host: STREAM triad over arrays totalling >= 4x the LLC.
  {
    Span span("host.triad");
    const long long llc = std::max(llc_bytes(), 32LL << 20);
    const long long per_array = cfg.toy ? (8LL << 20) : (4 * llc + 2) / 3;
    const double triad = triad_gbs(per_array, std::max(threads, 1), cfg.toy ? 2 : 5);
    out.put_layer("host.triad_gbs", triad, "GB/s");
    out.put_layer("sparse.roofline_frac", bytes / sweep_s / 1e9 / triad, "ratio");
  }

  // core: SweepSession::advance(1), the same sweep plus the session's
  // moment bookkeeping.
  std::vector<double> step;
  {
    const int steps = static_cast<int>(std::min<std::size_t>(sweep.size(), 64));
    const kpm::blas::BlockVector v0 = random_block(n, width, mix_seed(cfg.seed, 901));
    kpm::core::SweepSession session(h, s, v0, 2 * (steps + 2));
    session.advance(1);  // start-up step, untimed
    session.advance(1);  // warm-up
    for (int i = 0; i < steps && !session.done(); ++i) {
      Span span("core.SweepSession.advance");
      const double t0 = now_s();
      session.advance(1);
      step.push_back(now_s() - t0);
    }
  }
  out.put_layer("core.step_ms", 1e3 * median(step), "ms");
  out.put_layer("core.session_overhead", median(step) / sweep_s, "ratio");
  set_omp_threads(saved);
}

void run_dos_dram(const RunConfig& cfg, RunOutcome& out) {
  const int edge = cfg.toy ? 8 : 64;
  const int width = cfg.toy ? 8 : 32;
  const int moments = cfg.toy ? 16 : 32;
  const int setup_reps = cfg.toy ? 2 : 3;
  const int threads = omp_threads();
  const kpm::physics::TIParams p = ti_lattice(edge, edge, edge);
  out.notes["dos.lattice"] = std::to_string(edge) + "^3 periodic, N=" +
                             std::to_string(p.dimension());
  out.notes["dos.M_R"] = std::to_string(moments) + "," + std::to_string(width);

  spin_threads(threads, 0.3);
  record_threads(out, "start");

  // Set-up: assemble the operator and bound its spectrum.
  std::optional<kpm::sparse::CrsMatrix> h;
  kpm::physics::Scaling s;
  std::vector<double> setup, build, bounds;
  for (int rep = 0; rep < setup_reps; ++rep) {
    h.reset();
    const double t0 = now_s();
    {
      Span span("physics.build_ti_hamiltonian");
      h.emplace(kpm::physics::build_ti_hamiltonian(p));
    }
    const double t1 = now_s();
    {
      Span span("physics.lanczos_bounds");
      s = kpm::physics::make_scaling(kpm::physics::lanczos_bounds(*h), 0.05);
    }
    const double t2 = now_s();
    setup.push_back(t2 - t0);
    build.push_back(t1 - t0);
    bounds.push_back(t2 - t1);
  }
  out.notes["dos.working_set_mib"] = std::to_string(
      (h->nnz() * 20 + 3LL * h->nrows() * width * 16) >> 20);
  const ExactMoments exact = exact_moments(p, s, moments);

  if (cfg.trace) {
    out.put_layer("physics.build_s", median(build), "s");
    out.put_layer("physics.bounds_s", median(bounds), "s");
  }
  kpm::core::MomentParams mp;
  mp.num_moments = moments;
  mp.num_random = width;
  // One complete solve; returns its wall time (the check is not timed).
  const auto solve = [&](std::uint64_t stream, bool corrupt) {
    mp.seed = mix_seed(cfg.seed, stream);
    const double t0 = now_s();
    std::vector<double> mu;
    {
      Span span("core.moments_aug_spmmv");
      mu = kpm::core::moments_aug_spmmv(*h, s, mp).mu;
    }
    const double dt = now_s() - t0;
    if (corrupt) corrupt_moment(mu);
    ++out.attempted;
    check_moments(out, "dos solve " + std::to_string(stream), mu, exact, width);
    return dt;
  };

  (void)solve(0, cfg.corrupt);  // untimed warm-up
  std::vector<double> solve_s;
  const double t_begin = now_s();
  for (std::uint64_t i = 1; solve_s.size() < 3 || now_s() - t_begin < cfg.seconds; ++i) {
    solve_s.push_back(solve(i, false));
  }
  double total = 0.0;
  for (const double t : solve_s) total += t;
  record_threads(out, "end");
  // Three solves per run: the median is the only honest summary.
  put_end_to_end(out, setup, solve_s, solve_s,
                 static_cast<long long>(solve_s.size()), total, 50.0);

  if (cfg.trace) measure_kernel_layers(cfg, out, *h, s, width, threads);
}

}  // namespace perfbench
