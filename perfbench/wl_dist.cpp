// Workload dist_elastic: 4 in-process ranks, one OpenMP thread each, drive
// runtime::ElasticRuntime on a bar-shaped periodic TI lattice partitioned
// along its long axis, with a fixed halo depth > 1, a checkpoint at every
// commit and one kill+replace mid-solve.  `runtime` (halo plan, message
// rounds, allreduce) and `runtime.elastic` (chunk commits, checkpoints,
// recovery) do the work.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/moments.hpp"
#include "runtime/comm.hpp"
#include "runtime/dist_kpm.hpp"
#include "runtime/dist_matrix.hpp"
#include "runtime/elastic.hpp"

namespace perfbench {
namespace {

namespace rt = kpm::runtime;

constexpr int kRanks = 4;

struct Shape {
  int nxy = 8;
  int nz = 256;
  int width = 32;
  int moments = 128;
  int halo_depth = 4;
  int chunk_sweeps = 32;
  int kill_sweep = 45;
  int kill_rank = 2;
  int setup_reps = 5;
};

Shape shape_of(const RunConfig& cfg) {
  Shape sh;
  if (cfg.toy) {
    sh.nxy = 3;
    sh.nz = 32;
    sh.width = 4;
    sh.moments = 16;
    sh.kill_sweep = 5;
    sh.setup_reps = 2;
  }
  return sh;
}

/// Builds the distributed plan on every rank; returns the slowest rank's
/// DistributedMatrix construction time.
double plan_seconds(const kpm::sparse::CrsMatrix& h, int depth) {
  const auto part = rt::RowPartition::uniform(h.nrows(), kRanks);
  std::vector<double> t(kRanks, 0.0);
  rt::run_ranks(kRanks, [&](rt::Communicator& c) {
    rt::DistMatrixOptions o;
    o.halo_depth = depth;
    c.barrier();
    Span span("runtime.DistributedMatrix");
    const double t0 = now_s();
    rt::DistributedMatrix dist(c, h, part, o);
    t[static_cast<std::size_t>(c.rank())] = now_s() - t0;
  });
  return *std::max_element(t.begin(), t.end());
}

struct DistSolve {
  std::vector<double> mu;
  double seconds = 0.0;
  std::int64_t messages = 0;
  std::int64_t reductions = 0;
  std::int64_t halo_bytes = 0;
  std::int64_t frontier_rows = 0;
};

/// Plain distributed_moments at `depth` on the uniform partition; the
/// timing spans the solve on every rank (barrier to barrier).
DistSolve distributed(const kpm::sparse::CrsMatrix& h, const kpm::physics::Scaling& s,
                      const kpm::core::MomentParams& mp, int depth) {
  const auto part = rt::RowPartition::uniform(h.nrows(), kRanks);
  rt::MessageHub hub(kRanks);
  DistSolve out;
  std::vector<rt::DistMomentsResult> res(kRanks);
  double t0 = 0.0, t1 = 0.0;
  std::int64_t msg0 = 0, red0 = 0;
  rt::run_ranks(hub, [&](rt::Communicator& c) {
    rt::DistMatrixOptions o;
    o.halo_depth = depth;
    rt::DistributedMatrix dist(c, h, part, o);
    c.barrier();
    if (c.rank() == 0) {
      msg0 = hub.messages_sent();
      red0 = hub.reduction_count();
      t0 = now_s();
    }
    {
      Span span(depth == 1 ? "runtime.distributed_moments.depth1"
                           : "runtime.distributed_moments.depthS");
      res[static_cast<std::size_t>(c.rank())] = rt::distributed_moments(c, dist, s, mp);
    }
    c.barrier();
    if (c.rank() == 0) t1 = now_s();
  });
  out.mu = res[0].mu;
  out.seconds = t1 - t0;
  out.messages = hub.messages_sent() - msg0;
  out.reductions = hub.reduction_count() - red0;
  for (const auto& r : res) {
    out.halo_bytes += r.halo_bytes_sent;
    out.frontier_rows += r.frontier_rows_computed;
  }
  return out;
}

}  // namespace

void run_dist_elastic(const RunConfig& cfg, RunOutcome& out) {
  const Shape sh = shape_of(cfg);
  const kpm::physics::TIParams p = ti_lattice(sh.nxy, sh.nxy, sh.nz);
  out.notes["dist.lattice"] = std::to_string(sh.nxy) + "x" + std::to_string(sh.nxy) +
                              "x" + std::to_string(sh.nz) + " periodic, N=" +
                              std::to_string(p.dimension());
  out.notes["dist.config"] =
      "ranks=4 M=" + std::to_string(sh.moments) + " R=" + std::to_string(sh.width) +
      " halo_depth=" + std::to_string(sh.halo_depth) +
      " chunk_sweeps=" + std::to_string(sh.chunk_sweeps) +
      " kill=rank" + std::to_string(sh.kill_rank) + "@sweep" + std::to_string(sh.kill_sweep);

  // Rank threads take their OpenMP team size from OMP_NUM_THREADS; wake one
  // vCPU per rank before the set-up clock starts.
  spin_threads(kRanks, 0.3);
  record_threads(out, "start");

  // Set-up: operator, spectral bounds and the depth-s distributed plan.
  std::optional<kpm::sparse::CrsMatrix> h;
  kpm::physics::Scaling s;
  std::vector<double> setup, build, bounds, plan;
  for (int rep = 0; rep < sh.setup_reps; ++rep) {
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
    plan.push_back(plan_seconds(*h, sh.halo_depth));
    setup.push_back(now_s() - t0);
    build.push_back(t1 - t0);
    bounds.push_back(t2 - t1);
  }
  const ExactMoments exact = exact_moments(p, s, sh.moments);

  kpm::core::MomentParams mp;
  mp.num_moments = sh.moments;
  mp.num_random = sh.width;
  mp.seed = mix_seed(cfg.seed, 200);

  const std::string ckpt = cfg.out_dir + "/dist_elastic.ckpt";
  const auto elastic = [&](bool checkpoints, bool kill) {
    rt::ElasticOptions o;
    o.chunk_sweeps = sh.chunk_sweeps;
    o.halo_depth = sh.halo_depth;
    o.speculate = false;
    if (checkpoints) o.checkpoint_path = ckpt;
    if (kill) {
      o.events.push_back({rt::ElasticEvent::Kind::fail, sh.kill_sweep, sh.kill_rank});
    }
    Span span("elastic.run");
    const double t0 = now_s();
    rt::ElasticRuntime runtime(*h, s, mp, o);
    auto res = runtime.run(kRanks);
    return std::make_pair(std::move(res), now_s() - t0);
  };

  // Reference: the uninterrupted depth-1 distributed solve, same partition.
  const DistSolve ref = distributed(*h, s, mp, 1);
  ++out.attempted;
  check_moments(out, "depth-1 reference", ref.mu, exact, sh.width);

  // Warm-up, then timed solves; each includes its checkpoints and recovery.
  const auto checked = [&](const rt::ElasticResult& r, const std::string& what,
                           bool corrupt) {
    std::vector<double> mu = r.mu;
    if (corrupt) corrupt_moment(mu);
    ++out.attempted;
    check_bitwise(out, what + " vs depth-1 distributed_moments", mu, ref.mu);
    check_moments(out, what, mu, exact, sh.width);
    if (r.report.failures_recovered != 1) out.fail_check(what + ": kill was not recovered");
  };
  {
    const auto [res, dt] = elastic(true, true);
    checked(res, "elastic warm-up", cfg.corrupt);
  }
  std::vector<double> solve_s;
  rt::ElasticReport report;
  long long ckpt_bytes = 0;
  const double window = cfg.probe ? std::min(cfg.seconds, 2.0) : cfg.seconds;
  const double t_begin = now_s();
  while (solve_s.size() < 3 || now_s() - t_begin < window) {
    const auto [res, dt] = elastic(true, true);
    solve_s.push_back(dt);
    checked(res, "elastic solve " + std::to_string(solve_s.size()), false);
    report = res.report;
  }
  if (std::FILE* f = std::fopen(ckpt.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    ckpt_bytes = std::ftell(f);
    std::fclose(f);
  }
  std::remove(ckpt.c_str());
  record_threads(out, "end");

  if (!cfg.probe) {
    double total = 0.0;
    for (const double t : solve_s) total += t;
    // Fewer than forty solves per run: the median is the only honest tail.
    put_end_to_end(out, setup, solve_s, solve_s,
                   static_cast<long long>(solve_s.size()), total, 50.0);
  }
  if (!cfg.trace) return;

  // runtime layer: plan, per-sweep cost at depth 1 and depth s, counts.
  const double sweeps = sh.moments / 2.0;
  std::vector<double> d1, ds;
  DistSolve last;
  for (int rep = 0; rep < 3; ++rep) {
    d1.push_back(distributed(*h, s, mp, 1).seconds);
    last = distributed(*h, s, mp, sh.halo_depth);
    check_bitwise(out, "depth-s distributed_moments", last.mu, ref.mu);
    ds.push_back(last.seconds);
  }
  out.put_layer("runtime.plan_s", median(plan), "s");
  out.put_layer("runtime.sweep_ms.depth1", 1e3 * median(d1) / sweeps, "ms");
  out.put_layer("runtime.sweep_ms.depthS", 1e3 * median(ds) / sweeps, "ms");
  out.put_layer("runtime.messages_per_sweep", static_cast<double>(last.messages) / sweeps,
                "count");
  out.put_layer("runtime.halo_bytes_per_sweep",
                static_cast<double>(last.halo_bytes) / sweeps, "B");
  out.put_layer("runtime.frontier_rows_per_sweep",
                static_cast<double>(last.frontier_rows) / sweeps, "rows");
  out.put_layer("runtime.reductions", static_cast<double>(last.reductions), "count");

  // The same solve serially, with the same total thread count.
  const int saved = omp_threads();
  set_omp_threads(kRanks);
  std::vector<double> serial;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("core.moments_aug_spmmv.serial");
    const double t0 = now_s();
    const auto mu = kpm::core::moments_aug_spmmv(*h, s, mp).mu;
    serial.push_back(now_s() - t0);
    check_moments(out, "serial solve", mu, exact, sh.width);
  }
  out.put_layer("runtime.dist_over_serial", median(ds) / median(serial), "ratio");

  // elastic layer: the same elastic solve with and without checkpoints and
  // the kill, interleaved so host drift hits every variant alike.
  std::vector<double> plain, with_ckpt, with_kill;
  for (int rep = 0; rep < 3; ++rep) {
    plain.push_back(elastic(false, false).second);
    with_ckpt.push_back(elastic(true, false).second);
    with_kill.push_back(elastic(false, true).second);
  }
  std::remove(ckpt.c_str());
  out.put_layer("elastic.checkpoint_s", median(with_ckpt) - median(plain), "s");
  out.put_layer("elastic.recovery_s", median(with_kill) - median(plain), "s");
  out.put_layer("elastic.checkpoint_mb", static_cast<double>(ckpt_bytes) / (1 << 20), "MiB");
  out.put_layer("elastic.epochs", report.epochs, "count");
  out.put_layer("elastic.chunks_committed", report.chunks_committed, "count");

  if (!cfg.probe) {
    out.put_layer("physics.build_s", median(build), "s");
    out.put_layer("physics.bounds_s", median(bounds), "s");
    measure_kernel_layers(cfg, out, *h, s, sh.width, kRanks);
  }
  set_omp_threads(saved);
}

}  // namespace perfbench
