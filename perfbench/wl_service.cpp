// Workload service_mix: a closed loop that keeps a fixed number of
// independent jobs in flight against two registered TI models of different
// sizes, both LLC-resident.  Jobs vary M and R, and a seeded share of them
// repeat an earlier request exactly, so service batching, lane compaction and
// the ResultCache do the work.  One generator thread (this one) drives it.
#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "blas/block_vector.hpp"
#include "core/moments.hpp"
#include "service/service.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

namespace svc = kpm::service;

struct Model {
  std::string key;
  kpm::physics::TIParams p;
  kpm::physics::Scaling s;
  ExactMoments exact;
};

struct Shape {
  std::vector<int> edges;  ///< cubic lattice edge of each model
  std::vector<int> moments;
  std::vector<int> widths;
  int in_flight = 64;
  int repeats = 4;  ///< repeats per block (a block also holds every fresh shape once)
  int setup_reps = 5;
  double warmup_s = 2.0;
};

Shape shape_of(const RunConfig& cfg) {
  Shape sh;
  if (cfg.toy) {
    sh.edges = {6, 8};
    sh.moments = {16, 32};
    sh.widths = {1, 2, 4};
    sh.in_flight = 16;
    sh.repeats = 3;
    sh.setup_reps = 2;
    sh.warmup_s = 0.2;
  } else {
    sh.edges = {20, 24};
    sh.moments = {128, 256};
    sh.widths = {1, 2, 4, 8};
  }
  return sh;
}

struct InFlight {
  std::shared_ptr<svc::Job> job;
  std::size_t model = 0;
  double t_submit = 0.0;
};

struct Done {
  svc::JobRequest req;
  std::size_t model = 0;
  std::shared_ptr<svc::Job> job;
  double latency = 0.0;
  bool in_window = false;
};

/// Deterministic job mix in blocks: every block holds each fresh shape
/// (model x M x R) once plus `sh.repeats` repeats of already-delivered
/// requests, in a seeded order, so the work per block is fixed and only its
/// order and the vector seeds depend on the seed.
class JobMix {
 public:
  JobMix(const Shape& sh, std::uint64_t seed) : sh_(sh), rng_(mix_seed(seed, 100)) {}

  /// Next request and its model index.
  std::pair<svc::JobRequest, std::size_t> next(
      const std::vector<std::pair<svc::JobRequest, std::size_t>>& delivered,
      const std::vector<Model>& models) {
    if (next_ == block_.size()) {
      block_.clear();
      for (std::size_t m = 0; m < models.size(); ++m) {
        for (const int moments : sh_.moments) {
          for (const int width : sh_.widths) block_.push_back({m, moments, width});
        }
      }
      for (int i = 0; i < sh_.repeats; ++i) block_.push_back({kRepeat, 0, 0});
      std::shuffle(block_.begin(), block_.end(), rng_);
      next_ = 0;
    }
    const Slot slot = block_[next_++];
    const std::uint64_t draw = rng_();
    if (slot.model == kRepeat && !delivered.empty()) {
      return delivered[draw % delivered.size()];
    }
    const std::size_t m = slot.model == kRepeat ? draw % models.size() : slot.model;
    svc::JobRequest req;
    req.model = models[m].key;
    req.num_moments = slot.model == kRepeat ? sh_.moments.front() : slot.moments;
    req.num_random = slot.model == kRepeat ? sh_.widths.front() : slot.width;
    req.seed = draw;
    return {req, m};
  }

 private:
  static constexpr std::size_t kRepeat = static_cast<std::size_t>(-1);
  struct Slot {
    std::size_t model;
    int moments;
    int width;
  };
  const Shape& sh_;
  std::mt19937_64 rng_;
  std::vector<Slot> block_;
  std::size_t next_ = 0;
};

std::string bits_key(const svc::JobRequest& r) { return svc::job_cache_key(r); }

}  // namespace

void run_service_mix(const RunConfig& cfg, RunOutcome& out) {
  const Shape sh = shape_of(cfg);
  const int team = omp_threads();
  // One worker per OpenMP team that fits the CPUs (run.py sets the team size).
  svc::ServiceConfig sc;
  sc.num_workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) / team);
  sc.max_batch_width = 32;
  sc.chunk_moments = 64;
  out.notes["service.config"] =
      "workers=" + std::to_string(sc.num_workers) + " omp_per_worker=" +
      std::to_string(team) + " max_batch_width=32 chunk_moments=64 in_flight=" +
      std::to_string(sh.in_flight);
  const int max_m = *std::max_element(sh.moments.begin(), sh.moments.end());

  spin_threads(sc.num_workers * team, 0.3);
  record_threads(out, "start");

  // Set-up: build both operators, bound their spectra, start the service
  // and register them.
  std::vector<Model> models;
  std::unique_ptr<svc::KpmService> service;
  std::vector<double> setup, build, bounds, reg;
  for (int rep = 0; rep < sh.setup_reps; ++rep) {
    service.reset();
    models.clear();
    double t_build = 0.0, t_bounds = 0.0, t_reg = 0.0;
    const double t0 = now_s();
    service = std::make_unique<svc::KpmService>(sc);
    for (const int edge : sh.edges) {
      Model m;
      m.key = "ti" + std::to_string(edge);
      m.p = ti_lattice(edge, edge, edge);
      const double a = now_s();
      std::optional<kpm::sparse::CrsMatrix> h;
      {
        Span span("physics.build_ti_hamiltonian");
        h.emplace(kpm::physics::build_ti_hamiltonian(m.p));
      }
      const double b = now_s();
      {
        Span span("physics.lanczos_bounds");
        m.s = kpm::physics::make_scaling(kpm::physics::lanczos_bounds(*h), 0.05);
      }
      const double c = now_s();
      {
        Span span("service.register_model");
        service->register_model(m.key, std::move(*h), m.s);
      }
      const double d = now_s();
      t_build += b - a;
      t_bounds += c - b;
      t_reg += d - c;
      models.push_back(std::move(m));
    }
    setup.push_back(now_s() - t0);
    build.push_back(t_build);
    bounds.push_back(t_bounds);
    reg.push_back(t_reg);
  }
  for (auto& m : models) m.exact = exact_moments(m.p, m.s, max_m);

  // Closed loop.
  JobMix mix(sh, cfg.seed);
  std::vector<std::pair<svc::JobRequest, std::size_t>> delivered;
  std::deque<InFlight> flight;
  std::vector<Done> done;
  std::vector<double> submit_s;
  const double warm_end = now_s() + sh.warmup_s;
  const double window = cfg.probe ? std::min(cfg.seconds, 3.0) : cfg.seconds;
  double t_window = 0.0;
  svc::ServiceStats stats0;
  svc::ServiceStats stats1;
  int phase = 0;  // 0 warm-up, 1 timed window, 2 drain

  const auto submit_one = [&] {
    auto [req, m] = mix.next(delivered, models);
    InFlight f;
    f.model = m;
    f.t_submit = now_s();
    {
      Span span("service.submit");
      f.job = service->submit(req);
    }
    submit_s.push_back(now_s() - f.t_submit);
    ++out.attempted;
    flight.push_back(std::move(f));
  };
  const auto reap = [&] {
    for (auto it = flight.begin(); it != flight.end();) {
      const auto st = it->job->status();
      if (st == svc::JobStatus::queued || st == svc::JobStatus::running) {
        ++it;
        continue;
      }
      Done d;
      d.req = it->job->request();
      d.model = it->model;
      d.latency = it->job->latency_seconds();
      const double finish = it->t_submit + d.latency;
      d.in_window = t_window > 0.0 && finish >= t_window && finish < t_window + window;
      d.job = it->job;
      if (st == svc::JobStatus::done) {
        delivered.emplace_back(d.req, d.model);
      } else {
        ++out.failed;
      }
      done.push_back(std::move(d));
      it = flight.erase(it);
    }
  };

  while (true) {
    const double now = now_s();
    if (phase == 0 && now >= warm_end) {
      phase = 1;
      t_window = now;
      stats0 = service->stats();
    } else if (phase == 1 && now >= t_window + window) {
      phase = 2;
      stats1 = service->stats();
    }
    if (phase < 2) {
      while (static_cast<int>(flight.size()) < sh.in_flight) submit_one();
    }
    if (flight.empty()) break;
    {
      Span span("service.wait_oldest");
      flight.front().job->wait();
    }
    reap();
  }
  record_threads(out, "end");

  // Checks (untimed): every delivered job against the exact spectrum, every
  // repeat against the first delivery's bits, and a sample of coalesced jobs
  // against solo core::moments_of_block on the block their seed generates.
  std::unordered_map<std::string, std::shared_ptr<svc::Job>> first;
  std::vector<double> lat, miss, hit;
  long long in_window = 0;
  bool corrupted = !cfg.corrupt;
  std::vector<const Done*> sample;
  std::vector<int> sampled(models.size(), 0);
  for (const Done& d : done) {
    if (d.job->status() != svc::JobStatus::done) continue;
    const auto& res = d.job->result();
    std::vector<double> mu = res.mu;
    if (!corrupted) {
      corrupt_moment(mu);
      corrupted = true;
    }
    check_moments(out, "job " + bits_key(d.req), mu, models[d.model].exact,
                  d.req.num_random);
    const auto [it, fresh] = first.try_emplace(bits_key(d.req), d.job);
    if (!fresh) {
      const auto& ref = it->second->result();
      check_bitwise(out, "repeat " + bits_key(d.req), res.mu, ref.mu);
      for (std::size_t r = 0; r < res.per_vector.size(); ++r) {
        check_bitwise(out, "repeat lane " + bits_key(d.req), res.per_vector[r],
                      ref.per_vector[r]);
      }
    }
    if (!d.job->from_cache() && d.job->batch_width() > d.req.num_random &&
        sampled[d.model] < 2 && d.in_window) {
      ++sampled[d.model];
      sample.push_back(&d);
    }
    if (d.in_window) {
      ++in_window;
      lat.push_back(d.latency);
      (d.job->from_cache() ? hit : miss).push_back(d.latency);
    }
  }
  for (const Done* d : sample) {
    const Model& m = models[d->model];
    const auto h = kpm::physics::build_ti_hamiltonian(m.p);
    kpm::RandomVectorSource rng(d->req.seed, d->req.vector_kind);
    kpm::blas::BlockVector v0(h.nrows(), d->req.num_random);
    kpm::aligned_vector<kpm::complex_t> col(static_cast<std::size_t>(h.nrows()));
    for (int r = 0; r < d->req.num_random; ++r) {
      rng.fill(col);
      v0.set_column(r, col);
    }
    const auto solo = kpm::core::moments_of_block(h, m.s, v0, d->req.num_moments);
    const auto& res = d->job->result();
    for (int r = 0; r < d->req.num_random; ++r) {
      check_bitwise(out, "coalesced vs solo " + bits_key(d->req),
                    res.per_vector[static_cast<std::size_t>(r)],
                    solo[static_cast<std::size_t>(r)]);
    }
  }
  if (sample.empty() && !cfg.toy) out.fail_check("no coalesced job to sample");
  out.notes["service.jobs_checked"] = std::to_string(done.size());
  out.notes["service.coalesced_sampled"] = std::to_string(sample.size());

  if (!cfg.probe) {
    // ~280 jobs in a 15 s run: p95 leaves at least ten beyond.
    put_end_to_end(out, setup, miss, lat, in_window, window, 95.0);
  }
  if (cfg.trace) {
    const auto d = [](long long a, long long b) { return static_cast<double>(a - b); };
    out.put_layer("service.register_s", median(reg), "s");
    out.put_layer("service.submit_us", 1e6 * median(submit_s), "us");
    out.put_layer("service.hit_ms", 1e3 * median(hit), "ms");
    out.put_layer("service.miss_ms", 1e3 * median(miss), "ms");
    out.put_layer("service.lanes_per_step",
                  d(stats1.lanes_swept, stats0.lanes_swept) /
                      d(stats1.sweep_steps, stats0.sweep_steps),
                  "lanes");
    out.put_layer("service.coalesce_ratio",
                  d(stats1.solo_steps, stats0.solo_steps) /
                      d(stats1.sweep_steps, stats0.sweep_steps),
                  "ratio");
    out.put_layer("service.cache_hit_ratio",
                  d(stats1.cache_hits, stats0.cache_hits) /
                      d(stats1.submitted, stats0.submitted),
                  "ratio");
    out.put_layer("service.batches", d(stats1.batches, stats0.batches), "count");
  }
  if (cfg.trace && !cfg.probe) {
    out.put_layer("physics.build_s", median(build), "s");
    out.put_layer("physics.bounds_s", median(bounds), "s");
    // Kernel layers on the larger model at the full batch width.
    const Model& m = models.back();
    service.reset();
    measure_kernel_layers(cfg, out, kpm::physics::build_ti_hamiltonian(m.p), m.s,
                          sc.max_batch_width, sc.num_workers * team);
  }
}

}  // namespace perfbench
