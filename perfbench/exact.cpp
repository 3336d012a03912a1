// Independent correctness checks: exact Chebyshev moments of the periodic,
// potential-free TI from its closed-form Bloch dispersion, the
// stochastic-trace error bound, and bitwise comparisons.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "bench.hpp"

namespace perfbench {

kpm::physics::TIParams ti_lattice(int nx, int ny, int nz) {
  kpm::physics::TIParams p;
  p.nx = nx;
  p.ny = ny;
  p.nz = nz;
  p.periodic_x = p.periodic_y = p.periodic_z = true;
  return p;
}

ExactMoments exact_moments(const kpm::physics::TIParams& p,
                           const kpm::physics::Scaling& s, int num_moments) {
  // H(k) = Gamma1 (2t - t sum_j cos k_j) + t sum_j Gamma_{j+1} sin k_j, so
  // every k carries +E(k) and -E(k), each twice, with
  // E(k) = sqrt((2t - t sum cos k_j)^2 + t^2 sum sin^2 k_j).
  ExactMoments out;
  out.mu.assign(static_cast<std::size_t>(num_moments), 0.0);
  const double pi = std::acos(-1.0);
  const double t = p.t;
  for (int ix = 0; ix < p.nx; ++ix) {
    const double kx = 2.0 * pi * ix / p.nx;
    for (int iy = 0; iy < p.ny; ++iy) {
      const double ky = 2.0 * pi * iy / p.ny;
      for (int iz = 0; iz < p.nz; ++iz) {
        const double kz = 2.0 * pi * iz / p.nz;
        const double mass = 2.0 * t - t * (std::cos(kx) + std::cos(ky) + std::cos(kz));
        const double kin = t * t *
                           (std::sin(kx) * std::sin(kx) + std::sin(ky) * std::sin(ky) +
                            std::sin(kz) * std::sin(kz));
        const double e = std::sqrt(mass * mass + kin);
        for (const double energy : {e, -e}) {
          const double x = s.a * (energy - s.b);
          out.max_abs_x = std::max(out.max_abs_x, std::abs(x));
          double prev = 1.0;
          double cur = x;
          out.mu[0] += 2.0;
          if (num_moments > 1) out.mu[1] += 2.0 * x;
          for (int m = 2; m < num_moments; ++m) {
            const double next = 2.0 * x * cur - prev;
            prev = cur;
            cur = next;
            out.mu[static_cast<std::size_t>(m)] += 2.0 * cur;
          }
        }
      }
    }
  }
  out.dimension = static_cast<double>(p.dimension());
  for (auto& m : out.mu) m /= out.dimension;
  return out;
}

void RunOutcome::fail_check(const std::string& what) {
  if (check_failures.size() < 20) check_failures.push_back(what);
  else if (check_failures.size() == 20) check_failures.push_back("...");
}

void check_moments(RunOutcome& out, const std::string& what,
                     const std::vector<double>& mu, const ExactMoments& exact,
                     int num_random) {
  if (exact.max_abs_x > 1.0) {
    out.fail_check(what + ": scaling does not enclose the exact spectrum");
    return;
  }
  if (mu.size() > exact.mu.size() || mu.empty()) {
    out.fail_check(what + ": unexpected moment count");
    return;
  }
  // mu_0 = (1/R) sum_r <v_r|v_r> of unit vectors: a sum of N rounded
  // products, so 1 to within 4 N eps.
  const double eps = std::numeric_limits<double>::epsilon();
  if (!(std::abs(mu[0] - 1.0) <= 4.0 * exact.dimension * eps)) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ": mu_0 = %.17g", mu[0]);
    out.fail_check(what + buf);
  }
  // Phase vectors: Var <v|A|v> = N^-2 sum_{i!=j} |A_ij|^2 <= ||A||^2 / N, and
  // ||T_m(H~)|| <= 1, so every moment's standard error is <= 1/sqrt(N R).
  const double scale = std::sqrt(exact.dimension * num_random);
  for (std::size_t m = 0; m < mu.size(); ++m) {
    const double dev = std::abs(mu[m] - exact.mu[m]) * scale;
    if (!(dev <= kTraceBoundC)) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    ": |mu_%zu - exact| * sqrt(NR) = %.3g > %.3g", m, dev,
                    kTraceBoundC);
      out.fail_check(what + buf);
      return;
    }
  }
}

bool check_bitwise(RunOutcome& out, const std::string& what,
                   const std::vector<double>& got,
                   const std::vector<double>& want) {
  const bool same = got.size() == want.size() &&
                    (got.empty() || std::memcmp(got.data(), want.data(),
                                                got.size() * sizeof(double)) == 0);
  if (!same) out.fail_check(what + ": not bitwise equal");
  return same;
}

void corrupt_moment(std::vector<double>& mu) {
  if (mu.size() > 2) mu[mu.size() / 2] += 0.5;
}

}  // namespace perfbench
