// Traced setup: Hierarchy::build replayed phase by phase through the public
// AMG functions (strength, C/F splitting with coarsen_level_seed,
// interpolation, Galerkin product), then MgSetup(Hierarchy, opts). With the
// same options this builds the same hierarchy as MgSetup(CsrMatrix, opts);
// mirror_matches_build() checks that against a real build.

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "amg/coarsen.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "reqbench.hpp"
#include "sparse/kernels.hpp"
#include "sparse/spgemm.hpp"

namespace reqbench {

using namespace asyncmg;

MgOptions paper_options(double omega, int setup_threads) {
  MgOptions mo;
  mo.amg.coarsening = CoarsenAlgo::kHMIS;
  mo.amg.interpolation = InterpAlgo::kClassicalModified;
  mo.amg.num_aggressive_levels = 0;
  mo.amg.setup_threads = setup_threads;
  mo.amg.precision = PrecisionPolicy{};
  mo.smoother.type = SmootherType::kWeightedJacobi;
  mo.smoother.omega = omega;
  mo.smoother.num_blocks = 4;
  return mo;
}

Hierarchy mirrored_hierarchy(const CsrMatrix& a_fine, const AmgOptions& opts,
                             SpanLog* log, std::uint64_t parent,
                             std::uint64_t req) {
  if (opts.num_functions != 1 ||
      opts.coarsen_mode != CoarsenMode::kParallel) {
    throw std::invalid_argument(
        "mirrored_hierarchy: only the scalar, row-parallel build is mirrored");
  }
  std::vector<AmgLevel> levels;
  levels.push_back(AmgLevel{a_fine, {}, {}});
  for (Index lvl = 0; lvl + 1 < opts.max_levels; ++lvl) {
    const CsrMatrix& a = levels.back().a;
    if (a.rows() <= opts.coarse_size) break;

    CsrMatrix s;
    {
      Span sp(log, "amg.strength", parent, req);
      s = strength_matrix(a, opts.strength_theta, opts.strength_norm, 1,
                          opts.setup_threads);
    }
    const bool aggressive =
        lvl < static_cast<Index>(opts.num_aggressive_levels);
    Splitting split;
    {
      Span sp(log, "amg.coarsen", parent, req);
      CoarsenParams cp;
      cp.algo = opts.coarsening;
      cp.weights = opts.coarsen_weights;
      cp.seed = coarsen_level_seed(opts.seed, lvl);
      cp.num_threads = opts.setup_threads;
      split = coarsen_parallel(s, cp);
      if (aggressive) split = coarsen_aggressive_parallel(s, split, cp);
    }
    const Index nc = count_coarse(split);
    if (nc == 0 || nc >= a.rows() ||
        static_cast<double>(nc) >
            opts.max_coarsen_ratio * static_cast<double>(a.rows())) {
      break;
    }
    CsrMatrix p;
    {
      Span sp(log, "amg.interp", parent, req);
      const InterpAlgo algo =
          aggressive ? InterpAlgo::kMultipass : opts.interpolation;
      p = build_interpolation(algo, a, s, split, opts.setup_threads);
      p = truncate_interpolation(p, opts.trunc_factor, opts.setup_threads);
    }
    CsrMatrix ac;
    {
      Span sp(log, "amg.rap", parent, req);
      ac = galerkin_product(a, p, opts.setup_threads);
    }
    levels.back().p = std::move(p);
    levels.back().split = std::move(split);
    levels.push_back(AmgLevel{std::move(ac), {}, {}});
  }
  return Hierarchy::from_levels(std::move(levels));
}

std::shared_ptr<const MgSetup> traced_mgsetup(const CsrMatrix& a,
                                              const MgOptions& mo,
                                              SpanLog* log,
                                              std::uint64_t parent,
                                              std::uint64_t req) {
  Hierarchy h = mirrored_hierarchy(a, mo.amg, log, parent, req);
  Span sp(log, "multigrid.mgsetup", parent, req);
  return std::make_shared<const MgSetup>(std::move(h), mo);
}

Check mirror_matches_build(const CsrMatrix& a, const AmgOptions& opts) {
  const Hierarchy built = Hierarchy::build(a, opts);
  const Hierarchy mirrored = mirrored_hierarchy(a, opts, nullptr, 0, 0);
  Check c;
  c.name = "amg_mirror_matches_build";
  c.ok = built.num_levels() == mirrored.num_levels();
  for (std::size_t k = 0; c.ok && k < built.num_levels(); ++k) {
    const CsrMatrix& x = built.matrix(k);
    const CsrMatrix& y = mirrored.matrix(k);
    c.ok = x.rows() == y.rows() && x.nnz() == y.nnz() &&
           x.precision() == Precision::kF64 &&
           y.precision() == Precision::kF64 &&
           std::equal(x.values().begin(), x.values().end(),
                      y.values().begin());
  }
  c.detail = "levels built=" + std::to_string(built.num_levels()) +
             " mirrored=" + std::to_string(mirrored.num_levels());
  return c;
}

void record_shape(Result& r, const MgSetup& s) {
  if (r.layer.count("amg.levels") != 0) return;  // first (primary) setup
  r.layer["amg.levels"] = static_cast<double>(s.num_levels());
  r.layer["amg.operator_complexity"] = s.hierarchy().operator_complexity();
}

double drain_level0_seconds(TelemetrySink& sink) {
  std::map<std::int64_t, std::int64_t> open;  // phase -> begin ns
  double total = 0.0;
  for (const DrainedEvent& d : sink.drain()) {
    if (d.ev.b != 0) continue;  // level
    if (d.ev.kind == EventKind::kPhaseBegin) {
      open[d.ev.a] = d.ev.t;
    } else if (d.ev.kind == EventKind::kPhaseEnd) {
      const auto it = open.find(d.ev.a);
      if (it == open.end()) continue;
      total += static_cast<double>(d.ev.t - it->second) * 1e-9;
      open.erase(it);
    }
  }
  return total;
}

double level0_bytes_per_cycle(const MgSetup& s) {
  const double a_pass = s.sell(0) != nullptr
                            ? static_cast<double>(sell_pass_bytes(*s.sell(0)))
                            : static_cast<double>(csr_pass_bytes(s.a(0)));
  double bytes = 3.0 * a_pass;
  if (s.num_levels() > 1) {
    bytes += static_cast<double>(csr_pass_bytes(s.p(0)) +
                                 csr_pass_bytes(s.r(0)));
  }
  return bytes;
}

}  // namespace reqbench
