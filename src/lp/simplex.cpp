#include "lp/simplex.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "core/check.hpp"
#include "core/error.hpp"
#include "core/fault.hpp"
#include "obs/phase.hpp"

namespace mts {

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::Optimal: return "optimal";
    case LpStatus::Infeasible: return "infeasible";
    case LpStatus::Unbounded: return "unbounded";
    case LpStatus::IterationLimit: return "iteration-limit";
    case LpStatus::Numerical: return "numerical";
  }
  return "unknown";
}

namespace {

/// Iteration cap across both phases; the covering LPs the attacks pose
/// finish in a few hundred pivots.
constexpr std::size_t kMaxIterations = 20000;
/// Switch from Dantzig to Bland pricing after this many consecutive
/// degenerate pivots.
constexpr std::size_t kBlandAfterStalls = 64;
constexpr double kTolerance = 1e-9;

/// Dense tableau with an explicit objective row.  Rows 0..m-1 are
/// constraints; `obj` is the reduced-cost row; `rhs` the right-hand sides.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0), obj_(cols, 0.0), rhs_(rows, 0.0) {}

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::vector<double>& obj() { return obj_; }
  std::vector<double>& rhs() { return rhs_; }
  double& obj_value() { return obj_value_; }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  /// Validates that `basis` names a legal basis for this tableau: indices
  /// in range and distinct, each basic column a unit column (1 in its own
  /// row, 0 elsewhere), basic reduced costs zero, and all RHS entries
  /// non-negative.  Throws InvariantViolation on the first failure.
  void check_invariants(const std::vector<std::size_t>& basis) const {
    constexpr double kTol = 1e-6;
    enforce_invariant(basis.size() == rows_, "simplex basis size != row count");
    std::vector<std::uint8_t> used(cols_, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t b = basis[r];
      enforce_invariant(b < cols_, "simplex basis column out of range");
      enforce_invariant(!used[b], "simplex basis repeats column " + std::to_string(b));
      used[b] = 1;
      for (std::size_t r2 = 0; r2 < rows_; ++r2) {
        const double expected = r2 == r ? 1.0 : 0.0;
        enforce_invariant(std::abs(at(r2, b) - expected) <= kTol,
                          "simplex basic column " + std::to_string(b) +
                              " is not a unit column at row " + std::to_string(r2));
      }
      enforce_invariant(std::abs(obj_[b]) <= kTol,
                        "simplex basic column " + std::to_string(b) +
                            " has nonzero reduced cost");
      enforce_invariant(rhs_[r] >= -kTol * (1.0 + std::abs(rhs_[r])),
                        "simplex RHS negative at row " + std::to_string(r));
    }
  }

  /// Gauss-Jordan pivot on (pr, pc), including objective row.  Only the
  /// pivot row's nonzero columns are updated elsewhere: a skipped update
  /// would compute x - factor * 0, which is x except that a -0.0 would
  /// become +0.0, and no pricing step, ratio test or solution reads the
  /// sign of a zero.  So the pivot sequence matches a dense update's.
  void pivot(std::size_t pr, std::size_t pc) {
    const double inv = 1.0 / at(pr, pc);
    double* const pivot_row = &data_[pr * cols_];
    pivot_nonzeros_.clear();
    for (std::size_t c = 0; c < cols_; ++c) {
      pivot_row[c] *= inv;
      if (pivot_row[c] != 0.0) pivot_nonzeros_.push_back(c);
    }
    rhs_[pr] *= inv;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      double* const row = &data_[r * cols_];
      const double factor = row[pc];
      if (factor == 0.0) continue;
      for (const std::size_t c : pivot_nonzeros_) row[c] -= factor * pivot_row[c];
      row[pc] = 0.0;  // cancel rounding residue exactly
      rhs_[r] -= factor * rhs_[pr];
    }
    const double obj_factor = obj_[pc];
    if (obj_factor != 0.0) {
      for (const std::size_t c : pivot_nonzeros_) obj_[c] -= obj_factor * pivot_row[c];
      obj_[pc] = 0.0;
      obj_value_ -= obj_factor * rhs_[pr];
    }
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> data_;
  std::vector<double> obj_;
  std::vector<double> rhs_;
  double obj_value_ = 0.0;
  std::vector<std::size_t> pivot_nonzeros_;  // pivot()'s reused column list
};

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit };

/// Tableau validation runs when the caller opts in, and unconditionally in
/// MTS_ENABLE_DCHECKS builds.
bool invariant_checks_enabled(const LpOptions& options) {
#if defined(MTS_ENABLE_DCHECKS)
  static_cast<void>(options);
  return true;
#else
  return options.check_invariants;
#endif
}

/// Runs simplex iterations on `t` until optimality.  Only columns below
/// `enterable` may enter the basis (phase 2 bars the artificials, which sit
/// last).  `basis[r]` tracks basic columns.  `degenerate` accumulates the
/// number of zero-progress (stalled) pivots.
PhaseOutcome run_phase(Tableau& t, std::vector<std::size_t>& basis, std::size_t enterable,
                       const LpOptions& options, std::size_t& iterations,
                       std::size_t& degenerate) {
  const bool validate = invariant_checks_enabled(options);
  std::size_t stalls = 0;
  while (true) {
    if (iterations >= kMaxIterations) return PhaseOutcome::IterationLimit;
    switch (MTS_FAULT_ACTION("lp.pivot")) {
      case fault::Action::Throw:
        fault::throw_injected("lp.pivot", fault::Action::Throw);
      case fault::Action::Nan:
        // Poison one RHS entry; the solve still terminates (NaN comparisons
        // are all false) and either the post-solve finiteness validation
        // reports LpStatus::Numerical or, in MTS_ENABLE_DCHECKS builds,
        // check_invariants throws InvariantViolation first.
        if (!t.rhs().empty()) t.rhs()[0] = std::numeric_limits<double>::quiet_NaN();
        break;
      case fault::Action::Limit:
        return PhaseOutcome::IterationLimit;
      case fault::Action::Stall:
        fault::stall();
        break;
      case fault::Action::None:
        break;
    }

    const bool use_bland = stalls >= kBlandAfterStalls;
    std::size_t entering = t.cols();
    double best = -kTolerance;
    for (std::size_t c = 0; c < enterable; ++c) {
      const double reduced = t.obj()[c];
      if (use_bland) {
        if (reduced < -kTolerance) {
          entering = c;
          break;
        }
      } else if (reduced < best) {
        best = reduced;
        entering = c;
      }
    }
    if (entering == t.cols()) return PhaseOutcome::Optimal;

    std::size_t leaving = t.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double coeff = t.at(r, entering);
      if (coeff <= kTolerance) continue;
      const double ratio = t.rhs()[r] / coeff;
      if (ratio < best_ratio - kTolerance ||
          (ratio < best_ratio + kTolerance && leaving < t.rows() &&
           basis[r] < basis[leaving])) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == t.rows()) return PhaseOutcome::Unbounded;
    // One charge per pivot, the unit lp.pivots counts.
    if (options.budget != nullptr) options.budget->charge_lp_pivots(1);

    if (best_ratio < kTolerance) {
      ++stalls;
      ++degenerate;
    } else {
      stalls = 0;
    }

    t.pivot(leaving, entering);
    basis[leaving] = entering;
    if (validate) t.check_invariants(basis);
    ++iterations;
  }
}

/// Flushes one solve's counters on every return path.
struct LpCounterFlush {
  const std::size_t& iterations;
  const std::size_t& degenerate;
  bool phase1 = false;

  ~LpCounterFlush() {
    static const obs::CounterId kSolves = obs::MetricsRegistry::instance().counter("lp.solves");
    static const obs::CounterId kPivots = obs::MetricsRegistry::instance().counter("lp.pivots");
    static const obs::CounterId kDegenerate =
        obs::MetricsRegistry::instance().counter("lp.degenerate_pivots");
    static const obs::CounterId kBuilds =
        obs::MetricsRegistry::instance().counter("lp.tableau_builds");
    static const obs::CounterId kPhase1 =
        obs::MetricsRegistry::instance().counter("lp.phase1_solves");
    static const obs::HistogramId kIterations =
        obs::MetricsRegistry::instance().histogram("lp.iterations_per_solve");
    obs::add(kSolves);
    obs::add(kPivots, iterations);
    obs::add(kDegenerate, degenerate);
    obs::add(kBuilds);
    if (phase1) obs::add(kPhase1);
    obs::observe(kIterations, static_cast<double>(iterations));
  }
};

}  // namespace

LpResult solve_lp(const CoveringProblem& problem, const LpOptions& options) {
  obs::ScopedPhase phase("lp");
  const std::size_t n = problem.costs.size();
  const std::size_t m = problem.sets.size();

  // Column layout: [0, n) structural, then one surplus per row, then one
  // artificial per row.  The artificials form the starting basis.
  const std::size_t first_artificial = n + m;
  const std::size_t total_cols = first_artificial + m;
  Tableau tableau(m, total_cols);
  std::vector<std::size_t> basis(m);
  for (std::size_t r = 0; r < m; ++r) {
    for (const std::size_t j : problem.sets[r]) {
      require(j < n, "solve_lp: constraint index out of range");
      tableau.at(r, j) += 1.0;
    }
    tableau.rhs()[r] = 1.0;
    tableau.at(r, n + r) = -1.0;  // surplus
    tableau.at(r, first_artificial + r) = 1.0;
    basis[r] = first_artificial + r;
  }

  LpResult result;
  std::size_t iterations = 0;
  std::size_t degenerate = 0;
  LpCounterFlush flush{iterations, degenerate};
  if (invariant_checks_enabled(options)) tableau.check_invariants(basis);

  // ---- Phase 1: minimize sum of artificials.
  if (m > 0) {
    flush.phase1 = true;
    for (std::size_t c = 0; c < total_cols; ++c) {
      tableau.obj()[c] = c >= first_artificial ? 1.0 : 0.0;
    }
    tableau.obj_value() = 0.0;
    // Price out the initial (all-artificial) basis.
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < total_cols; ++c) tableau.obj()[c] -= tableau.at(r, c);
      tableau.obj_value() -= tableau.rhs()[r];
    }
    const auto outcome = run_phase(tableau, basis, total_cols, options, iterations, degenerate);
    result.iterations = iterations;
    if (outcome == PhaseOutcome::IterationLimit) {
      result.status = LpStatus::IterationLimit;
      result.limit_phase = 1;
      return result;
    }
    // Phase-1 objective value = -obj_value() (obj_value accumulates -z).
    const double artificial_sum = -tableau.obj_value();
    if (artificial_sum > 1e-7) {
      result.status = LpStatus::Infeasible;
      return result;
    }
    // Drive any basic artificial (at value 0) out of the basis if possible.
    for (std::size_t r = 0; r < m; ++r) {
      if (basis[r] < first_artificial) continue;
      for (std::size_t c = 0; c < first_artificial; ++c) {
        if (std::abs(tableau.at(r, c)) > kTolerance) {
          tableau.pivot(r, c);
          basis[r] = c;
          break;
        }
      }
      // A fully zero row is redundant; its artificial stays basic at 0 and
      // is simply barred from re-entering in phase 2.
    }
  }

  // ---- Phase 2: true objective.
  for (std::size_t c = 0; c < total_cols; ++c) {
    tableau.obj()[c] = c < n ? problem.costs[c] : 0.0;
  }
  tableau.obj_value() = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const std::size_t b = basis[r];
    const double cost = b < n ? problem.costs[b] : 0.0;
    if (cost == 0.0) continue;
    for (std::size_t c = 0; c < total_cols; ++c) tableau.obj()[c] -= cost * tableau.at(r, c);
    tableau.obj_value() -= cost * tableau.rhs()[r];
  }
  const auto outcome =
      run_phase(tableau, basis, first_artificial, options, iterations, degenerate);
  result.iterations = iterations;
  switch (outcome) {
    case PhaseOutcome::IterationLimit:
      result.status = LpStatus::IterationLimit;
      result.limit_phase = 2;
      return result;
    case PhaseOutcome::Unbounded: result.status = LpStatus::Unbounded; return result;
    case PhaseOutcome::Optimal: break;
  }

  result.status = LpStatus::Optimal;
  result.x.assign(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < n) result.x[basis[r]] = tableau.rhs()[r];
  }
  result.objective = -tableau.obj_value();
  // Terminated-but-poisoned solves (NaN/inf anywhere in the answer) must not
  // masquerade as Optimal; callers fall back on Numerical.
  bool finite = std::isfinite(result.objective);
  for (const double v : result.x) finite = finite && std::isfinite(v);
  if (!finite) result.status = LpStatus::Numerical;
  return result;
}

}  // namespace mts
