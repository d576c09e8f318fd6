//! Exhaustive-search baseline: simulate every feasible configuration.
//!
//! This is the reference the paper measures its "87% reduction in the
//! number of required simulations" against.

use hi_exec::EvalError;

use crate::algorithm1::Problem;
use crate::evaluator::{Evaluation, PointEvaluator};
use crate::parallel::ExecContext;
use crate::point::DesignPoint;

/// Whether `candidate` strictly improves on the incumbent `best`.
///
/// The selection contract of every engine in this crate: **lowest
/// simulated power wins; ties keep the earlier point in enumeration
/// order** (strict `<`, first-wins). Because reductions always scan
/// evaluations in input order, the reported optimum cannot depend on
/// which worker finished first.
pub(crate) fn improves(candidate: &Evaluation, best: &Evaluation) -> bool {
    candidate.power_mw < best.power_mw
}

/// Folds `(point, evaluation)` pairs — in enumeration order — down to the
/// best reliability-feasible one under the [`improves`] tie-break.
pub(crate) fn best_feasible<'a>(
    pairs: impl IntoIterator<Item = &'a (DesignPoint, Evaluation)>,
    pdr_min: f64,
) -> Option<(DesignPoint, Evaluation)> {
    let mut best: Option<(DesignPoint, Evaluation)> = None;
    for (point, eval) in pairs {
        if eval.pdr >= pdr_min && best.as_ref().is_none_or(|(_, b)| improves(eval, b)) {
            best = Some((*point, *eval));
        }
    }
    best
}

/// Splits a batch's result slots into the successful `(point,
/// evaluation)` pairs, in input order, and the number of failed
/// evaluations. Slots skipped by cancellation (`None`) count as neither.
pub(crate) fn split_outcomes(
    points: &[DesignPoint],
    slots: Vec<Option<Result<Evaluation, EvalError>>>,
) -> (Vec<(DesignPoint, Evaluation)>, u64) {
    let mut ok = Vec::with_capacity(points.len());
    let mut errors = 0u64;
    for (point, slot) in points.iter().zip(slots) {
        match slot {
            Some(Ok(eval)) => ok.push((*point, eval)),
            Some(Err(_)) => errors += 1,
            None => {}
        }
    }
    (ok, errors)
}

/// Result of an exhaustive sweep.
#[derive(Debug, Clone)]
pub struct ExhaustiveOutcome {
    /// The lifetime-optimal reliability-feasible point, if any.
    pub best: Option<(DesignPoint, Evaluation)>,
    /// Every successful `(point, evaluation)` pair, in enumeration order
    /// — the raw material of the paper's Fig. 3 scatter.
    pub evaluations: Vec<(DesignPoint, Evaluation)>,
    /// Unique simulations run.
    pub simulations: u64,
    /// Points whose evaluation failed (panicking simulation, exceeded
    /// event budget). Failed points are left out of `evaluations` and
    /// the sweep carries on; a nonzero count flags degraded results.
    pub eval_errors: u64,
}

/// Evaluates every point of the problem's design space and returns the
/// best feasible one along with the full sweep. The sweep fans out over
/// `exec`'s thread pool while the reduction stays sequential over
/// enumeration order, so the outcome — points, evaluations, best point
/// and simulation count — is bit-identical for every thread count
/// (`threads == 1` runs the plain sequential loop).
///
/// Best-point selection follows the crate-wide tie-break: lowest
/// `power_mw`, ties resolved to the first point in enumeration order.
///
/// If `exec` is cancelled mid-sweep, the outcome covers the evaluations
/// that completed (a best-effort partial sweep, no longer guaranteed to
/// be deterministic).
pub fn exhaustive_search_par<P: PointEvaluator>(
    problem: &Problem,
    evaluator: &P,
    exec: &ExecContext,
) -> ExhaustiveOutcome {
    let before = evaluator.unique_evaluations();
    let points = problem.space.points();
    let (evaluations, eval_errors) =
        split_outcomes(&points, exec.try_eval_points(evaluator, &points));
    ExhaustiveOutcome {
        best: best_feasible(&evaluations, problem.pdr_min),
        evaluations,
        simulations: evaluator.unique_evaluations() - before,
        eval_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::FnEvaluator;
    use crate::power::analytic_power_mw;
    use hi_net::AppParams;

    /// The sweep on the sequential context. The context turns an oracle
    /// panic into a failed point, so a clean sweep must report zero
    /// evaluation errors.
    fn sweep<P: PointEvaluator>(problem: &Problem, evaluator: &P) -> ExhaustiveOutcome {
        let out = exhaustive_search_par(problem, evaluator, &ExecContext::sequential());
        assert_eq!(out.eval_errors, 0, "oracle evaluations failed");
        out
    }

    fn oracle(point: &DesignPoint) -> Evaluation {
        let app = AppParams::default();
        let power = analytic_power_mw(point, &app);
        Evaluation {
            pdr: if point.tx_power == hi_net::TxPower::ZeroDbm {
                0.95
            } else {
                0.5
            },
            nlt_days: 2430.0 / (power * 1e-3) / 86_400.0,
            latency_ms: 2.0 + power,
            power_mw: power,
        }
    }

    #[test]
    fn sweeps_whole_space() {
        let problem = Problem::paper_default(0.9);
        let ev = FnEvaluator::new(oracle);
        let out = sweep(&problem, &ev);
        assert_eq!(out.evaluations.len(), 1320);
        assert_eq!(out.simulations, 1320);
        let (pt, _) = out.best.unwrap();
        // Cheapest feasible: 4-node star at 0 dBm.
        assert_eq!(pt.tx_power, hi_net::TxPower::ZeroDbm);
        assert_eq!(pt.num_nodes(), 4);
    }

    #[test]
    fn tie_on_power_keeps_first_point_in_enumeration_order() {
        // A constant oracle makes every point tie on power; the documented
        // tie-break must pick the very first enumerated point, no matter
        // what order evaluations complete in.
        let problem = Problem::paper_default(0.0);
        let ev = FnEvaluator::new(|_: &DesignPoint| Evaluation {
            pdr: 1.0,
            nlt_days: 1.0,
            power_mw: 1.0,
            latency_ms: 1.0,
        });
        let out = sweep(&problem, &ev);
        assert_eq!(out.best.unwrap().0, problem.space.points()[0]);
    }

    #[test]
    fn reports_infeasible_when_nothing_qualifies() {
        let problem = Problem::paper_default(0.99);
        let ev = FnEvaluator::new(oracle);
        let out = sweep(&problem, &ev);
        assert!(out.best.is_none());
        assert_eq!(out.evaluations.len(), 1320);
    }
}
