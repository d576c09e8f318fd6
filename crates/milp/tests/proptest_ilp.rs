//! Property-based verification of the MILP solver against brute force.
//!
//! For random small binary ILPs we enumerate all 2^n assignments directly
//! and check that branch & bound (a) agrees on feasibility and (b) returns
//! the same optimal objective. The pool enumeration is checked to return
//! exactly the set of optimal assignments. Two numerics families stress
//! the same checks: ill-scaled rows (mW objective next to 40 dB deviation
//! coefficients) and degenerate ties (many optima of equal objective).
//!
//! A last test pins the simplex pivot path itself: the pivot and node
//! counters and the exact objective bits of a fixed batch of solves.

use hi_des::check::{run_cases, Gen};
use hi_milp::simplex::{solve_lp, LpStatus};
use hi_milp::{pool, LinExpr, Model, Sense, SolveStatus, VarId, VarType};
use hi_trace::{wellknown, Collector};

/// A randomly generated binary ILP instance description.
#[derive(Debug, Clone)]
struct Instance {
    nvars: usize,
    obj: Vec<f64>,
    /// (coeffs, sense index 0..3, rhs)
    constraints: Vec<(Vec<f64>, u8, f64)>,
    maximize: bool,
}

fn any_instance(g: &mut Gen) -> Instance {
    let nvars = g.usize_in(2..7);
    let obj = (0..nvars).map(|_| round2(g.f64_in(-5.0, 5.0))).collect();
    let ncons = g.usize_in(1..5);
    let constraints = (0..ncons)
        .map(|_| {
            let coeffs = (0..nvars).map(|_| round2(g.f64_in(-4.0, 4.0))).collect();
            let sense = g.u64_below(3) as u8;
            let rhs = round2(g.f64_in(-6.0, 6.0));
            (coeffs, sense, rhs)
        })
        .collect();
    Instance {
        nvars,
        obj,
        constraints,
        maximize: g.bool(),
    }
}

/// The 40 dB deviation cap (`hi_core::DEVIATION_CAP_DB`) as a linear power
/// ratio: how far a deviation coefficient sits above its nominal mW power.
const DEVIATION_CAP_RATIO: f64 = 1e4;

/// A whole-µW power in mW, drawn from `[-hi, hi)`.
fn mw(g: &mut Gen, hi: f64) -> f64 {
    round3(g.f64_in(-hi, hi))
}

/// A power raised by the deviation cap: an exact multiple of 10.
fn deviation(g: &mut Gen) -> f64 {
    (g.f64_in(-2.0, 2.0) * 1000.0).round() * (DEVIATION_CAP_RATIO / 1000.0)
}

/// Ill-scaled rows in the robust encoding's units: an mW objective next
/// to rows whose coefficients mix mW powers with deviation-capped ones
/// (about 1e4), mW budget rows, and unit-scale rows, in one model.
fn ill_scaled_instance(g: &mut Gen) -> Instance {
    let nvars = g.usize_in(2..7);
    let obj = (0..nvars).map(|_| mw(g, 2.0)).collect();
    let ncons = g.usize_in(1..5);
    let constraints = (0..ncons)
        .map(|_| {
            let kind = g.u64_below(3);
            let coeffs = (0..nvars)
                .map(|_| match kind {
                    0 if g.bool() => deviation(g),
                    0 | 1 => mw(g, 2.0),
                    _ => round2(g.f64_in(-4.0, 4.0)),
                })
                .collect();
            let sense = g.u64_below(3) as u8;
            let rhs = match kind {
                0 => deviation(g) + mw(g, 3.0),
                1 => mw(g, 3.0),
                _ => round2(g.f64_in(-6.0, 6.0)),
            };
            (coeffs, sense, rhs)
        })
        .collect();
    Instance {
        nvars,
        obj,
        constraints,
        maximize: g.bool(),
    }
}

/// Degenerate ties: objective weights from {1, 2} (so many assignments
/// share the optimal objective) over rows with 0/±1 coefficients and
/// small integer right-hand sides, whose LP vertices are degenerate.
fn tied_instance(g: &mut Gen) -> Instance {
    let nvars = g.usize_in(3..8);
    let obj = (0..nvars).map(|_| g.i64_in(1, 2) as f64).collect();
    let ncons = g.usize_in(1..5);
    let constraints = (0..ncons)
        .map(|_| {
            let coeffs = (0..nvars).map(|_| g.i64_in(-1, 1) as f64).collect();
            let sense = g.u64_below(3) as u8;
            let rhs = g.i64_in(-1, 3) as f64;
            (coeffs, sense, rhs)
        })
        .collect();
    Instance {
        nvars,
        obj,
        constraints,
        maximize: g.bool(),
    }
}

fn build_model(inst: &Instance) -> (Model, Vec<VarId>) {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..inst.nvars)
        .map(|i| m.add_binary(&format!("b{i}")))
        .collect();
    for (coeffs, sense, rhs) in &inst.constraints {
        let mut e = LinExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            e.add_term(*v, *c);
        }
        let sense = match sense {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(e, sense, *rhs);
    }
    let mut o = LinExpr::new();
    for (v, c) in vars.iter().zip(&inst.obj) {
        o.add_term(*v, *c);
    }
    if inst.maximize {
        m.maximize(o);
    } else {
        m.minimize(o);
    }
    (m, vars)
}

/// Round coefficients to 2 decimals so brute-force feasibility checks and
/// the solver agree despite floating point tolerances.
fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Round to 3 decimals: whole microwatts when the unit is mW.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Enumerates all assignments; returns (best objective, set of optimal keys).
fn brute_force(inst: &Instance) -> Option<(f64, Vec<u64>)> {
    let mut best: Option<f64> = None;
    let mut winners: Vec<u64> = Vec::new();
    for mask in 0u64..(1 << inst.nvars) {
        let x: Vec<f64> = (0..inst.nvars).map(|i| ((mask >> i) & 1) as f64).collect();
        let feasible = inst.constraints.iter().all(|(coeffs, sense, rhs)| {
            let lhs: f64 = coeffs.iter().zip(&x).map(|(c, v)| c * v).sum();
            let rhs = *rhs;
            match sense {
                0 => lhs <= rhs + 1e-9,
                1 => lhs >= rhs - 1e-9,
                _ => (lhs - rhs).abs() <= 1e-9,
            }
        });
        if !feasible {
            continue;
        }
        let obj: f64 = inst.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
        let better = match best {
            None => true,
            Some(b) => {
                if inst.maximize {
                    obj > b + 1e-9
                } else {
                    obj < b - 1e-9
                }
            }
        };
        if better {
            best = Some(obj);
            winners.clear();
            winners.push(mask);
        } else if let Some(b) = best {
            if (obj - b).abs() <= 1e-9 {
                winners.push(mask);
            }
        }
    }
    best.map(|b| (b, winners))
}

#[test]
fn branch_and_bound_matches_brute_force() {
    run_cases(300, 0x11_9001, |g| {
        let inst = any_instance(g);
        let (m, _) = build_model(&inst);
        let sol = m.solve().unwrap();
        match brute_force(&inst) {
            None => assert_eq!(sol.status(), SolveStatus::Infeasible),
            Some((best, _)) => {
                assert_eq!(sol.status(), SolveStatus::Optimal);
                assert!(
                    (sol.objective() - best).abs() < 1e-5,
                    "solver {} vs brute {}",
                    sol.objective(),
                    best
                );
            }
        }
    });
}

#[test]
fn pool_matches_brute_force_optima() {
    run_cases(300, 0x11_9002, |g| {
        let inst = any_instance(g);
        let (m, vars) = build_model(&inst);
        let found = pool::enumerate_optima(&m, pool::PoolOptions::default()).unwrap();
        match brute_force(&inst) {
            None => assert!(found.is_empty()),
            Some((_, winners)) => {
                let mut got: Vec<u64> = found
                    .iter()
                    .map(|s| {
                        vars.iter()
                            .enumerate()
                            .map(|(i, &v)| (s.int_value(v) as u64) << i)
                            .sum()
                    })
                    .collect();
                got.sort_unstable();
                let mut want = winners.clone();
                want.sort_unstable();
                assert_eq!(got, want);
            }
        }
    });
}

#[test]
fn optimal_solutions_are_feasible() {
    run_cases(300, 0x11_9003, |g| {
        let inst = any_instance(g);
        let (m, _) = build_model(&inst);
        let sol = m.solve().unwrap();
        if sol.is_optimal() {
            assert!(m.is_feasible(sol.values(), 1e-6));
        }
    });
}

/// Asserts that branch & bound and the solution pool agree with brute
/// force on `inst`: same feasibility, same optimal objective, a feasible
/// optimum, and exactly the brute-force set of optimal assignments.
fn check_against_brute_force(inst: &Instance) {
    let (m, vars) = build_model(inst);
    let sol = m.solve().unwrap();
    let found = pool::enumerate_optima(&m, pool::PoolOptions::default()).unwrap();
    match brute_force(inst) {
        None => {
            assert_eq!(sol.status(), SolveStatus::Infeasible);
            assert!(found.is_empty());
        }
        Some((best, winners)) => {
            assert_eq!(sol.status(), SolveStatus::Optimal);
            assert!(
                (sol.objective() - best).abs() < 1e-5,
                "solver {} vs brute {}",
                sol.objective(),
                best
            );
            assert!(m.is_feasible(sol.values(), 1e-6));
            let mut got: Vec<u64> = found
                .iter()
                .map(|s| {
                    vars.iter()
                        .enumerate()
                        .map(|(i, &v)| (s.int_value(v) as u64) << i)
                        .sum()
                })
                .collect();
            got.sort_unstable();
            let mut want = winners;
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }
}

#[test]
fn ill_scaled_rows_match_brute_force() {
    run_cases(300, 0x11_9004, |g| {
        check_against_brute_force(&ill_scaled_instance(g))
    });
}

#[test]
fn degenerate_ties_match_brute_force() {
    run_cases(300, 0x11_9005, |g| {
        check_against_brute_force(&tied_instance(g))
    });
}

/// A mixed-integer model that reaches every standard-form variable
/// mapping: binaries, bounded integers, and continuous variables that are
/// free (split), upper-bounded only (mirrored), fixed, or shifted with and
/// without an upper-bound row. Rows are built around a reference point
/// inside the bounds, so most models are feasible and take real pivots.
fn mixed_model(g: &mut Gen) -> Model {
    let mut m = Model::new();
    let nvars = g.usize_in(6..16);
    let mut vars = Vec::with_capacity(nvars);
    let mut point = Vec::with_capacity(nvars);
    for i in 0..nvars {
        let name = format!("x{i}");
        let (v, x) = match g.u64_below(6) {
            0 => (m.add_binary(&name), g.i64_in(0, 1) as f64),
            1 => {
                let (lb, ub) = (g.i64_in(-3, 0), g.i64_in(1, 4));
                (
                    m.add_integer(&name, lb as f64, ub as f64),
                    g.i64_in(lb, ub) as f64,
                )
            }
            2 => {
                let v = m.add_continuous(&name, f64::NEG_INFINITY, f64::INFINITY);
                (v, round2(g.f64_in(-3.0, 3.0)))
            }
            3 => {
                let ub = round2(g.f64_in(-2.0, 5.0));
                (m.add_continuous(&name, f64::NEG_INFINITY, ub), ub - 1.0)
            }
            4 => {
                let x = round2(g.f64_in(-2.0, 2.0));
                (m.add_var(&name, VarType::Continuous, x, x), x)
            }
            _ => {
                let ub = if g.bool() {
                    f64::INFINITY
                } else {
                    round2(g.f64_in(1.0, 6.0))
                };
                (m.add_continuous(&name, 0.0, ub), 0.5)
            }
        };
        vars.push(v);
        point.push(x);
    }
    for _ in 0..g.usize_in(4..14) {
        let mut e = LinExpr::new();
        let mut at_point = 0.0;
        for (&v, &x) in vars.iter().zip(&point) {
            if g.bool() {
                let c = round2(g.f64_in(-4.0, 4.0));
                e.add_term(v, c);
                at_point += c * x;
            }
        }
        let slack = round2(g.f64_in(0.0, 2.0));
        let (sense, rhs) = match g.u64_below(5) {
            0 | 1 => (Sense::Le, at_point + slack),
            2 | 3 => (Sense::Ge, at_point - slack),
            _ => (Sense::Eq, at_point),
        };
        m.add_constraint(e, sense, rhs);
    }
    let mut o = LinExpr::new();
    for &v in &vars {
        o.add_term(v, round2(g.f64_in(-5.0, 5.0)));
    }
    if g.bool() {
        m.maximize(o);
    } else {
        m.minimize(o);
    }
    m
}

/// The exact bits of an outcome's objective; non-optimal outcomes map to
/// all-ones patterns, which no finite objective has.
fn outcome_bits(status: SolveStatus, objective: impl FnOnce() -> f64) -> u64 {
    match status {
        SolveStatus::Optimal => objective().to_bits(),
        SolveStatus::Infeasible => u64::MAX,
        SolveStatus::Unbounded => u64::MAX - 1,
    }
}

/// Folds the exact bits of `values` into an FNV-1a digest.
fn fold_bits(digest: &mut u64, values: &[f64]) {
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn lp_bits(m: &Model, digest: &mut u64) -> u64 {
    let lp = solve_lp(m).unwrap();
    fold_bits(digest, &lp.values);
    let status = match lp.status {
        LpStatus::Optimal => SolveStatus::Optimal,
        LpStatus::Infeasible => SolveStatus::Infeasible,
        LpStatus::Unbounded => SolveStatus::Unbounded,
    };
    outcome_bits(status, || lp.objective)
}

fn milp_bits(m: &Model, digest: &mut u64) -> u64 {
    let sol = m.solve().unwrap();
    if sol.is_optimal() {
        fold_bits(digest, sol.values());
    }
    outcome_bits(sol.status(), || sol.objective())
}

/// The simplex kernel's pivot path, pinned. A fixed batch of models (the
/// brute-force families and mixed-integer models) is solved twice each:
/// LP relaxation and full branch & bound. The summed `milp.pivots` and
/// `milp.bb_nodes`, the exact bits of every objective and a digest of the
/// bits of every returned solution value must equal the values recorded
/// with the dense tableau kernel, whose pivots the sparse-update kernel
/// repeats one for one.
#[test]
fn pivot_path_is_pinned() {
    let collector = Collector::metrics_only();
    let _installed = collector.install(0, 0);
    let mut bits = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    run_cases(32, 0x11_9006, |g| {
        let models = [
            build_model(&any_instance(g)).0,
            build_model(&ill_scaled_instance(g)).0,
            build_model(&tied_instance(g)).0,
            mixed_model(g),
        ];
        for m in &models {
            bits.push(lp_bits(m, &mut digest));
            bits.push(milp_bits(m, &mut digest));
        }
    });
    let registry = collector.registry().unwrap();
    let counters = (
        registry.counter_value(wellknown::MILP_PIVOTS),
        registry.counter_value(wellknown::MILP_BB_NODES),
    );
    assert_eq!(counters, PINNED_COUNTERS, "pivot path changed");
    assert_eq!(bits.len(), PINNED_OBJECTIVE_BITS.len());
    for (i, (got, want)) in bits.iter().zip(PINNED_OBJECTIVE_BITS).enumerate() {
        assert_eq!(got, want, "objective {i}: {got:#018x} vs {want:#018x}");
    }
    assert_eq!(digest, PINNED_VALUES_DIGEST, "solution values changed");
}

/// `(milp.pivots, milp.bb_nodes)` summed over the pinned batch.
const PINNED_COUNTERS: (u64, u64) = (4359, 537);

/// FNV-1a digest of the bits of every solution value of the pinned batch.
const PINNED_VALUES_DIGEST: u64 = 0x34ec5efcf13167a9;

/// Objective bits of the pinned batch in solve order: per case, the LP
/// relaxation then branch & bound of each of its four models.
const PINNED_OBJECTIVE_BITS: &[u64] = &[
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4012395810624dd2,
    0x4012395810624dd2,
    0x4000000000000000,
    0x4000000000000000,
    0xc018f576ec9b1336,
    0xc015cd6399eecb4c,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xbfdff8b1912fc4a8,
    0xbfd0a3d70a3d70a4,
    0x4018000000000000,
    0x4018000000000000,
    0xc038ec3fe2aa9228,
    0xc037d80b86a25332,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4018da1c88301079,
    0x401298f78c1ed4ea,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x40162ed08cb32dfe,
    0x4010797209c4cbcc,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x3ff0000000000000,
    0xffffffffffffffff,
    0xc0229998382d5710,
    0xc0209a386e10b3c7,
    0x3fd49ba5e353f7ce,
    0xffffffffffffffff,
    0x4000374bc6a7ef9d,
    0x4000374bc6a7ef9e,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc03a4da61efb28f4,
    0xc0383ce501252ef6,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0x401bf61a3bcbce8c,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x3ff0000000000000,
    0x3ff0000000000000,
    0xc085bf02a420964e,
    0xc07c3c5a882a3411,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0x400cf5c28f5c28f6,
    0x400cf5c28f5c28f6,
    0x3fd093c80bf79fda,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4014000000000000,
    0x4014000000000000,
    0x40720deaeb063b5d,
    0x40720deaeb063b5d,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc017b95810624dd3,
    0xc017b95810624dd3,
    0x3ff0000000000000,
    0x3ff0000000000000,
    0x4034435290d06d30,
    0x4034435290d06d30,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xbff3fbe76c8b4396,
    0xbff3fbe76c8b4396,
    0x0000000000000000,
    0x0000000000000000,
    0xc03b7eeb665015ec,
    0xc03b7eeb665015ec,
    0xc0197ae147ae147a,
    0xc0197ae147ae147a,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc0308baafaeadd1b,
    0xc01f06dde8259638,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x0000000000000000,
    0x0000000000000000,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc02b652fc4b2fb94,
    0xc034463c3ef1a7f0,
    0xbfe1e434a9b10175,
    0x3fcae147ae147ae0,
    0xbfd2c540756f24ea,
    0xbfba1cac083126ec,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc035d0f3b0fda792,
    0xc035d0f3b0fda792,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x401baf8d39cac90c,
    0x401e562aa82a3a1d,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4000000000000000,
    0x4000000000000000,
    0xc01731b2aa685744,
    0xc016a2ae6105c2b9,
    0x0000000000000000,
    0x0000000000000000,
    0x40080362c6d60e59,
    0xffffffffffffffff,
    0x4000000000000000,
    0x4000000000000000,
    0x403292e0614c00d2,
    0x402f0c818bff7f48,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xbfee74e42eaed610,
    0x3fe5ba5e353f7cee,
    0x4010000000000000,
    0x4010000000000000,
    0x403c4743d022517d,
    0x403c4743d022517e,
    0x4007c7267cffa59b,
    0xffffffffffffffff,
    0xc0014633faa0c25a,
    0xc0009fbe76c8b439,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0xc00d5c28f5c28f5c,
    0xc00d5c28f5c28f5c,
    0x3ffa015452f9957a,
    0xffffffffffffffff,
    0x0000000000000000,
    0x0000000000000000,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0x0000000000000000,
    0x0000000000000000,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4010eb0f51ea2886,
    0x4010eb0f51ea2886,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4010371758e2196a,
    0x4010371758e21966,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4014000000000000,
    0x4014000000000000,
    0x40194cc83f312c26,
    0x4016b2f4336cb3d7,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x4006adf17573c326,
    0x4004810624dd2f1a,
    0x0000000000000000,
    0x0000000000000000,
    0xc033e3603af2de7e,
    0xc033e3603af2de7e,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xfffffffffffffffe,
    0xfffffffffffffffe,
    0x4029742183421834,
    0x4028c28f5c28f5c3,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc0098e8b376aaf1d,
    0xc0180a9a584dd0e7,
    0x3ff07695c00bbb98,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xc022c822d9ae2d4e,
    0xc020e46a50bd54fc,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0x0000000000000000,
    0x0000000000000000,
    0x40204fe86405481e,
    0x401d8e1a76012b4f,
    0x3fe4500000000000,
    0x0000000000000000,
    0xc0016bbc61fe78e9,
    0xffffffffffffffff,
    0x4018000000000000,
    0x4018000000000000,
    0x3fdd667fd641cc38,
    0x3fdd667fd641cc38,
];
