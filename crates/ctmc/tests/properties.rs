//! Property-based tests for the CTMC engine.
//!
//! Chains are generated as a ring (guaranteeing irreducibility) plus random
//! chords, with rates spanning several orders of magnitude — the regime
//! availability models live in. GTH, the engine's one exact method, is
//! checked against the independent reference solvers of [`reference`].

use availsim_ctmc::{mean_first_passage_gth, Ctmc, CtmcBuilder, StateId};
use proptest::prelude::*;

/// Reference solvers GTH is checked against: a dense LU factorization with
/// partial pivoting, the steady state and the mean time to absorption it
/// solves, and power iteration on the uniformized chain. No program path
/// runs them, so they live with the tests.
mod reference {
    use availsim_ctmc::Ctmc;

    /// The generator `Q` of `chain` as a dense matrix.
    pub fn generator(chain: &Ctmc) -> Vec<Vec<f64>> {
        let n = chain.num_states();
        let mut q = vec![vec![0.0; n]; n];
        for (from, to, rate) in chain.transitions() {
            q[from.index()][to.index()] += rate;
        }
        for (id, _) in chain.states().iter() {
            q[id.index()][id.index()] = -chain.exit_rate(id);
        }
        q
    }

    /// The balance residual `πQ`.
    pub fn balance_residual(chain: &Ctmc, pi: &[f64]) -> Vec<f64> {
        let q = generator(chain);
        (0..q.len())
            .map(|j| pi.iter().zip(&q).map(|(p, row)| p * row[j]).sum())
            .collect()
    }

    /// Solves `A x = b` by LU factorization with partial pivoting; `None`
    /// when a pivot vanishes (singular to working precision).
    pub fn lu_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
        let n = b.len();
        for k in 0..n {
            let p = (k..n).max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs()))?;
            if a[p][k] == 0.0 || !a[p][k].is_finite() {
                return None;
            }
            a.swap(k, p);
            b.swap(k, p);
            let (top, bottom) = a.split_at_mut(k + 1);
            let pivot = &top[k];
            for (row, i) in bottom.iter_mut().zip(k + 1..) {
                let f = row[k] / pivot[k];
                if f != 0.0 {
                    for (x, &y) in row[k..].iter_mut().zip(&pivot[k..]) {
                        *x -= f * y;
                    }
                    b[i] -= f * b[k];
                }
            }
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let s: f64 = (i + 1..n).map(|j| a[i][j] * x[j]).sum();
            x[i] = (b[i] - s) / a[i][i];
        }
        Some(x)
    }

    /// The stationary distribution by LU: `Qᵀπ = 0` with its last equation
    /// replaced by `Σπ = 1`.
    pub fn steady_state_lu(chain: &Ctmc) -> Option<Vec<f64>> {
        let q = generator(chain);
        let n = q.len();
        let mut a: Vec<Vec<f64>> = (0..n).map(|i| (0..n).map(|j| q[j][i]).collect()).collect();
        a[n - 1] = vec![1.0; n];
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        lu_solve(a, b)
    }

    /// Mean time to reach a `target` state from `start`, by LU on the
    /// generator's non-target block `B`: the absorption times solve
    /// `B t = −1`.
    pub fn mean_time_to_absorption_lu(chain: &Ctmc, start: usize, target: &[bool]) -> Option<f64> {
        let q = generator(chain);
        let kept: Vec<usize> = (0..q.len()).filter(|&i| !target[i]).collect();
        let b = kept
            .iter()
            .map(|&i| kept.iter().map(|&j| q[i][j]).collect())
            .collect();
        let t = lu_solve(b, vec![-1.0; kept.len()])?;
        Some(t[kept.iter().position(|&i| i == start)?])
    }

    /// Power iteration `π ← πP` on the uniformized chain, until the L1
    /// change of one step drops below `tolerance`.
    pub fn steady_state_power(
        chain: &Ctmc,
        max_iterations: usize,
        tolerance: f64,
    ) -> Option<Vec<f64>> {
        let (p, _) = chain.uniformized();
        let n = chain.num_states();
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..max_iterations {
            let next = p.vec_mul(&pi).expect("dimensions match");
            let change: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            pi = next;
            if change < tolerance {
                let total: f64 = pi.iter().sum();
                return Some(pi.iter().map(|v| v / total).collect());
            }
        }
        None
    }

    mod tests {
        use super::*;
        use availsim_ctmc::CtmcBuilder;

        fn residual(a: &[Vec<f64>], x: &[f64], b: &[f64]) -> f64 {
            a.iter().zip(b).fold(0.0f64, |m, (row, bi)| {
                let ax: f64 = row.iter().zip(x).map(|(p, q)| p * q).sum();
                m.max((ax - bi).abs())
            })
        }

        #[test]
        fn solves_small_system() {
            let a = vec![
                vec![2.0, 1.0, -1.0],
                vec![-3.0, -1.0, 2.0],
                vec![-2.0, 1.0, 2.0],
            ];
            let x = lu_solve(a, vec![8.0, -11.0, -3.0]).unwrap();
            assert!((x[0] - 2.0).abs() < 1e-12);
            assert!((x[1] - 3.0).abs() < 1e-12);
            assert!((x[2] - -1.0).abs() < 1e-12);
        }

        #[test]
        fn pivoting_handles_zero_leading_entry() {
            let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
            assert_eq!(lu_solve(a, vec![3.0, 4.0]).unwrap(), vec![4.0, 3.0]);
        }

        #[test]
        fn detects_singular_matrix() {
            let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
            assert!(lu_solve(a, vec![1.0, 1.0]).is_none());
        }

        #[test]
        fn badly_scaled_system_still_solves() {
            // Rates spanning many orders of magnitude, as in availability
            // chains. (Not a generator matrix: rows deliberately do not sum
            // to zero, otherwise the system would be singular.)
            let a = vec![
                vec![-1e-6, 1e-6, 1e-7],
                vec![0.1, -0.1003, 3e-4],
                vec![0.03, 0.0, -0.031],
            ];
            let b = [1.0, 0.5, 0.25];
            let x = lu_solve(a.clone(), b.to_vec()).unwrap();
            let max_abs = a.iter().flatten().fold(0.0f64, |m, v| m.max(v.abs()));
            let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs())) * max_abs;
            assert!(residual(&a, &x, &b) / scale < 1e-12);
        }

        fn three_state() -> Ctmc {
            let mut b = CtmcBuilder::new();
            let s0 = b.state("op").unwrap();
            let s1 = b.state("exp").unwrap();
            let s2 = b.state("dl").unwrap();
            b.transition(s0, s1, 4e-3).unwrap();
            b.transition(s1, s0, 0.1).unwrap();
            b.transition(s1, s2, 3e-3).unwrap();
            b.transition(s2, s0, 0.03).unwrap();
            b.build().unwrap()
        }

        #[test]
        fn all_methods_agree_on_dominant_components() {
            let chain = three_state();
            let gth = chain.steady_state().unwrap();
            let lu = steady_state_lu(&chain).unwrap();
            let pow = steady_state_power(&chain, 2_000_000, 1e-14).unwrap();
            for i in 0..3 {
                assert!((gth[i] - lu[i]).abs() < 1e-10, "gth vs lu at {i}");
                assert!((gth[i] - pow[i]).abs() < 1e-8, "gth vs power at {i}");
            }
        }

        #[test]
        fn lu_distribution_is_normalized() {
            let pi = steady_state_lu(&three_state()).unwrap();
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(pi.iter().all(|&p| p >= 0.0));
        }

        #[test]
        fn power_reports_non_convergence() {
            assert!(steady_state_power(&three_state(), 1, 1e-30).is_none());
        }
    }
}

/// Strategy: an irreducible CTMC with `n` states and extra random edges.
fn arb_chain(max_states: usize) -> impl Strategy<Value = Ctmc> {
    (2usize..=max_states)
        .prop_flat_map(|n| {
            // Ring rates are kept >= 0.1 so every generated chain mixes fast;
            // slow dynamics would force uniformization horizons of 1e6+ steps
            // and turn the suite into a benchmark. Chord rates still span
            // five orders of magnitude to exercise the rare-event regime.
            let ring_rates = proptest::collection::vec(0.1f64..10.0, n);
            let chords = proptest::collection::vec(((0..n), (0..n), 1e-5f64..10.0), 0..(2 * n));
            (Just(n), ring_rates, chords)
        })
        .prop_map(|(n, ring, chords)| {
            let mut b = CtmcBuilder::new();
            let ids: Vec<StateId> = (0..n).map(|i| b.state(format!("s{i}")).unwrap()).collect();
            for (i, &r) in ring.iter().enumerate() {
                b.transition(ids[i], ids[(i + 1) % n], r).unwrap();
            }
            for (i, j, r) in chords {
                if i != j {
                    b.transition(ids[i], ids[j], r).unwrap();
                }
            }
            b.build().unwrap()
        })
}

fn l1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn steady_state_is_a_distribution(chain in arb_chain(12)) {
        let pi = chain.steady_state().unwrap();
        prop_assert!(pi.iter().all(|&p| p >= 0.0 && p.is_finite()));
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steady_state_satisfies_balance_equations(chain in arb_chain(10)) {
        let pi = chain.steady_state().unwrap();
        let residual = reference::balance_residual(&chain, &pi);
        // Scale-aware residual check.
        let scale = chain
            .states()
            .iter()
            .fold(1.0f64, |m, (id, _)| m.max(chain.exit_rate(id)));
        prop_assert!(l1(&residual) / scale < 1e-10, "residual {}", l1(&residual));
    }

    #[test]
    fn gth_and_lu_agree(chain in arb_chain(10)) {
        let gth = chain.steady_state().unwrap();
        let lu = reference::steady_state_lu(&chain).unwrap();
        for (a, b) in gth.iter().zip(&lu) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_preserves_probability(chain in arb_chain(8), t in 0.0f64..50.0) {
        let n = chain.num_states();
        let mut p0 = vec![0.0; n];
        p0[0] = 1.0;
        let p = chain.transient(&p0, t, 1e-12).unwrap();
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transient_at_large_time_reaches_steady_state(chain in arb_chain(6)) {
        let n = chain.num_states();
        let mut p0 = vec![0.0; n];
        p0[n - 1] = 1.0;
        // The ring keeps every state connected at rates >= 0.1, so the chain
        // mixes well within a horizon of 1e3.
        let p = chain.transient(&p0, 1e3, 1e-12).unwrap();
        let pi = chain.steady_state().unwrap();
        for (a, b) in p.iter().zip(&pi) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn renewal_first_passage_matches_the_lu_absorbing_solve(
        chain in arb_chain(8),
        pick in 0usize..1000,
    ) {
        // From the first state into one other state: the renewal answer on
        // GTH against the linear solve of the absorbing chain.
        let n = chain.num_states();
        let mut target = vec![false; n];
        target[1 + pick % (n - 1)] = true;
        let mut rates = vec![vec![0.0; n]; n];
        for (from, to, rate) in chain.transitions() {
            rates[from.index()][to.index()] += rate;
        }
        let renewal = mean_first_passage_gth(&rates, 0, &target).unwrap();
        let lu = reference::mean_time_to_absorption_lu(&chain, 0, &target).unwrap();
        prop_assert!(renewal.is_finite() && renewal > 0.0);
        prop_assert!((renewal - lu).abs() <= 1e-8 * lu, "renewal {renewal} vs LU {lu}");
    }

    #[test]
    fn uniformized_matrix_is_stochastic(chain in arb_chain(12)) {
        let (p, lambda) = chain.uniformized();
        prop_assert!(lambda > 0.0);
        for r in 0..p.rows() {
            let sum: f64 = p.row(r).map(|(_, v)| v).sum();
            prop_assert!((sum - 1.0).abs() < 1e-12);
            prop_assert!(p.row(r).all(|(_, v)| v >= 0.0));
        }
    }

}

// Numerical-invariant suite: every steady-state solver must return a genuine
// probability distribution, and the independent factorizations must agree on
// it — the workspace's first line of defense against silent solver drift.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_steady_state_is_a_distribution(chain in arb_chain(10)) {
        let lu = reference::steady_state_lu(&chain).unwrap();
        prop_assert!(lu.iter().all(|&p| p >= -1e-12 && p.is_finite()));
        let total: f64 = lu.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10, "LU sum {total}");
    }

    #[test]
    fn gth_and_lu_sums_both_normalize(chain in arb_chain(12)) {
        let gth: f64 = chain.steady_state().unwrap().iter().sum();
        let lu: f64 = reference::steady_state_lu(&chain).unwrap().iter().sum();
        prop_assert!((gth - 1.0).abs() < 1e-12, "GTH sum {gth}");
        prop_assert!((lu - 1.0).abs() < 1e-10, "LU sum {lu}");
        prop_assert!((gth - lu).abs() < 1e-10, "sums diverge: {gth} vs {lu}");
    }

    #[test]
    fn power_iteration_agrees_with_gth(chain in arb_chain(8)) {
        let gth = chain.steady_state().unwrap();
        let pow = reference::steady_state_power(&chain, 2_000_000, 1e-14).unwrap();
        let total: f64 = pow.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10, "power sum {total}");
        for (a, b) in gth.iter().zip(&pow) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
