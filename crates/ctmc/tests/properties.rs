//! Property-based tests for the CTMC kernel.
//!
//! Chains are generated as dense rate matrices (`a[i][j]` is the rate of
//! `i -> j`): a ring (guaranteeing irreducibility) plus random chords, with
//! rates spanning several orders of magnitude — the regime availability
//! models live in. GTH, the kernel's one exact method, is checked against
//! the independent reference solvers of [`reference`].

use availsim_ctmc::{mean_first_passage_gth, steady_state_gth_rates, transient};
use proptest::prelude::*;

/// Reference solvers GTH is checked against: a dense LU factorization with
/// partial pivoting, the steady state and the mean time to absorption it
/// solves, and power iteration on the uniformized chain. No program path
/// runs them, so they live with the tests. Each reads the same dense rate
/// matrix as the kernel.
mod reference {
    /// The generator `Q` of the rates `a`: the off-diagonal rates, with
    /// minus each row's exit rate on the diagonal.
    pub fn generator(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut q = a.to_vec();
        for (i, row) in q.iter_mut().enumerate() {
            row[i] = 0.0;
            row[i] = -row.iter().sum::<f64>();
        }
        q
    }

    /// The balance residual `πQ`.
    pub fn balance_residual(a: &[Vec<f64>], pi: &[f64]) -> Vec<f64> {
        let q = generator(a);
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
    pub fn steady_state_lu(a: &[Vec<f64>]) -> Option<Vec<f64>> {
        let q = generator(a);
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
    pub fn mean_time_to_absorption_lu(
        a: &[Vec<f64>],
        start: usize,
        target: &[bool],
    ) -> Option<f64> {
        let q = generator(a);
        let kept: Vec<usize> = (0..q.len()).filter(|&i| !target[i]).collect();
        let b = kept
            .iter()
            .map(|&i| kept.iter().map(|&j| q[i][j]).collect())
            .collect();
        let t = lu_solve(b, vec![-1.0; kept.len()])?;
        Some(t[kept.iter().position(|&i| i == start)?])
    }

    /// Power iteration `π ← πP` on the uniformized chain `P = I + Q/Λ`
    /// (Λ a little above the largest exit rate), until the L1 change of one
    /// step drops below `tolerance`.
    pub fn steady_state_power(
        a: &[Vec<f64>],
        max_iterations: usize,
        tolerance: f64,
    ) -> Option<Vec<f64>> {
        let q = generator(a);
        let n = q.len();
        let lambda = 1.02 * (0..n).fold(0.0f64, |m, i| m.max(-q[i][i]));
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..max_iterations {
            let next: Vec<f64> = (0..n)
                .map(|j| {
                    let flow: f64 = pi.iter().zip(&q).map(|(p, row)| p * row[j]).sum();
                    pi[j] + flow / lambda
                })
                .collect();
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
        use availsim_ctmc::steady_state_gth_rates;

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

        /// op -> exp -> dl with repair and restore back to op.
        fn three_state() -> Vec<Vec<f64>> {
            vec![
                vec![0.0, 4e-3, 0.0],
                vec![0.1, 0.0, 3e-3],
                vec![0.03, 0.0, 0.0],
            ]
        }

        #[test]
        fn all_methods_agree_on_dominant_components() {
            let chain = three_state();
            let gth = steady_state_gth_rates(&mut chain.clone()).unwrap();
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

/// Strategy: the rates of an irreducible CTMC with `n` states and extra
/// random edges.
fn arb_chain(max_states: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
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
            let mut a = vec![vec![0.0; n]; n];
            for (i, &r) in ring.iter().enumerate() {
                a[i][(i + 1) % n] += r;
            }
            for (i, j, r) in chords {
                if i != j {
                    a[i][j] += r;
                }
            }
            a
        })
}

/// The GTH steady state of the rates `a`.
fn steady_state(a: &[Vec<f64>]) -> Vec<f64> {
    steady_state_gth_rates(&mut a.to_vec()).unwrap()
}

fn l1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn steady_state_is_a_distribution(chain in arb_chain(12)) {
        let pi = steady_state(&chain);
        prop_assert!(pi.iter().all(|&p| p >= 0.0 && p.is_finite()));
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn steady_state_satisfies_balance_equations(chain in arb_chain(10)) {
        let pi = steady_state(&chain);
        let residual = reference::balance_residual(&chain, &pi);
        // Scale-aware residual check.
        let scale = chain
            .iter()
            .fold(1.0f64, |m, row| m.max(row.iter().sum()));
        prop_assert!(l1(&residual) / scale < 1e-10, "residual {}", l1(&residual));
    }

    #[test]
    fn gth_and_lu_agree(chain in arb_chain(10)) {
        let gth = steady_state(&chain);
        let lu = reference::steady_state_lu(&chain).unwrap();
        for (a, b) in gth.iter().zip(&lu) {
            prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_preserves_probability(chain in arb_chain(8), t in 0.0f64..50.0) {
        let n = chain.len();
        let mut p0 = vec![0.0; n];
        p0[0] = 1.0;
        let p = transient(&chain, &p0, t, 1e-12).unwrap();
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transient_at_large_time_reaches_steady_state(chain in arb_chain(6)) {
        let n = chain.len();
        let mut p0 = vec![0.0; n];
        p0[n - 1] = 1.0;
        // The ring keeps every state connected at rates >= 0.1, so the chain
        // mixes well within a horizon of 1e3.
        let p = transient(&chain, &p0, 1e3, 1e-12).unwrap();
        let pi = steady_state(&chain);
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
        let n = chain.len();
        let mut target = vec![false; n];
        target[1 + pick % (n - 1)] = true;
        let renewal = mean_first_passage_gth(&chain, 0, &target).unwrap();
        let lu = reference::mean_time_to_absorption_lu(&chain, 0, &target).unwrap();
        prop_assert!(renewal.is_finite() && renewal > 0.0);
        prop_assert!((renewal - lu).abs() <= 1e-8 * lu, "renewal {renewal} vs LU {lu}");
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
        let gth: f64 = steady_state(&chain).iter().sum();
        let lu: f64 = reference::steady_state_lu(&chain).unwrap().iter().sum();
        prop_assert!((gth - 1.0).abs() < 1e-12, "GTH sum {gth}");
        prop_assert!((lu - 1.0).abs() < 1e-10, "LU sum {lu}");
        prop_assert!((gth - lu).abs() < 1e-10, "sums diverge: {gth} vs {lu}");
    }

    #[test]
    fn power_iteration_agrees_with_gth(chain in arb_chain(8)) {
        let gth = steady_state(&chain);
        let pow = reference::steady_state_power(&chain, 2_000_000, 1e-14).unwrap();
        let total: f64 = pow.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-10, "power sum {total}");
        for (a, b) in gth.iter().zip(&pow) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
