//! Grassmann–Taksar–Heyman (GTH) steady-state solver.
//!
//! GTH is a state-elimination algorithm that computes the stationary vector of
//! an irreducible Markov chain using only additions, multiplications, and
//! divisions of nonnegative quantities — no subtractions — so it suffers no
//! catastrophic cancellation. For availability chains whose stationary
//! probabilities span 10+ orders of magnitude (π(DL) ≈ 1e-12 next to
//! π(OP) ≈ 1), GTH delivers componentwise relative accuracy where a direct LU
//! solve of `πQ = 0` can lose the small components entirely.
//!
//! The same elimination answers mean first-passage times through the
//! renewal argument ([`mean_first_passage_gth`]), so one subtraction-free
//! method serves both the steady state and the mean time to data loss.
//!
//! Reference: W. Grassmann, M. Taksar, D. Heyman, "Regenerative analysis and
//! steady state distributions for Markov chains", Operations Research 33(5),
//! 1985.

use crate::error::{CtmcError, Result};

/// The stationary distribution of an irreducible chain, by GTH elimination
/// over its rate matrix `a` (`a[i][j]` is the rate of `i -> j`; the
/// diagonal is ignored). The matrix is consumed as scratch space. Its rows
/// may be owned vectors or slices of one flat allocation.
///
/// # Errors
/// Returns [`CtmcError::EmptyChain`] for an empty matrix and
/// [`CtmcError::NotIrreducible`] when a pivot row has zero total rate to
/// the not-yet-eliminated states (the chain is reducible or has an
/// absorbing state).
pub fn steady_state_gth_rates<R: AsMut<[f64]>>(a: &mut [R]) -> Result<Vec<f64>> {
    let n = a.len();
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }

    // Elimination sweep: fold state k into states 0..k.
    for k in (1..n).rev() {
        let (head, tail) = a.split_at_mut(k);
        let row_k = tail[0].as_mut();
        let s: f64 = row_k[..k].iter().sum();
        if s <= 0.0 {
            return Err(CtmcError::NotIrreducible { state: k });
        }
        for (i, row_i) in head.iter_mut().enumerate() {
            let row_i = row_i.as_mut();
            let f = row_i[k] / s;
            if f > 0.0 {
                for (j, (aij, &akj)) in row_i.iter_mut().zip(&*row_k).enumerate().take(k) {
                    if j != i {
                        *aij += f * akj;
                    }
                }
            }
        }
    }

    // Back-substitution: unnormalized stationary weights.
    let mut pi = vec![0.0f64; n];
    pi[0] = 1.0;
    for k in 1..n {
        let s: f64 = a[k].as_mut()[..k].iter().sum();
        // `s > 0` was verified during elimination.
        let mut num = 0.0;
        for i in 0..k {
            num += pi[i] * a[i].as_mut()[k];
        }
        pi[k] = num / s;
    }

    let total: f64 = pi.iter().sum();
    if !(total.is_finite()) || total <= 0.0 {
        return Err(CtmcError::SingularSystem);
    }
    for p in &mut pi {
        *p /= total;
    }
    Ok(pi)
}

/// Mean first-passage time from `start` into any `target` state, for the
/// chain with off-diagonal rates `a` (`a[i][j]` = rate of `i -> j`; the
/// diagonal is ignored). The rows may be owned vectors or slices of one
/// flat allocation; the matrix is only read.
///
/// Renewal argument: drop the target states and redirect every edge into
/// one of them to `start`. Each entry into the target set then begins a
/// new cycle, whose mean length is the first-passage time, so that time is
/// the reciprocal of the stationary flux along the redirected edges:
/// `1 / Σᵢ πᵢ · (rate from i into the targets)`, with π solved by GTH.
/// Every term is nonnegative, so the answer keeps GTH's relative accuracy
/// where a linear solve of the absorbing chain loses it.
///
/// # Errors
/// Returns [`CtmcError::InvalidTargetSet`] for a malformed target set or
/// when no target is reachable from `start`, and propagates GTH errors.
pub fn mean_first_passage_gth<R: AsRef<[f64]>>(
    a: &[R],
    start: usize,
    target: &[bool],
) -> Result<f64> {
    let n = a.len();
    if target.len() != n || start >= n || target[start] {
        return Err(CtmcError::InvalidTargetSet(format!(
            "the start must be one of the {n} states and outside the target set"
        )));
    }
    // The start state goes first: GTH needs every kept state to reach the
    // state eliminated last, and every state reaches the start once the
    // target edges point there.
    let kept: Vec<usize> = std::iter::once(start)
        .chain((0..n).filter(|&i| i != start && !target[i]))
        .collect();
    let into_target: Vec<f64> = kept
        .iter()
        .map(|&i| {
            let row = a[i].as_ref();
            (0..n).filter(|&j| target[j]).map(|j| row[j]).sum()
        })
        .collect();
    // The reduced matrix: the kept rows and columns, in one allocation.
    let m = kept.len();
    let mut flat: Vec<f64> = kept
        .iter()
        .flat_map(|&i| {
            let row = a[i].as_ref();
            kept.iter().map(move |&j| row[j])
        })
        .collect();
    let mut r: Vec<&mut [f64]> = flat.chunks_exact_mut(m).collect();
    // The start's own target edges become self-loops, which leave π as it
    // is but still count in the flux.
    for (row, &rate) in r.iter_mut().zip(&into_target).skip(1) {
        row[0] += rate;
    }
    let pi = steady_state_gth_rates(&mut r)?;
    let flux: f64 = pi.iter().zip(&into_target).map(|(p, r)| p * r).sum();
    if flux <= 0.0 {
        return Err(CtmcError::InvalidTargetSet(
            "no target state is reachable from the start state".into(),
        ));
    }
    Ok(1.0 / flux)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rates of `edges` over `n` states as a dense matrix.
    fn rates(n: usize, edges: &[(usize, usize, f64)]) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0; n]; n];
        for &(i, j, r) in edges {
            a[i][j] += r;
        }
        a
    }

    #[test]
    fn two_state_birth_death() {
        let pi = steady_state_gth_rates(&mut rates(2, &[(0, 1, 2.0), (1, 0, 3.0)])).unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-15);
        assert!((pi[1] - 0.4).abs() < 1e-15);
    }

    #[test]
    fn single_state_is_certain() {
        assert_eq!(
            steady_state_gth_rates(&mut rates(1, &[])).unwrap(),
            vec![1.0]
        );
    }

    #[test]
    fn empty_chain_rejected() {
        assert_eq!(
            steady_state_gth_rates::<Vec<f64>>(&mut []).unwrap_err(),
            CtmcError::EmptyChain
        );
    }

    #[test]
    fn absorbing_state_detected_as_reducible() {
        let mut a = rates(2, &[(0, 1, 1.0)]);
        assert!(matches!(
            steady_state_gth_rates(&mut a).unwrap_err(),
            CtmcError::NotIrreducible { .. }
        ));
    }

    #[test]
    fn three_state_cycle_matches_flow_balance() {
        // a -> b -> c -> a with distinct rates; stationary probability is
        // inversely proportional to the exit rate.
        let mut a = rates(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0)]);
        let pi = steady_state_gth_rates(&mut a).unwrap();
        // weights ∝ (1/1, 1/2, 1/4) -> (4/7, 2/7, 1/7)
        assert!((pi[0] - 4.0 / 7.0).abs() < 1e-14);
        assert!((pi[1] - 2.0 / 7.0).abs() < 1e-14);
        assert!((pi[2] - 1.0 / 7.0).abs() < 1e-14);
    }

    #[test]
    fn extreme_rate_separation_keeps_relative_accuracy() {
        // up -> down at 1e-12, down -> up at 1.0: pi(down) = 1e-12/(1+1e-12).
        let mut a = rates(2, &[(0, 1, 1e-12), (1, 0, 1.0)]);
        let pi = steady_state_gth_rates(&mut a).unwrap();
        let expected = 1e-12 / (1.0 + 1e-12);
        let rel = (pi[1] - expected).abs() / expected;
        assert!(rel < 1e-12, "relative error {rel}");
    }

    #[test]
    fn single_transient_state_mtta_is_inverse_rate() {
        let a = rates(2, &[(0, 1, 0.2)]);
        let t = mean_first_passage_gth(&a, 0, &[false, true]).unwrap();
        assert!((t - 5.0).abs() < 1e-12);
    }

    #[test]
    fn series_of_stages_adds_means() {
        // a -> b -> dead: MTTA = 1/ra + 1/rb.
        let a = rates(3, &[(0, 1, 0.5), (1, 2, 0.25)]);
        let t = mean_first_passage_gth(&a, 0, &[false, false, true]).unwrap();
        assert!((t - 6.0).abs() < 1e-12);
    }

    #[test]
    fn repairable_system_mttdl() {
        // OP -> EXP (nλ), EXP -> OP (μ), EXP -> DL ((n−1)λ), DL -> OP: the
        // classic MTTDL = (μ + nλ + (n−1)λ) / (nλ·(n−1)λ). The restore edge
        // out of DL plays no part in the first passage.
        let (n, lam, mu) = (4.0, 1e-4, 0.1);
        let a = rates(
            3,
            &[
                (0, 1, n * lam),
                (1, 0, mu),
                (1, 2, (n - 1.0) * lam),
                (2, 0, 0.03),
            ],
        );
        let t = mean_first_passage_gth(&a, 0, &[false, false, true]).unwrap();
        let expect = (mu + n * lam + (n - 1.0) * lam) / (n * lam * (n - 1.0) * lam);
        let rel = (t - expect).abs() / expect;
        assert!(rel < 1e-12, "mean {t} expected {expect}");
    }

    #[test]
    fn start_need_not_be_the_first_state() {
        // The same two-stage series with the states listed in reverse.
        let a = rates(3, &[(2, 1, 0.5), (1, 0, 0.25)]);
        let t = mean_first_passage_gth(&a, 2, &[true, false, false]).unwrap();
        assert!((t - 6.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_sets_rejected() {
        let a = rates(2, &[(0, 1, 1.0)]);
        assert!(mean_first_passage_gth(&a, 0, &[false, false]).is_err());
        assert!(mean_first_passage_gth(&a, 0, &[true, true]).is_err());
        assert!(mean_first_passage_gth(&a, 0, &[false]).is_err());
        assert!(mean_first_passage_gth(&a, 2, &[false, true]).is_err());
    }

    #[test]
    fn unreachable_target_is_rejected() {
        // Two states that only talk to each other, plus a target nothing
        // enters.
        let a = rates(3, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let err = mean_first_passage_gth(&a, 0, &[false, false, true]).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidTargetSet(_)), "{err}");
    }
}
