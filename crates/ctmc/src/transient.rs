//! Transient analysis via uniformization (Jensen's method).
//!
//! The distribution at time `t` is
//! `π(t) = Σ_k Poisson(Λt; k) · π(0) Pᵏ` where `P = I + Q/Λ`.
//! Poisson weights are generated outward from the mode by ratio recurrences,
//! which neither underflows nor needs `ln Γ`, and the series is truncated once
//! the discarded tail mass is below the requested tolerance (a Fox–Glynn-style
//! scheme).

use crate::error::Result;
use crate::validate_distribution;

/// Poisson(mean) probabilities for `k` in `[left, left+weights.len())`,
/// normalized to sum to one over the retained window.
#[derive(Debug, Clone)]
pub(crate) struct PoissonWindow {
    pub left: usize,
    pub weights: Vec<f64>,
}

pub(crate) fn poisson_window(mean: f64, tol: f64) -> PoissonWindow {
    assert!(
        mean >= 0.0 && mean.is_finite(),
        "invalid poisson mean {mean}"
    );
    if mean == 0.0 {
        return PoissonWindow {
            left: 0,
            weights: vec![1.0],
        };
    }
    let mode = mean.floor() as usize;
    // Unnormalized weights relative to the mode (w[mode] = 1).
    // Expand right: w(k+1) = w(k) * mean/(k+1); left: w(k-1) = w(k) * k/mean.
    let cutoff = tol * 1e-4; // relative cutoff per side; tail mass << tol
    let mut right_weights = vec![1.0f64];
    let mut k = mode;
    let mut w = 1.0;
    loop {
        w *= mean / (k + 1) as f64;
        if w < cutoff || !w.is_normal() {
            break;
        }
        right_weights.push(w);
        k += 1;
        // Hard cap: the window for Poisson(m) is O(m + sqrt(m)); 10·m + 100 is
        // far beyond any mass we could retain.
        if k > (10.0 * mean) as usize + 100 {
            break;
        }
    }
    let mut left_weights = Vec::new();
    let mut kk = mode;
    let mut wl = 1.0;
    while kk > 0 {
        wl *= kk as f64 / mean;
        if wl < cutoff || !wl.is_normal() {
            break;
        }
        left_weights.push(wl);
        kk -= 1;
    }
    let left = mode - left_weights.len();
    let mut weights: Vec<f64> = left_weights.iter().rev().copied().collect();
    weights.extend(right_weights);
    let total: f64 = weights.iter().sum();
    for v in &mut weights {
        *v /= total;
    }
    PoissonWindow { left, weights }
}

/// The uniformized matrix `P = I + Q/Λ` of the rates `a` and the
/// uniformization rate `Λ = 1.02 · max_i exit_rate(i)`, whose margin makes
/// the uniformized DTMC aperiodic.
fn uniformized(a: &[Vec<f64>]) -> (Vec<Vec<f64>>, f64) {
    let mut p = a.to_vec();
    let mut exit = Vec::with_capacity(p.len());
    for (i, row) in p.iter_mut().enumerate() {
        row[i] = 0.0;
        exit.push(row.iter().sum::<f64>());
    }
    let max = exit.iter().fold(0.0f64, |m, &r| m.max(r));
    let lambda = if max == 0.0 { 1.0 } else { max * 1.02 };
    for (i, (row, out)) in p.iter_mut().zip(exit).enumerate() {
        for r in row.iter_mut() {
            *r /= lambda;
        }
        row[i] = 1.0 - out / lambda;
    }
    (p, lambda)
}

/// One step of the uniformized chain: the row-vector product `v·P`.
fn step(p: &[Vec<f64>], v: &[f64]) -> Vec<f64> {
    let mut next = vec![0.0; v.len()];
    for (&vi, row) in v.iter().zip(p) {
        if vi == 0.0 {
            continue;
        }
        for (n, &pij) in next.iter_mut().zip(row) {
            *n += vi * pij;
        }
    }
    next
}

/// The state distribution at time `t` of the chain with rates `a`
/// (`a[i][j]` is the rate of `i -> j`; the diagonal is ignored), started
/// from `p0`, by uniformization with truncation error below `tol`.
///
/// A row of zeros is an absorbing state: its mass at `t` is the
/// probability of having entered it by `t`, so making the data-loss
/// states absorbing turns their mass into P(first loss ≤ t).
///
/// # Errors
/// Returns [`CtmcError::InvalidDistribution`](crate::CtmcError::InvalidDistribution)
/// if `p0` is not a probability vector over the chain's states.
pub fn transient(a: &[Vec<f64>], p0: &[f64], t: f64, tol: f64) -> Result<Vec<f64>> {
    validate_distribution(p0, a.len())?;
    if t <= 0.0 {
        return Ok(p0.to_vec());
    }
    let (p, lambda) = uniformized(a);
    let window = poisson_window(lambda * t, tol.max(1e-15));

    let mut v = p0.to_vec();
    let mut out = vec![0.0; a.len()];
    // Propagate to the left edge of the window without accumulating.
    for _ in 0..window.left {
        v = step(&p, &v);
    }
    for (i, &w) in window.weights.iter().enumerate() {
        for (o, &vi) in out.iter_mut().zip(&v) {
            *o += w * vi;
        }
        if i + 1 < window.weights.len() {
            v = step(&p, &v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::steady_state_gth_rates;

    fn two_state(lambda: f64, mu: f64) -> Vec<Vec<f64>> {
        vec![vec![0.0, lambda], vec![mu, 0.0]]
    }

    /// Closed form for the two-state chain:
    /// p_up(t) = μ/(λ+μ) + (p_up(0) − μ/(λ+μ))·e^{−(λ+μ)t}
    fn analytic_up(lambda: f64, mu: f64, p0_up: f64, t: f64) -> f64 {
        let s = lambda + mu;
        mu / s + (p0_up - mu / s) * (-s * t).exp()
    }

    #[test]
    fn poisson_window_mass_and_mean() {
        for &mean in &[0.1, 1.0, 7.3, 150.0, 12_345.0] {
            let w = poisson_window(mean, 1e-12);
            let total: f64 = w.weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "mass at mean {mean}");
            let avg: f64 = w
                .weights
                .iter()
                .enumerate()
                .map(|(i, &p)| (w.left + i) as f64 * p)
                .sum();
            assert!(
                (avg - mean).abs() / mean.max(1.0) < 1e-6,
                "mean {mean} got {avg}"
            );
        }
    }

    #[test]
    fn poisson_window_zero_mean() {
        let w = poisson_window(0.0, 1e-12);
        assert_eq!(w.left, 0);
        assert_eq!(w.weights, vec![1.0]);
    }

    #[test]
    fn uniformized_rows_are_stochastic() {
        // A repairable pair, a chain with an absorbing row, and one whose
        // diagonal carries junk that the kernel must ignore.
        let chains = [
            two_state(0.25, 1.0),
            vec![vec![0.0, 0.5, 0.1], vec![2.0, 0.0, 0.3], vec![0.0; 3]],
            vec![vec![-7.0, 0.25], vec![1.0, 3.0]],
        ];
        for a in &chains {
            let (p, lambda) = uniformized(a);
            assert!(lambda >= 1.0);
            for (i, row) in p.iter().enumerate() {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
                assert!(row.iter().all(|&v| v >= 0.0), "row {i}: {row:?}");
            }
        }
        assert_eq!(uniformized(&chains[2]), uniformized(&chains[0]));
    }

    #[test]
    fn transient_matches_closed_form() {
        let (lambda, mu) = (0.3, 1.7);
        let chain = two_state(lambda, mu);
        for &t in &[0.0, 0.01, 0.5, 2.0, 10.0, 100.0] {
            let p = transient(&chain, &[1.0, 0.0], t, 1e-12).unwrap();
            let expect = analytic_up(lambda, mu, 1.0, t);
            assert!(
                (p[0] - expect).abs() < 1e-9,
                "t={t}: got {} expected {expect}",
                p[0]
            );
            assert!((p[0] + p[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn absorbing_row_gives_the_first_passage_probability() {
        // The pure-death chain 0 -> 1 at rate λ: state 1 absorbs, so its
        // mass at t is P(T ≤ t) = 1 − e^{−λt} for T ~ Exp(λ).
        let lambda = 0.4;
        let chain = vec![vec![0.0, lambda], vec![0.0, 0.0]];
        for &t in &[1e-3, 0.1, 1.0, 2.5, 10.0, 60.0] {
            let p = transient(&chain, &[1.0, 0.0], t, 1e-12).unwrap();
            let expect = -(-lambda * t).exp_m1();
            assert!(
                (p[1] - expect).abs() < 1e-12,
                "t={t}: got {} expected {expect}",
                p[1]
            );
            assert!((p[0] + p[1] - 1.0).abs() < 1e-12, "t={t}: mass {p:?}");
        }
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let chain = two_state(0.2, 0.8);
        let pi = steady_state_gth_rates(&mut chain.clone()).unwrap();
        let p = transient(&chain, &[0.0, 1.0], 1e3, 1e-12).unwrap();
        for (a, b) in p.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_rejects_bad_distribution() {
        let chain = two_state(1.0, 1.0);
        assert!(transient(&chain, &[0.7, 0.7], 1.0, 1e-10).is_err());
        assert!(transient(&chain, &[1.0], 1.0, 1e-10).is_err());
    }
}
