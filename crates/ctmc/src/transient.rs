//! Transient analysis via uniformization (Jensen's method).
//!
//! The distribution at time `t` is
//! `π(t) = Σ_k Poisson(Λt; k) · π(0) Pᵏ` where `P = I + Q/Λ`.
//! Poisson weights are generated outward from the mode by ratio recurrences,
//! which neither underflows nor needs `ln Γ`, and the series is truncated once
//! the discarded tail mass is below the requested tolerance (a Fox–Glynn-style
//! scheme).

use crate::error::Result;
use crate::{validate_distribution, Ctmc};

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

pub(crate) fn transient(chain: &Ctmc, p0: &[f64], t: f64, tol: f64) -> Result<Vec<f64>> {
    let n = chain.num_states();
    validate_distribution(p0, n)?;
    if t <= 0.0 {
        return Ok(p0.to_vec());
    }
    let (p, lambda) = chain.uniformized();
    let window = poisson_window(lambda * t, tol.max(1e-15));

    let mut v = p0.to_vec();
    let mut out = vec![0.0; n];
    // Propagate to the left edge of the window without accumulating.
    for _ in 0..window.left {
        v = p.vec_mul(&v)?;
    }
    for (i, &w) in window.weights.iter().enumerate() {
        for (o, &vi) in out.iter_mut().zip(&v) {
            *o += w * vi;
        }
        if i + 1 < window.weights.len() {
            v = p.vec_mul(&v)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CtmcBuilder;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let down = b.state("down").unwrap();
        b.transition(up, down, lambda).unwrap();
        b.transition(down, up, mu).unwrap();
        b.build().unwrap()
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
    fn transient_matches_closed_form() {
        let (lambda, mu) = (0.3, 1.7);
        let chain = two_state(lambda, mu);
        for &t in &[0.0, 0.01, 0.5, 2.0, 10.0, 100.0] {
            let p = chain.transient(&[1.0, 0.0], t, 1e-12).unwrap();
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
    fn transient_converges_to_steady_state() {
        let chain = two_state(0.2, 0.8);
        let pi = chain.steady_state().unwrap();
        let p = chain.transient(&[0.0, 1.0], 1e3, 1e-12).unwrap();
        for (a, b) in p.iter().zip(&pi) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_rejects_bad_distribution() {
        let chain = two_state(1.0, 1.0);
        assert!(chain.transient(&[0.7, 0.7], 1.0, 1e-10).is_err());
        assert!(chain.transient(&[1.0], 1.0, 1e-10).is_err());
    }
}
