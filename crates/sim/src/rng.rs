//! Deterministic pseudo-random number generation.
//!
//! The simulator ships its own xoshiro256++ generator (seeded through
//! SplitMix64, as its authors recommend) instead of depending on an external
//! RNG crate: experiment reproducibility must not change under dependency
//! upgrades, and seeds must produce identical streams on every platform.
//!
//! References: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators", ACM TOMS 2021.

/// SplitMix64: a tiny, high-quality 64-bit generator used to expand seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the crate's default generator.
///
/// # Examples
///
/// ```
/// use availsim_sim::rng::SimRng;
///
/// let mut rng = SimRng::seed_from(42);
/// let a = rng.next_f64();
/// assert!((0.0..1.0).contains(&a));
/// // Same seed, same stream:
/// let mut rng2 = SimRng::seed_from(42);
/// assert_eq!(rng2.next_f64().to_bits(), a.to_bits());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seeds the generator by expanding a 64-bit seed with SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for v in &mut s {
            *v = sm.next_u64();
        }
        // All-zero state is invalid (fixed point); SplitMix64 cannot produce
        // four consecutive zeros for any seed, but guard anyway.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Derives the `index`-th independent substream of a base seed.
    ///
    /// Substreams are built by hashing `(seed, index)` through SplitMix64, so
    /// parallel Monte-Carlo workers get statistically independent streams
    /// while remaining fully deterministic.
    pub fn substream(seed: u64, index: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let base = sm.next_u64();
        SimRng::seed_from(base ^ index.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the open interval `(0, 1)` — never returns zero,
    /// which makes it safe as input to `ln` in inverse-CDF samplers.
    pub fn next_open_f64(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire 2019: multiply-shift with rejection to remove bias.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Threshold for rejection: 2^64 mod bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Exponential deviate with the given `rate` (inverse-CDF method),
    /// or `None` when the rate is not positive — the idiom for "this
    /// transition is disabled", shared by every Monte-Carlo sampler in the
    /// workspace so the hand-rolled `-ln(u)/rate` closure is written once.
    ///
    /// Draws exactly one uniform when `rate > 0` and **none** otherwise, so
    /// replacing an open-coded sampler with this method never shifts the
    /// RNG stream.
    ///
    /// # Examples
    ///
    /// ```
    /// use availsim_sim::rng::SimRng;
    ///
    /// let mut rng = SimRng::seed_from(1);
    /// let dt = rng.sample_exp(0.1).unwrap();
    /// assert!(dt > 0.0);
    /// assert!(rng.sample_exp(0.0).is_none());
    /// ```
    pub fn sample_exp(&mut self, rate: f64) -> Option<f64> {
        // An infinite "rate" is almost certainly a reciprocal passed to the
        // wrong method (it would silently yield dt = 0 here); reciprocals
        // go to [`Self::sample_exp_inv`].
        debug_assert!(
            !rate.is_infinite(),
            "sample_exp expects a rate, not a reciprocal (got {rate})"
        );
        (rate > 0.0).then(|| -self.next_open_f64().ln() / rate)
    }

    /// Exponential deviate from a **precomputed reciprocal rate**
    /// (`inv_rate = 1/rate`): `-ln(u) · inv_rate`. The hot-loop variant of
    /// [`Self::sample_exp`] — multiplying by a cached reciprocal instead
    /// of dividing per draw — for samplers that draw from the same fixed
    /// rate many times. Returns `None` (drawing nothing) unless `inv_rate`
    /// is positive and finite, so a disabled transition (`rate = 0`,
    /// `inv_rate = ∞`) behaves exactly like [`Self::sample_exp`].
    ///
    /// The value may differ from `sample_exp(rate)` in the last ulp
    /// (multiplication vs division rounding); the distribution is
    /// identical.
    ///
    /// # Examples
    ///
    /// ```
    /// use availsim_sim::rng::SimRng;
    ///
    /// let mut rng = SimRng::seed_from(1);
    /// let dt = rng.sample_exp_inv(10.0).unwrap(); // rate 0.1
    /// assert!(dt > 0.0);
    /// assert!(rng.sample_exp_inv(f64::INFINITY).is_none()); // rate 0
    /// ```
    pub fn sample_exp_inv(&mut self, inv_rate: f64) -> Option<f64> {
        (inv_rate > 0.0 && inv_rate.is_finite()).then(|| -self.next_open_f64().ln() * inv_rate)
    }

    /// Exponential deviate with the given `rate`, *forced* to land inside
    /// `(0, bound)` — a draw from `Exp(rate)` conditioned on `T ≤ bound`.
    ///
    /// Returns `(dt, p_hit)` where `p_hit = P(T ≤ bound) = 1 − e^{−rate·bound}`
    /// is exactly the likelihood-ratio factor an importance sampler must
    /// multiply into the mission weight to stay unbiased (the proposal puts
    /// all its mass on the truncated support). Returns `None` when the rate
    /// or the bound is not positive — "this transition is disabled", like
    /// [`Self::sample_exp`].
    ///
    /// Draws exactly one uniform when enabled and none otherwise. This is
    /// the *failure forcing* primitive of rare-event Monte-Carlo: with a
    /// mission-time bound, the first failure is guaranteed to occur within
    /// the mission, and the weight factor accounts for how unlikely that
    /// was under the nominal model.
    ///
    /// # Examples
    ///
    /// ```
    /// use availsim_sim::rng::SimRng;
    ///
    /// let mut rng = SimRng::seed_from(1);
    /// let (dt, p_hit) = rng.sample_exp_within(1e-6, 87_600.0).unwrap();
    /// assert!(dt > 0.0 && dt < 87_600.0);
    /// assert!((p_hit - (1.0 - (-1e-6f64 * 87_600.0).exp())).abs() < 1e-15);
    /// assert!(rng.sample_exp_within(0.0, 1.0).is_none());
    /// ```
    pub fn sample_exp_within(&mut self, rate: f64, bound: f64) -> Option<(f64, f64)> {
        if !(rate > 0.0 && bound > 0.0) {
            return None;
        }
        // P(T <= bound) via expm1 so tiny rate·bound keeps full precision.
        let p_hit = -(-rate * bound).exp_m1();
        let u = self.next_open_f64();
        // Inverse CDF of the truncated exponential; ln_1p keeps precision
        // when u·p_hit is tiny. u ∈ (0,1) ⇒ dt ∈ (0, bound).
        let dt = -(-u * p_hit).ln_1p() / rate;
        Some((dt.min(bound), p_hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // First outputs for seed 0 (cross-checked against the reference C
        // implementation by Vigna).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_distinct_and_deterministic() {
        let mut s0 = SimRng::substream(99, 0);
        let mut s1 = SimRng::substream(99, 1);
        let mut s0_again = SimRng::substream(99, 0);
        assert_ne!(s0.next_u64(), s1.next_u64());
        let _ = s0_again.next_u64();
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn open_f64_never_zero() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..10_000 {
            assert!(rng.next_open_f64() > 0.0);
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut rng = SimRng::seed_from(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn bounded_stays_in_range_and_covers() {
        let mut rng = SimRng::seed_from(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = rng.next_bounded(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::seed_from(1).next_bounded(0);
    }

    #[test]
    fn sample_exp_mean_and_disabled_rates() {
        let mut rng = SimRng::seed_from(41);
        let n = 100_000;
        let rate = 0.02;
        let mean: f64 = (0..n).map(|_| rng.sample_exp(rate).unwrap()).sum::<f64>() / f64::from(n);
        assert!((mean - 1.0 / rate).abs() < 1.0, "mean {mean}");
        assert!(rng.sample_exp(0.0).is_none());
        assert!(rng.sample_exp(-1.0).is_none());
    }

    #[test]
    fn sample_exp_matches_open_coded_inverse_cdf() {
        // The method must be a drop-in for `-ln(u)/rate` draw-for-draw.
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        for _ in 0..100 {
            let expected = -b.next_open_f64().ln() / 0.3;
            assert_eq!(a.sample_exp(0.3).unwrap().to_bits(), expected.to_bits());
        }
        // A disabled rate consumes no randomness.
        assert!(a.sample_exp(0.0).is_none());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn sample_exp_within_stays_in_bound_and_matches_truncated_mean() {
        let mut rng = SimRng::seed_from(97);
        let (rate, bound) = (0.01, 50.0);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let (dt, p_hit) = rng.sample_exp_within(rate, bound).unwrap();
            assert!(dt > 0.0 && dt <= bound, "dt {dt}");
            assert!((p_hit - (1.0 - (-rate * bound).exp())).abs() < 1e-15);
            sum += dt;
        }
        // Mean of Exp(rate) truncated to [0, bound]:
        // 1/rate − bound·e^{−rate·bound}/(1 − e^{−rate·bound}).
        let p = 1.0 - (-rate * bound).exp();
        let expected = 1.0 / rate - bound * (1.0 - p) / p;
        let mean = sum / f64::from(n);
        assert!((mean - expected).abs() < 0.2, "mean {mean} vs {expected}");
        // Disabled rates/bounds consume no randomness.
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        assert!(a.sample_exp_within(0.0, 1.0).is_none());
        assert!(a.sample_exp_within(1.0, 0.0).is_none());
        assert!(a.sample_exp_within(-1.0, 1.0).is_none());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn sample_exp_within_is_precise_for_rare_rates() {
        // At rate·bound ≈ 1e-10 the naive 1 − e^{−x} would cancel to zero;
        // the expm1/ln_1p forms must keep the weight and the deviate exact.
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            let (dt, p_hit) = rng.sample_exp_within(1e-15, 1e5).unwrap();
            assert!(dt > 0.0 && dt <= 1e5);
            assert!((p_hit - 1e-10).abs() < 1e-14, "p_hit {p_hit}");
        }
    }
}
