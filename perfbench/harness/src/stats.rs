//! Timing loops, order statistics, and the input generator's RNG.

use std::time::{Duration, Instant};

/// Median of `v` (mean of the middle pair for even lengths); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `v`; NaN if empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First and third quartile (exclusive method, as Python's
/// `statistics.quantiles(v, n=4)`); NaN for fewer than two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    if v.len() < 2 {
        return (f64::NAN, f64::NAN);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as f64;
    let q = |j: f64| {
        let pos = j * (n + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len()) - 1;
        let hi = (lo + 1).min(s.len() - 1);
        let frac = (pos - pos.floor()).clamp(0.0, 1.0);
        s[lo] + (s[hi] - s[lo]) * frac
    };
    (q(1.0), q(3.0))
}

/// How long one timed sample of a per-layer row runs.
const SAMPLE: Duration = Duration::from_millis(4);
/// Samples per row; the row reports their median.
const SAMPLES: usize = 9;

/// Median over [`SAMPLES`] samples of the seconds per call of `f(n)`,
/// which must perform `n` calls. `n` is calibrated so one sample takes
/// about [`SAMPLE`]; the calibration doubles as warm-up.
pub fn per_call(mut f: impl FnMut(u64)) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        f(n);
        let spent = t.elapsed();
        if spent >= SAMPLE / 4 || n >= 1 << 30 {
            let per = spent.as_secs_f64() / n as f64;
            n = ((SAMPLE.as_secs_f64() / per.max(1e-9)) as u64).max(1);
            break;
        }
        n *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f(n);
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&samples)
}

/// SplitMix64: the benchmark's own input generator, independent of the
/// simulator's RNG so that a change there cannot change the inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
