//! Programmatic wall-clock measurement for the machine-readable bench
//! binary (`bench_engine`): each helper returns the numbers, so the
//! binary can write `BENCH_engine.json`.  [`measure`] warms up, picks an
//! iteration count that fills the per-sample window, takes `samples`
//! samples and reports the median with its quartiles, so a reader can
//! tell a move from the spread.

use std::time::{Duration, Instant};

/// One measured series.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// First quartile of the samples (ns per iteration).
    pub p25_ns: f64,
    /// Third quartile of the samples (ns per iteration).
    pub p75_ns: f64,
    /// Fastest sample (ns per iteration).
    pub min_ns: f64,
    /// Mean nanoseconds per iteration across samples.
    pub mean_ns: f64,
    /// Number of samples taken; below [`MIN_SPREAD_SAMPLES`] the
    /// quartiles say little about the spread.
    pub samples: usize,
    /// Iterations per sample.
    pub iters: u64,
}

/// Fewest samples whose quartiles describe a spread; the bench's JSON
/// marks a measurement with fewer.
pub const MIN_SPREAD_SAMPLES: usize = 5;

impl Measurement {
    /// The summary of `samples_ns` (ns per iteration, sorted ascending,
    /// at least one), each sample `iters` iterations long.
    fn of_sorted(samples_ns: &[f64], iters: u64) -> Measurement {
        let n = samples_ns.len();
        Measurement {
            median_ns: samples_ns[n / 2],
            p25_ns: samples_ns[n / 4],
            p75_ns: samples_ns[(3 * n / 4).min(n - 1)],
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<f64>() / n as f64,
            samples: n,
            iters,
        }
    }
}

/// Measure `routine`, amortizing cheap routines over enough iterations to
/// fill `per_sample` per sample.  Slow routines (≥ `per_sample`) run once
/// per sample.
pub fn measure(
    samples: usize,
    warmup: Duration,
    per_sample: Duration,
    mut routine: impl FnMut(),
) -> Measurement {
    let samples = samples.max(1);
    // Warm-up doubles as the per-iteration cost estimate.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    loop {
        routine();
        warm_iters += 1;
        if warm_start.elapsed() >= warmup {
            break;
        }
    }
    let per_iter = warm_start.elapsed() / warm_iters as u32;
    let iters = (per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 30) as u64;
    let mut samples_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            routine();
        }
        samples_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Measurement::of_sorted(&samples_ns, iters)
}

/// Measure two routines in paired, order-alternating rounds: each round
/// times `a` and `b` adjacently and swaps which goes first on every
/// round, so slow environmental drift — allocator state, page cache,
/// a noisy co-tenant — lands on both sides equally instead of on
/// whichever routine a measure-then-measure sequence happens to run
/// last.  Returns the two series plus the **median of the per-round
/// `a`/`b` time ratios**: the pointwise ratio cancels each round's
/// shared noise before the median is taken, which is the robust way to
/// compare two variants of the same operation.
pub fn measure_paired(
    samples: usize,
    warmup_rounds: usize,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Measurement, Measurement, f64) {
    let samples = samples.max(1);
    let mut a_ns: Vec<f64> = Vec::with_capacity(samples);
    let mut b_ns: Vec<f64> = Vec::with_capacity(samples);
    let mut ratios: Vec<f64> = Vec::with_capacity(samples);
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_nanos() as f64
    };
    for round in 0..warmup_rounds + samples {
        let (ra, rb) = if round % 2 == 0 {
            let ra = time(&mut a);
            let rb = time(&mut b);
            (ra, rb)
        } else {
            let rb = time(&mut b);
            let ra = time(&mut a);
            (ra, rb)
        };
        if round >= warmup_rounds {
            a_ns.push(ra);
            b_ns.push(rb);
            ratios.push(ra / rb);
        }
    }
    let summarize = |mut v: Vec<f64>| -> Measurement {
        v.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        Measurement::of_sorted(&v, 1)
    };
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    let ratio = ratios[ratios.len() / 2];
    (summarize(a_ns), summarize(b_ns), ratio)
}

/// Time a single execution (for expensive one-shot series like eager
/// grounding at large group sizes).
pub fn measure_once(mut routine: impl FnMut()) -> Measurement {
    let start = Instant::now();
    routine();
    Measurement::of_sorted(&[start.elapsed().as_nanos() as f64], 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_sane_numbers() {
        let mut calls = 0u64;
        let m = measure(
            3,
            Duration::from_millis(2),
            Duration::from_millis(4),
            || {
                calls += 1;
                std::hint::black_box(calls);
            },
        );
        assert!(calls > 0);
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.p25_ns && m.p25_ns <= m.median_ns);
        assert!(m.median_ns <= m.p75_ns);
        assert_eq!(m.samples, 3);
    }

    #[test]
    fn quartiles_bracket_the_median() {
        let samples: Vec<f64> = (1..=8).map(f64::from).collect();
        let m = Measurement::of_sorted(&samples, 1);
        assert_eq!((m.p25_ns, m.median_ns, m.p75_ns), (3.0, 5.0, 7.0));
        let one = Measurement::of_sorted(&[4.0], 1);
        assert_eq!((one.p25_ns, one.median_ns, one.p75_ns), (4.0, 4.0, 4.0));
    }

    #[test]
    fn measure_once_is_single_shot() {
        let mut calls = 0u64;
        let m = measure_once(|| calls += 1);
        assert_eq!(calls, 1);
        assert_eq!(m.iters, 1);
        assert!(m.median_ns > 0.0);
    }
}
