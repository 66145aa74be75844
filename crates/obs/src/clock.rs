//! Cheap timestamps for hot-path phase histograms.
//!
//! On x86-64 with an invariant time-stamp counter a [`Stamp`] is one
//! `rdtsc`, about half the price of `Instant::now` (a vDSO
//! `clock_gettime` that reads the same counter and converts it), scaled
//! to nanoseconds by a ratio calibrated once per process.  Elsewhere,
//! and where the counter is not the cheaper read, it is nanoseconds on
//! the `Instant` clock.

use std::sync::OnceLock;

/// A point in time, only for measuring a duration with
/// [`Stamp::ns_since`].
#[derive(Clone, Copy, Debug)]
pub struct Stamp(u64);

impl Stamp {
    /// The current time.
    #[inline]
    pub fn now() -> Stamp {
        Stamp(if scale().is_some() {
            tsc()
        } else {
            crate::now_ns()
        })
    }

    /// Nanoseconds from `earlier` to `self`; 0 when `earlier` is not
    /// earlier (two cores' counters may differ by a few ticks).
    #[inline]
    pub fn ns_since(self, earlier: Stamp) -> u64 {
        let ticks = self.0.saturating_sub(earlier.0);
        scale().map_or(ticks, |s| {
            ((u128::from(ticks) * u128::from(s)) >> 32) as u64
        })
    }

    /// Nanoseconds from `self` to now.
    #[inline]
    pub fn elapsed_ns(self) -> u64 {
        Stamp::now().ns_since(self)
    }
}

/// Nanoseconds per counter tick in 32.32 fixed point, or `None` when
/// stamps are `Instant` nanoseconds.  Decided on first use.
#[inline]
fn scale() -> Option<u64> {
    static SCALE: OnceLock<Option<u64>> = OnceLock::new();
    *SCALE.get_or_init(calibrate)
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn tsc() -> u64 {
    // SAFETY: `rdtsc` is unprivileged on every x86-64 CPU and touches
    // no memory.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn tsc() -> u64 {
    unreachable!("the counter is only selected on x86-64")
}

/// Use the counter when CPUID reports it invariant (constant rate
/// through power states) and a read costs less than an `Instant` read
/// (a hypervisor may trap it); then watch it against `Instant` for
/// 2 ms, which pins the ratio to a few parts in 10⁵.
#[cfg(target_arch = "x86_64")]
fn calibrate() -> Option<u64> {
    use std::arch::x86_64::__cpuid;
    use std::time::{Duration, Instant};
    let invariant =
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0;
    let cost = |read: &dyn Fn()| {
        let start = Instant::now();
        (0..256).for_each(|_| read());
        start.elapsed()
    };
    let cheaper = cost(&|| {
        std::hint::black_box(tsc());
    }) < cost(&|| {
        std::hint::black_box(Instant::now());
    });
    if !invariant || !cheaper {
        return None;
    }
    let (start, c0) = (Instant::now(), tsc());
    while start.elapsed() < Duration::from_millis(2) {
        std::hint::spin_loop();
    }
    let (c1, end) = (tsc(), Instant::now());
    let ticks = c1.checked_sub(c0).filter(|&t| t > 0)?;
    u64::try_from((end.duration_since(start).as_nanos() << 32) / u128::from(ticks)).ok()
}

#[cfg(not(target_arch = "x86_64"))]
fn calibrate() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stamps_measure_a_sleep_and_never_run_backwards() {
        let start = Stamp::now();
        std::thread::sleep(Duration::from_millis(20));
        let ns = start.elapsed_ns();
        // Generous upper bound: a loaded host may oversleep.
        assert!((19_000_000..2_000_000_000).contains(&ns), "{ns} ns");
        assert_eq!(start.ns_since(Stamp::now()), 0);
    }
}
