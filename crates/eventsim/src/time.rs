//! Nanosecond-resolution simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in nanoseconds since the start of the
/// run.
///
/// `SimTime` is a thin wrapper over `u64`, giving the simulator roughly 584
/// years of range — far beyond the sub-second horizons of the experiments in
/// the paper. Arithmetic is saturating-free and will panic on overflow in
/// debug builds like any other Rust integer math; simulations never get close.
///
/// # Examples
///
/// ```
/// use eventsim::SimTime;
///
/// let t = SimTime::from_us(80); // the paper's base RTT
/// assert_eq!(t.as_ns(), 80_000);
/// assert_eq!(t + SimTime::from_us(20), SimTime::from_us(100));
/// assert_eq!(t.as_secs_f64(), 80e-6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimTime(u64);

// The order is written out, not derived: a derived `PartialOrd` calls
// `partial_cmp`, which `clippy.toml` forbids (D3), a derive can carry only
// an `#[allow]` that no stale-pragma check covers, and clippy rejects a
// derived `Ord` beside a written `PartialOrd`.
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time: {s}");
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds since the start of the run.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// This instant expressed in (truncated) microseconds.
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Difference to an earlier instant, saturating at zero.
    #[inline]
    pub fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, delta: SimTime) -> Option<SimTime> {
        self.0.checked_add(delta.0).map(SimTime)
    }
}

/// Splits `window_ns` across `weights` proportionally with exact `u128`
/// integer math: slot `i` receives `floor(window_ns * weights[i] / total)`,
/// then the rounding remainder is handed out one nanosecond at a time to the
/// nonzero-weight slots in index order. The returned shares therefore sum to
/// **exactly** `window_ns` — the property the latency ledger's conservation
/// invariant needs when it clips a pipelined packet journey's per-phase
/// decomposition down to the wait window being attributed. Pure integer
/// arithmetic, so the split is byte-deterministic across platforms.
///
/// When every weight is zero, the whole window goes to the first slot so no
/// time is ever silently lost. The split is an array of the weights' length,
/// so it allocates nothing (the ledger calls it per pipelined arrival).
///
/// # Examples
///
/// ```
/// use eventsim::prorate_ns;
///
/// assert_eq!(prorate_ns(10, &[1, 1, 1]), [4, 3, 3]); // 3+3+3 floor, +1 to slot 0
/// assert_eq!(prorate_ns(100, &[3, 0, 1]), [75, 0, 25]);
/// assert_eq!(prorate_ns(7, &[0, 0]), [7, 0]); // zero total: slot 0 absorbs
/// let shares = prorate_ns(999, &[17, 5, 0, 61]);
/// assert_eq!(shares.iter().sum::<u64>(), 999);
/// ```
pub fn prorate_ns<const N: usize>(window_ns: u64, weights: &[u64; N]) -> [u64; N] {
    let mut shares = [0u64; N];
    if N == 0 {
        return shares;
    }
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        shares[0] = window_ns;
        return shares;
    }
    let mut assigned: u64 = 0;
    for (s, &w) in shares.iter_mut().zip(weights.iter()) {
        *s = (window_ns as u128 * w as u128 / total) as u64;
        assigned += *s;
    }
    let mut rem = window_ns - assigned;
    for (s, &w) in shares.iter_mut().zip(weights.iter()) {
        if rem == 0 {
            break;
        }
        if w > 0 {
            *s += 1;
            rem -= 1;
        }
    }
    debug_assert_eq!(rem, 0, "remainder exceeds nonzero-weight slots");
    shares
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_ms(1_500));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(40);
        assert_eq!(a + b, SimTime::from_ns(140));
        assert_eq!(a - b, SimTime::from_ns(60));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_ns(140));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ns(1)), None);
        assert_eq!(
            SimTime::from_ns(1).checked_add(SimTime::from_ns(2)),
            Some(SimTime::from_ns(3))
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ns(5).to_string(), "5ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }

    #[test]
    fn prorate_conserves_exactly() {
        // Exhaustive-ish sweep: every split must sum to the window.
        for window in [0u64, 1, 7, 999, 1_000_000_007] {
            let sums = |shares: &[u64]| shares.iter().sum::<u64>();
            for weights in [
                [1u64, 1, 1],
                [3, 0, 1],
                [0, 0, 0],
                [u64::MAX / 4, u64::MAX / 4, 1],
            ] {
                let shares = prorate_ns(window, &weights);
                assert_eq!(sums(&shares), window, "{window} {weights:?}");
            }
            assert_eq!(prorate_ns(window, &[17]), [window]);
        }
        assert_eq!(prorate_ns(100, &[]), [0u64; 0]);
    }

    #[test]
    fn prorate_is_proportional_and_deterministic() {
        let shares = prorate_ns(1000, &[900, 100]);
        assert_eq!(shares, [900, 100]);
        let shares = prorate_ns(10, &[1, 1, 1]);
        assert_eq!(shares, [4, 3, 3], "remainder goes to earliest slots");
        assert_eq!(prorate_ns(10, &[1, 1, 1]), prorate_ns(10, &[1, 1, 1]));
        // Zero-weight slots never receive remainder nanoseconds.
        let shares = prorate_ns(11, &[0, 5, 0, 5]);
        assert_eq!(shares[0], 0);
        assert_eq!(shares[2], 0);
        assert_eq!(shares.iter().sum::<u64>(), 11);
    }
}
