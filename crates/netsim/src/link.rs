//! Point-to-point link parameters and timing math.
//!
//! Wire corruption and other link faults live in the `faults` crate, which
//! keeps per-link fault state (down/up, loss model, rate degradation) that
//! the engine consults once per transmitted frame.

#![deny(clippy::cast_possible_truncation)]

use eventsim::SimTime;

/// Static parameters of one direction of a point-to-point link.
///
/// The engine models a link as serialization at the transmitting port
/// followed by a fixed propagation delay; `LinkSpec` provides the timing
/// math for both.
///
/// # Examples
///
/// ```
/// use netsim::LinkSpec;
/// use eventsim::SimTime;
///
/// // 40 Gbps, 1 us propagation: a 1500 B frame serializes in 300 ns.
/// let l = LinkSpec::new(40_000_000_000, SimTime::from_us(1));
/// assert_eq!(l.tx_time(1500), SimTime::from_ns(300));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimTime,
}

impl LinkSpec {
    /// Creates a link spec.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is zero.
    pub fn new(bandwidth_bps: u64, delay: SimTime) -> LinkSpec {
        assert!(bandwidth_bps > 0, "link bandwidth must be positive");
        LinkSpec {
            bandwidth_bps,
            delay,
        }
    }

    /// Serialization time of `bytes` on this link, rounded up to a
    /// nanosecond so back-to-back packets never occupy zero time.
    #[inline]
    pub fn tx_time(&self, bytes: u32) -> SimTime {
        let bits = u64::from(bytes) * 8;
        // ceil(bits * 1e9 / bw)
        let ns = (bits * 1_000_000_000).div_ceil(self.bandwidth_bps);
        SimTime::from_ns(ns.max(1))
    }

    /// The bandwidth-delay product of a path with round-trip time `rtt`, in
    /// bytes.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a BDP past u64::MAX bytes needs rate × RTT past 1.4e29 bit·ns"
    )]
    pub fn bdp_bytes(&self, rtt: SimTime) -> u64 {
        (self.bandwidth_bps as u128 * rtt.as_ns() as u128 / 8 / 1_000_000_000) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_scales_with_size_and_rate() {
        let l = LinkSpec::new(10_000_000_000, SimTime::ZERO); // 10 Gbps
        assert_eq!(l.tx_time(1250), SimTime::from_ns(1000)); // 10 kb / 10 Gbps = 1 us
        let l40 = LinkSpec::new(40_000_000_000, SimTime::ZERO);
        assert_eq!(l40.tx_time(1250), SimTime::from_ns(250));
    }

    #[test]
    fn tx_time_never_zero() {
        let l = LinkSpec::new(400_000_000_000, SimTime::ZERO);
        assert!(l.tx_time(1).as_ns() >= 1);
    }

    #[test]
    fn bdp_matches_paper_example() {
        // Paper §7.1: 40 Gbps x 80 us RTT = 400 kB BDP.
        let l = LinkSpec::new(40_000_000_000, SimTime::from_us(10));
        assert_eq!(l.bdp_bytes(SimTime::from_us(80)), 400_000);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::new(0, SimTime::ZERO);
    }
}
