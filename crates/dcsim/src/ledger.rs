//! The engine's conservation ledger, armed in debug builds.
//!
//! [`ConservationLedger`] is always compiled and the engine calls its hooks
//! unconditionally; whether it records is [`ConservationLedger::ON`], which
//! follows `debug_assertions` like the audits it feeds. Off (a release
//! build), every hook returns on its first line and nothing is allocated.
//!
//! The engine moves every frame through the same narrow waist — serialized
//! at a port, destroyed on a faulty wire, delivered to a switch or an
//! endpoint — so conservation can be stated per link and audited at drain
//! time:
//!
//! ```text
//! serialized == dropped_at_tx + scheduled          (every tx accounted)
//! arrived    <= scheduled                          (rest is in flight)
//! ```
//!
//! and per *drop reason*, the ledger's engine-side counts must agree with
//! the [`AggregateStats`] the run reports. That last check is the teeth:
//! the ledger increments at the engine's emit points while the aggregate
//! counters come from switch internals and the fault state — two
//! independent accounting paths that a forgotten counter bump would split.
//!
//! Every [`telemetry::DropWhy`] variant is matched exhaustively in
//! `drop_slot`, which every drop hook goes through, so adding a drop reason
//! without deciding how it is accounted is a compile error here.

use telemetry::DropWhy;

use crate::engine::AggregateStats;

/// Index of a drop reason in the ledger's per-variant counts.
///
/// Exhaustive by construction: a new `DropWhy` variant fails to compile
/// until it is accounted here.
fn drop_slot(why: DropWhy) -> usize {
    match why {
        DropWhy::Color => 0,
        DropWhy::Dynamic => 1,
        DropWhy::Overflow => 2,
        DropWhy::Wire => 3,
        DropWhy::LinkDown => 4,
    }
}

/// Per-link frame/byte accounting.
#[derive(Clone, Copy, Debug, Default)]
struct LinkLedger {
    /// Frames that began serialization at the transmitting port.
    tx_frames: u64,
    tx_bytes: u64,
    /// Frames destroyed at serialization (downed or corrupting wire).
    txdrop_frames: u64,
    txdrop_bytes: u64,
    /// Frames whose delivery event was scheduled.
    sched_frames: u64,
    sched_bytes: u64,
    /// Frames whose delivery event fired (delivered or destroyed at
    /// arrival).
    arr_frames: u64,
    arr_bytes: u64,
}

/// The engine-wide conservation ledger.
#[derive(Clone, Debug)]
pub struct ConservationLedger {
    links: Vec<LinkLedger>,
    /// Frames dropped, indexed by [`drop_slot`].
    drops: [u64; 5],
}

impl ConservationLedger {
    /// Whether the ledger records: builds with debug assertions. Every hook
    /// opens with `if !Self::ON { return; }`: one body per hook, none of it
    /// in a release build.
    pub const ON: bool = cfg!(debug_assertions);

    /// A ledger for a topology with `links` unidirectional links.
    #[inline]
    pub fn new(links: usize) -> ConservationLedger {
        ConservationLedger {
            links: vec![LinkLedger::default(); if Self::ON { links } else { 0 }],
            drops: [0; 5],
        }
    }

    /// A frame began serialization on `link`.
    #[inline]
    pub fn on_tx(&mut self, link: usize, bytes: u32) {
        if !Self::ON {
            return;
        }
        let l = &mut self.links[link];
        l.tx_frames += 1;
        l.tx_bytes += u64::from(bytes);
    }

    /// The frame died on the wire at serialization time.
    #[inline]
    pub fn on_tx_dropped(&mut self, link: usize, bytes: u32, why: DropWhy) {
        if !Self::ON {
            return;
        }
        let l = &mut self.links[link];
        l.txdrop_frames += 1;
        l.txdrop_bytes += u64::from(bytes);
        self.drops[drop_slot(why)] += 1;
    }

    /// The frame's delivery event was scheduled.
    #[inline]
    pub fn on_scheduled(&mut self, link: usize, bytes: u32) {
        if !Self::ON {
            return;
        }
        let l = &mut self.links[link];
        l.sched_frames += 1;
        l.sched_bytes += u64::from(bytes);
    }

    /// The frame's delivery event fired at the receiving end of `link`.
    #[inline]
    pub fn on_arrival(&mut self, link: usize, bytes: u32) {
        if !Self::ON {
            return;
        }
        let l = &mut self.links[link];
        l.arr_frames += 1;
        l.arr_bytes += u64::from(bytes);
    }

    /// A frame that had arrived was dropped (destroyed at arrival on a
    /// downed link or a stale path, or rejected by the switch MMU).
    #[inline]
    pub fn account_drop(&mut self, why: DropWhy) {
        if !Self::ON {
            return;
        }
        self.drops[drop_slot(why)] += 1;
    }

    /// Drain-time audit (`debug_assert!`-based): per-link conservation plus
    /// the cross-check of engine-side drop counts against the run's
    /// [`AggregateStats`].
    pub fn audit_final(&self, agg: &AggregateStats) {
        for (i, l) in self.links.iter().enumerate() {
            debug_assert_eq!(
                l.tx_frames,
                l.txdrop_frames + l.sched_frames,
                "link {i}: serialized frames != tx-dropped + scheduled"
            );
            debug_assert_eq!(
                l.tx_bytes,
                l.txdrop_bytes + l.sched_bytes,
                "link {i}: serialized bytes != tx-dropped + scheduled"
            );
            debug_assert!(
                l.arr_frames <= l.sched_frames && l.arr_bytes <= l.sched_bytes,
                "link {i}: more frames arrived than were scheduled"
            );
        }
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Color)],
            agg.drops_color,
            "engine-side color drops disagree with AggregateStats::drops_color"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Dynamic)],
            agg.drops_dt,
            "engine-side DT drops disagree with AggregateStats::drops_dt"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Overflow)],
            agg.drops_overflow,
            "engine-side overflow drops disagree with AggregateStats::drops_overflow"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::Wire)],
            agg.wire_drops,
            "engine-side wire drops disagree with AggregateStats::wire_drops"
        );
        debug_assert_eq!(
            self.drops[drop_slot(DropWhy::LinkDown)],
            agg.down_drops,
            "engine-side link-down drops disagree with AggregateStats::down_drops"
        );
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    /// A balanced ledger audits clean against matching aggregates.
    #[test]
    fn balanced_ledger_audits_clean() {
        let mut led = ConservationLedger::new(2);
        led.on_tx(0, 1_048);
        led.on_scheduled(0, 1_048);
        led.on_arrival(0, 1_048);
        led.on_tx(1, 500);
        led.on_tx_dropped(1, 500, DropWhy::LinkDown);
        led.account_drop(DropWhy::Color);
        let agg = AggregateStats {
            drops_color: 1,
            down_drops: 1,
            ..AggregateStats::default()
        };
        led.audit_final(&agg);
    }

    /// A consumed-but-unaccounted frame (scheduled without serialization)
    /// makes the per-link audit fire — the ledger is live.
    #[test]
    #[should_panic(expected = "serialized frames")]
    fn corrupted_link_ledger_fires() {
        let mut led = ConservationLedger::new(1);
        led.on_scheduled(0, 1_000); // never recorded as serialized
        led.audit_final(&AggregateStats::default());
    }

    /// A drop path that forgot to report to the run-level counters fails
    /// the AggregateStats cross-check.
    #[test]
    #[should_panic(expected = "drops_color")]
    fn unreported_drop_fires_cross_check() {
        let mut led = ConservationLedger::new(1);
        led.account_drop(DropWhy::Color);
        led.audit_final(&AggregateStats::default()); // agg says zero drops
    }
}
