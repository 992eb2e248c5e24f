//! Deterministic, schedule-driven fault injection.
//!
//! The TLT paper evaluates timeout behaviour under steady-state congestion;
//! real datacenter tails are also driven by link flaps, bursty corruption,
//! and PFC pause storms — exactly the regimes where timeout-driven recovery
//! dominates. This crate supplies the fault model that `dcsim::engine`
//! injects those regimes with:
//!
//! - [`FaultSchedule`]: a declarative, seed-reproducible list of timed
//!   [`FaultEvent`]s. The engine schedules them on its main event queue, so
//!   runs stay deterministic and byte-identical under any `--jobs` setting.
//! - [`LossModel`]: per-link corruption — [`LossModel::Bernoulli`] (the old
//!   global `wire_loss_rate`) or [`LossModel::GilbertElliott`] two-state
//!   bursty loss.
//! - [`FaultState`]: the per-link runtime state (up/down, loss model, rate
//!   degradation) the engine consults once per transmitted frame.
//!
//! All loss draws come from one shared RNG stream, consulted only when the
//! transmitting link has an active loss model; with loss disabled the stream
//! never advances, so merely enabling the subsystem perturbs nothing (the
//! no-perturbation guarantee pinned by `rng_stream_untouched_without_loss`).

use eventsim::{SimRng, SimTime};
use netsim::link::LinkSpec;
use netsim::topology::{LinkId, NodeId, PortId};

/// Per-link corruption model. Draws come from the [`FaultState`]'s shared
/// RNG stream in transmission order, one model evaluation per frame.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LossModel {
    /// No corruption; never advances the RNG stream.
    #[default]
    None,
    /// Independent per-frame loss with probability `rate` (the legacy
    /// `WireFault` behaviour, one `gen_bool(rate)` draw per frame).
    Bernoulli { rate: f64 },
    /// Gilbert–Elliott two-state bursty loss. Each frame first draws the
    /// state transition (good->bad with `p_enter_bad`, bad->good with
    /// `p_exit_bad`), then the state-dependent loss probability.
    GilbertElliott {
        p_enter_bad: f64,
        p_exit_bad: f64,
        loss_good: f64,
        loss_bad: f64,
    },
}

impl LossModel {
    /// A mild bursty-corruption preset: rare multi-frame bad episodes on an
    /// otherwise clean link (mean bad-burst length `1/p_exit_bad` frames).
    pub fn bursty(p_enter_bad: f64, mean_burst_frames: f64, loss_bad: f64) -> Self {
        assert!(mean_burst_frames >= 1.0, "burst length is in frames");
        LossModel::GilbertElliott {
            p_enter_bad,
            p_exit_bad: 1.0 / mean_burst_frames,
            loss_good: 0.0,
            loss_bad,
        }
    }

    fn is_none(&self) -> bool {
        matches!(self, LossModel::None)
            || matches!(self, LossModel::Bernoulli { rate } if *rate <= 0.0)
    }
}

/// What a [`FaultEvent`] does when the engine applies it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Take the link attached to `(node, port)` down in *both* directions.
    /// Frames serialized onto or already in flight across a downed link are
    /// destroyed. With `reroute_after: Some(d)`, ECMP-pinned flows whose
    /// path crosses a downed link are re-pinned `d` after the failure;
    /// with `None` they blackhole until `LinkUp` (or forever).
    LinkDown { reroute_after: Option<SimTime> },
    /// Bring both directions of the link at `(node, port)` back up.
    LinkUp,
    /// Override the *directed* link leaving `(node, port)`: corruption
    /// model and/or a rate multiplier (`0 < rate_factor <= 1` slows the
    /// link to that fraction of nominal bandwidth; `None` leaves it alone).
    Degrade {
        loss: LossModel,
        rate_factor: Option<f64>,
    },
    /// Inject a spurious PFC XOFF against switch `node`'s ingress `port`
    /// for `duration`, composing with real congestion-driven pause
    /// bookkeeping (never double-sends pause; resume always follows the
    /// storm end, immediately or once the real backlog drains).
    PauseStorm { duration: SimTime },
}

/// One timed fault, aimed at the link or switch ingress at `(node, port)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub node: NodeId,
    pub port: PortId,
    pub action: FaultAction,
}

/// A declarative list of timed faults. Order is preserved: events are
/// scheduled on the engine queue in list order, and the queue's stable FIFO
/// tie-break keeps same-timestamp events in that order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
    }

    /// Permanent link failure (both directions), no reroute.
    pub fn link_down(mut self, at: SimTime, node: u32, port: u32) -> Self {
        self.push(FaultEvent {
            at,
            node: NodeId(node),
            port: PortId(port),
            action: FaultAction::LinkDown {
                reroute_after: None,
            },
        });
        self
    }

    /// Link failure followed by repair after `down_for`.
    pub fn link_flap(mut self, at: SimTime, node: u32, port: u32, down_for: SimTime) -> Self {
        self.push(FaultEvent {
            at,
            node: NodeId(node),
            port: PortId(port),
            action: FaultAction::LinkDown {
                reroute_after: None,
            },
        });
        self.push(FaultEvent {
            at: at + down_for,
            node: NodeId(node),
            port: PortId(port),
            action: FaultAction::LinkUp,
        });
        self
    }

    /// Permanent link failure with flow re-pinning `reroute_after` later.
    pub fn link_down_rerouted(
        mut self,
        at: SimTime,
        node: u32,
        port: u32,
        reroute_after: SimTime,
    ) -> Self {
        self.push(FaultEvent {
            at,
            node: NodeId(node),
            port: PortId(port),
            action: FaultAction::LinkDown {
                reroute_after: Some(reroute_after),
            },
        });
        self
    }

    /// Per-link corruption/rate override on the directed link leaving
    /// `(node, port)`.
    pub fn degrade(
        mut self,
        at: SimTime,
        node: u32,
        port: u32,
        loss: LossModel,
        rate_factor: Option<f64>,
    ) -> Self {
        self.push(FaultEvent {
            at,
            node: NodeId(node),
            port: PortId(port),
            action: FaultAction::Degrade { loss, rate_factor },
        });
        self
    }

    /// Gilbert–Elliott bursty corruption on the directed link leaving
    /// `(node, port)` (shorthand for a `Degrade` with a GE model).
    pub fn burst_loss(
        self,
        at: SimTime,
        node: u32,
        port: u32,
        p_enter_bad: f64,
        mean_burst_frames: f64,
        loss_bad: f64,
    ) -> Self {
        self.degrade(
            at,
            node,
            port,
            LossModel::bursty(p_enter_bad, mean_burst_frames, loss_bad),
            None,
        )
    }

    /// Spurious PFC XOFF against switch `node`'s ingress `port`.
    pub fn pause_storm(mut self, at: SimTime, node: u32, port: u32, duration: SimTime) -> Self {
        self.push(FaultEvent {
            at,
            node: NodeId(node),
            port: PortId(port),
            action: FaultAction::PauseStorm { duration },
        });
        self
    }
}

#[derive(Clone, Debug, Default)]
struct LinkState {
    down: bool,
    loss: LossModel,
    in_bad: bool,
    rate_factor: Option<f64>,
}

/// Per-link runtime fault state, consulted by the engine once per
/// transmitted frame. Replaces the old single global `WireFault`.
#[derive(Clone, Debug)]
pub struct FaultState {
    /// The per-link table: empty while `quiet`, `n_links` entries after.
    links: Vec<LinkState>,
    n_links: usize,
    /// No setter has run yet, so every link is still in its default state
    /// (up, no loss model, nominal rate) and the per-frame queries answer
    /// without reading `links`, which is not even allocated. Sticky: any
    /// setter clears it for good, even one that changes nothing, so a fabric
    /// that has seen a fault schedule takes the table lookups from then on.
    quiet: bool,
    rng: SimRng,
    /// Frames destroyed by a loss model (corruption).
    pub wire_drops: u64,
    /// Frames destroyed because their link was down (plus in-flight frames
    /// caught on a link when it went down, and stale frames orphaned by a
    /// reroute).
    pub down_drops: u64,
}

impl FaultState {
    /// `seed` must match the legacy `WireFault` seed derivation so that
    /// `wire_loss_rate` runs reproduce the exact historical drop pattern.
    pub fn new(n_links: usize, seed: u64) -> Self {
        FaultState {
            links: Vec::new(),
            n_links,
            quiet: true,
            rng: SimRng::seed_from(seed),
            wire_drops: 0,
            down_drops: 0,
        }
    }

    /// Leaves the quiet state, allocating the per-link table. Every setter
    /// calls it and no query does, so a fault-free run never holds a table.
    fn wake(&mut self) {
        if self.quiet {
            self.quiet = false;
            self.links = vec![LinkState::default(); self.n_links];
        }
    }

    /// Expand `SimConfig::wire_loss_rate` into a uniform per-link Bernoulli
    /// model. A rate of zero installs nothing, so the RNG stream is never
    /// consulted.
    pub fn set_uniform_loss(&mut self, rate: f64) {
        if rate <= 0.0 {
            return;
        }
        self.wake();
        for l in &mut self.links {
            l.loss = LossModel::Bernoulli { rate };
        }
    }

    pub fn set_loss(&mut self, link: LinkId, loss: LossModel) {
        self.wake();
        let l = &mut self.links[link.0 as usize];
        l.loss = loss;
        l.in_bad = false;
    }

    pub fn set_rate_factor(&mut self, link: LinkId, factor: Option<f64>) {
        if let Some(f) = factor {
            assert!(f > 0.0, "rate_factor must be positive");
        }
        self.wake();
        self.links[link.0 as usize].rate_factor = factor;
    }

    pub fn set_down(&mut self, link: LinkId, down: bool) {
        self.wake();
        self.links[link.0 as usize].down = down;
    }

    /// Whether no setter has touched any link yet. While this holds,
    /// [`FaultState::tx_time`] is `spec.tx_time(bytes)` for every link, so
    /// a caller may reuse a result it computed earlier for the same spec
    /// and size.
    #[inline]
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    #[inline]
    pub fn is_down(&self, link: LinkId) -> bool {
        !self.quiet && self.links[link.0 as usize].down
    }

    pub fn any_down(&self) -> bool {
        !self.quiet && self.links.iter().any(|l| l.down)
    }

    /// Serialization time of `bytes` on `link`, honouring any rate
    /// degradation. With no `rate_factor` this is exactly
    /// `spec.tx_time(bytes)` — no float detour, so undisturbed links keep
    /// byte-identical timing.
    #[inline]
    pub fn tx_time(&self, link: LinkId, spec: &LinkSpec, bytes: u32) -> SimTime {
        let base = spec.tx_time(bytes);
        if self.quiet {
            return base;
        }
        match self.links[link.0 as usize].rate_factor {
            None => base,
            Some(f) => SimTime::from_ns(((base.as_ns() as f64 / f).ceil() as u64).max(1)),
        }
    }

    /// Does the frame currently serializing onto `link` get corrupted?
    /// Consults the shared RNG only when the link has an active loss model;
    /// otherwise the stream does not advance.
    #[inline]
    pub fn corrupts(&mut self, link: LinkId) -> bool {
        if self.quiet {
            return false;
        }
        let st = &mut self.links[link.0 as usize];
        if st.loss.is_none() {
            return false;
        }
        let lost = match st.loss {
            LossModel::None => false,
            LossModel::Bernoulli { rate } => rate > 0.0 && self.rng.gen_bool(rate),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let flip = if st.in_bad { p_exit_bad } else { p_enter_bad };
                if self.rng.gen_bool(flip) {
                    st.in_bad = !st.in_bad;
                }
                let p = if st.in_bad { loss_bad } else { loss_good };
                p > 0.0 && self.rng.gen_bool(p)
            }
        };
        if lost {
            self.wire_drops += 1;
        }
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec::new(40_000_000_000, SimTime::from_us(10))
    }

    #[test]
    fn rng_stream_untouched_without_loss() {
        // The no-perturbation guarantee: with no active loss model (or a
        // zero-rate Bernoulli), corrupts() never advances the RNG stream.
        let mut f = FaultState::new(4, 123);
        f.set_uniform_loss(0.0); // no-op shorthand
        f.set_loss(LinkId(2), LossModel::Bernoulli { rate: 0.0 });
        for _ in 0..1000 {
            for l in 0..4 {
                assert!(!f.corrupts(LinkId(l)));
            }
        }
        assert_eq!(f.wire_drops, 0);
        let mut fresh = SimRng::seed_from(123);
        assert_eq!(
            fresh.gen_u64(),
            f.rng.gen_u64(),
            "zero-rate fault state must not consume random numbers"
        );
    }

    #[test]
    fn bernoulli_counts_and_reproduces() {
        // Same seed => identical drop pattern (the legacy WireFault pin).
        let run = |seed| {
            let mut f = FaultState::new(1, seed);
            f.set_uniform_loss(0.05);
            (0..2000).map(|_| f.corrupts(LinkId(0))).collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
        let drops = a.iter().filter(|&&d| d).count();
        assert!((40..=180).contains(&drops), "drops {drops} far from 5%");
    }

    #[test]
    fn per_link_models_are_independent() {
        let mut f = FaultState::new(2, 9);
        f.set_loss(LinkId(0), LossModel::Bernoulli { rate: 1.0 });
        for _ in 0..100 {
            assert!(f.corrupts(LinkId(0)));
            assert!(!f.corrupts(LinkId(1)));
        }
        assert_eq!(f.wire_drops, 100);
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With rare entry into a lossy bad state, losses cluster: the
        // number of loss *episodes* (maximal runs) must be far below the
        // number of lost frames, unlike Bernoulli at the same average rate.
        let mut f = FaultState::new(1, 42);
        f.set_loss(
            LinkId(0),
            LossModel::GilbertElliott {
                p_enter_bad: 0.002,
                p_exit_bad: 0.10,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        );
        let pattern: Vec<bool> = (0..200_000).map(|_| f.corrupts(LinkId(0))).collect();
        let losses = pattern.iter().filter(|&&d| d).count();
        let episodes = pattern
            .windows(2)
            .filter(|w| !w[0] && w[1])
            .count()
            .max(usize::from(pattern[0]));
        assert!(losses > 500, "expected substantial loss, got {losses}");
        assert!(
            episodes * 3 < losses,
            "losses should come in bursts: {episodes} episodes for {losses} losses"
        );
        assert_eq!(f.wire_drops as usize, losses);
    }

    #[test]
    fn gilbert_elliott_is_deterministic() {
        let run = || {
            let mut f = FaultState::new(1, 5);
            f.set_loss(LinkId(0), LossModel::bursty(0.01, 10.0, 0.5));
            (0..5000).map(|_| f.corrupts(LinkId(0))).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn down_links_and_rate_factors() {
        let mut f = FaultState::new(2, 1);
        assert!(!f.is_down(LinkId(0)));
        assert!(!f.any_down());
        f.set_down(LinkId(0), true);
        assert!(f.is_down(LinkId(0)));
        assert!(!f.is_down(LinkId(1)));
        assert!(f.any_down());
        f.set_down(LinkId(0), false);
        assert!(!f.any_down());

        let s = spec();
        let base = f.tx_time(LinkId(0), &s, 1500);
        assert_eq!(base, s.tx_time(1500), "no factor => exact nominal time");
        f.set_rate_factor(LinkId(0), Some(0.5));
        let slowed = f.tx_time(LinkId(0), &s, 1500);
        assert_eq!(slowed.as_ns(), s.tx_time(1500).as_ns() * 2);
        f.set_rate_factor(LinkId(0), None);
        assert_eq!(f.tx_time(LinkId(0), &s, 1500), base);
    }

    /// The quiet flag: set at construction, cleared for good by every
    /// setter — including ones that leave the link as it was — and never
    /// by a query. Answers are the same on either side of it. A quiet state
    /// holds no table; the first setter allocates exactly one entry per
    /// link.
    #[test]
    fn quiet_flag_is_sticky_and_changes_no_answer() {
        type Setter = fn(&mut FaultState);
        // None of these moves a down flag or a rate factor.
        let setters: [Setter; 4] = [
            |f| f.set_down(LinkId(1), false),
            |f| f.set_loss(LinkId(1), LossModel::None),
            |f| f.set_rate_factor(LinkId(1), None),
            |f| f.set_uniform_loss(0.25),
        ];
        let s = spec();
        for (i, set) in setters.iter().enumerate() {
            let mut f = FaultState::new(2, 11);
            f.set_uniform_loss(0.0);
            assert!(f.is_quiet(), "a zero uniform rate installs nothing");
            let before = (
                f.is_down(LinkId(1)),
                f.any_down(),
                f.tx_time(LinkId(1), &s, 1500),
            );
            assert!(!f.corrupts(LinkId(0)));
            assert!(f.is_quiet(), "queries leave the flag alone");
            assert_eq!(f.links.capacity(), 0, "a quiet state holds no table");
            set(&mut f);
            assert!(!f.is_quiet(), "setter {i} clears the flag");
            assert_eq!((f.links.len(), f.links.capacity()), (2, 2), "setter {i}");
            let after = (
                f.is_down(LinkId(1)),
                f.any_down(),
                f.tx_time(LinkId(1), &s, 1500),
            );
            assert_eq!(before, after, "setter {i}");
            // Undoing a fault does not bring quiet back.
            f.set_down(LinkId(0), true);
            f.set_down(LinkId(0), false);
            assert!(!f.is_quiet());
        }
        // Non-quiet answers come from the table.
        let mut f = FaultState::new(2, 11);
        f.set_down(LinkId(0), true);
        f.set_rate_factor(LinkId(1), Some(0.5));
        assert!(f.is_down(LinkId(0)) && !f.is_down(LinkId(1)) && f.any_down());
        assert_eq!(
            f.tx_time(LinkId(1), &s, 1500).as_ns(),
            2 * s.tx_time(1500).as_ns()
        );
        assert_eq!(f.tx_time(LinkId(0), &s, 1500), s.tx_time(1500));
    }

    #[test]
    #[should_panic(expected = "rate_factor must be positive")]
    fn zero_rate_factor_rejected() {
        let mut f = FaultState::new(1, 1);
        f.set_rate_factor(LinkId(0), Some(0.0));
    }

    #[test]
    fn schedule_builders_preserve_order() {
        let s = FaultSchedule::new()
            .link_flap(SimTime::from_us(100), 3, 0, SimTime::from_us(30))
            .burst_loss(SimTime::ZERO, 0, 1, 0.001, 8.0, 0.5)
            .pause_storm(SimTime::from_us(50), 0, 2, SimTime::from_us(200))
            .link_down_rerouted(SimTime::from_ms(1), 4, 0, SimTime::from_us(500));
        assert_eq!(s.events().len(), 5);
        // flap expands to down + up at the right times
        assert_eq!(s.events()[0].at, SimTime::from_us(100));
        assert!(matches!(
            s.events()[0].action,
            FaultAction::LinkDown {
                reroute_after: None
            }
        ));
        assert_eq!(s.events()[1].at, SimTime::from_us(130));
        assert_eq!(s.events()[1].action, FaultAction::LinkUp);
        // list order is preserved even though timestamps are unsorted
        assert_eq!(s.events()[2].at, SimTime::ZERO);
        assert!(matches!(
            s.events()[3].action,
            FaultAction::PauseStorm { .. }
        ));
        assert!(matches!(
            s.events()[4].action,
            FaultAction::LinkDown {
                reroute_after: Some(d)
            } if d == SimTime::from_us(500)
        ));
        assert!(FaultSchedule::new().is_empty());
        assert!(!s.is_empty());
    }
}
