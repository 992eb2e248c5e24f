//! A miniature engine for driving a sender/receiver pair in unit tests.
//!
//! Emulates exactly what `dcsim` does — packet delivery after a fixed
//! one-way delay, timer slots with replace-on-set semantics, optional packet
//! drops and CE marking — without a network, so transport tests stay fast
//! and deterministic.

#[expect(
    clippy::disallowed_types,
    reason = "drop-plan maps are keyed lookups, never iterated"
)]
use std::collections::{BTreeMap, HashMap};

use eventsim::{EventQueue, SimTime};
use netsim::packet::{Direction, Packet, PacketKind};

use crate::iface::{Action, Ctx, FlowReceiver, FlowSender, TimerKind};

/// Scripted packet drops: the n-th transmissions of specific sequence
/// numbers are discarded in flight.
#[derive(Clone, Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "entry/get lookups only — never iterated"
)]
pub struct DropPlan {
    /// (is_data, seq) -> number of future transmissions to drop.
    drops: HashMap<(bool, u64), u32>,
    seen: HashMap<(bool, u64), u32>,
}

impl DropPlan {
    /// No drops.
    pub fn none() -> DropPlan {
        DropPlan::default()
    }

    /// Drop the first transmission of the data packet starting at `seq`.
    pub fn data_once(seq: u64) -> DropPlan {
        let mut p = DropPlan::none();
        p.drop_data_once(seq);
        p
    }

    /// Drop the first `n` transmissions of the data packet at `seq`.
    pub fn data_n_times(seq: u64, n: u32) -> DropPlan {
        let mut p = DropPlan::none();
        p.drops.insert((true, seq), n);
        p
    }

    /// Adds a one-shot data drop at `seq`.
    pub fn drop_data_once(&mut self, seq: u64) {
        *self.drops.entry((true, seq)).or_insert(0) += 1;
    }

    /// Adds a one-shot control-packet (ACK/NACK/CNP) drop whose
    /// (cumulative/expected) number is `seq`.
    pub fn drop_ack_once(&mut self, seq: u64) {
        *self.drops.entry((false, seq)).or_insert(0) += 1;
    }

    fn should_drop(&mut self, pkt: &Packet) -> bool {
        let key = (pkt.kind == PacketKind::Data, pkt.seq);
        let seen = self.seen.entry(key).or_insert(0);
        *seen += 1;
        match self.drops.get(&key) {
            Some(&n) => *seen <= n,
            None => false,
        }
    }
}

/// Outcome of a harness run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Receiver holds the complete flow.
    pub receiver_complete: bool,
    /// Sender saw everything acknowledged.
    pub sender_done: bool,
    /// Time at which the receiver completed (or the run ended).
    pub completion_time: SimTime,
    /// Total packets delivered (not dropped).
    pub delivered_pkts: u64,
}

enum Ev {
    ToReceiver(Packet),
    ToSender(Packet),
}

/// The miniature engine.
pub struct Harness {
    delay: SimTime,
    plan: DropPlan,
    /// CE-mark every k-th delivered data packet (0 = never).
    pub mark_ce_every: u64,
    data_seen: u64,
}

impl Harness {
    /// Creates a harness with symmetric one-way `delay`.
    pub fn new(delay: SimTime, plan: DropPlan) -> Harness {
        Harness {
            delay,
            plan,
            mark_ce_every: 0,
            data_seen: 0,
        }
    }

    /// Drives `tx`/`rx` until both finish, events run dry, or `max` elapses.
    pub fn run(
        &mut self,
        tx: &mut dyn FlowSender,
        rx: &mut dyn FlowReceiver,
        max: SimTime,
    ) -> RunResult {
        let mut events: EventQueue<Ev> = EventQueue::new();
        // Ordered map: `min_by_key` iterates it, and equal-deadline ties must
        // resolve by slot order, not hash order.
        let mut timers: BTreeMap<TimerKind, SimTime> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let mut delivered = 0u64;
        let mut completion_time = SimTime::ZERO;
        let mut complete_seen = false;

        let mut actions: Vec<Action> = Vec::new();
        {
            let mut ctx = Ctx {
                now,
                actions: &mut actions,
            };
            tx.start(&mut ctx);
        }
        self.drain(&mut actions, now, &mut events, &mut timers);

        loop {
            // Pick the next occurrence: packet events first on ties.
            let ev_t = events.peek_time();
            let tm = timers
                .iter()
                .min_by_key(|(_, &at)| at)
                .map(|(&k, &at)| (k, at));
            let next = match (ev_t, tm) {
                (None, None) => break,
                (Some(e), None) => (e, true),
                (None, Some((_, t))) => (t, false),
                (Some(e), Some((_, t))) => {
                    if e <= t {
                        (e, true)
                    } else {
                        (t, false)
                    }
                }
            };
            now = next.0;
            if now > max {
                break;
            }
            if next.1 {
                let (_, ev) = events.pop().expect("peeked");
                let mut ctx = Ctx {
                    now,
                    actions: &mut actions,
                };
                match ev {
                    Ev::ToReceiver(pkt) => {
                        delivered += 1;
                        rx.on_packet(&pkt, &mut ctx);
                    }
                    Ev::ToSender(pkt) => {
                        delivered += 1;
                        tx.on_packet(&pkt, &mut ctx);
                    }
                }
            } else {
                let (kind, at) = tm.expect("timer chosen");
                debug_assert_eq!(at, now);
                timers.remove(&kind);
                let mut ctx = Ctx {
                    now,
                    actions: &mut actions,
                };
                tx.on_timer(kind, &mut ctx);
            }
            self.drain(&mut actions, now, &mut events, &mut timers);

            if rx.is_complete() && !complete_seen {
                complete_seen = true;
                completion_time = now;
            }
            if rx.is_complete() && tx.is_done() {
                break;
            }
        }

        RunResult {
            receiver_complete: rx.is_complete(),
            sender_done: tx.is_done(),
            completion_time: if complete_seen { completion_time } else { now },
            delivered_pkts: delivered,
        }
    }

    fn drain(
        &mut self,
        actions: &mut Vec<Action>,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        timers: &mut BTreeMap<TimerKind, SimTime>,
    ) {
        for a in actions.drain(..) {
            match a {
                Action::Send(mut pkt) => {
                    if self.plan.should_drop(&pkt) {
                        continue;
                    }
                    if pkt.kind == PacketKind::Data {
                        self.data_seen += 1;
                        if self.mark_ce_every > 0
                            && self.data_seen.is_multiple_of(self.mark_ce_every)
                        {
                            pkt.ce = true;
                        }
                    }
                    let ev = match pkt.dir {
                        Direction::Fwd => Ev::ToReceiver(pkt),
                        Direction::Rev => Ev::ToSender(pkt),
                    };
                    events.schedule(now + self.delay, ev);
                }
                Action::SetTimer { kind, at } => {
                    timers.insert(kind, at.max(now));
                }
                Action::CancelTimer { kind } => {
                    timers.remove(&kind);
                }
            }
        }
    }
}
