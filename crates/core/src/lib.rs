//! # tlt-core — the TLT building block
//!
//! TLT ("Timeout-Less Transport", EuroSys '21) is not a transport protocol:
//! it is a building block that augments existing window- and rate-based
//! datacenter transports so that congestion losses are recovered by fast
//! retransmission instead of timeouts. The key mechanism is *important
//! packet selection* at the host (this crate) combined with *color-aware
//! dropping* at commodity switches (`netsim::switch`):
//!
//! - packets whose loss could stall the transport (break ACK self-clocking,
//!   or hide a loss from the receiver) are marked **important** and colored
//!   green; switches admit them up to the dynamic buffer threshold,
//! - all other packets are colored red and proactively dropped once the
//!   egress queue reaches the color-aware dropping threshold K, which
//!   reserves buffer headroom for the important ones.
//!
//! This crate implements both host-side selection strategies:
//!
//! - [`WindowTltSender`] / [`WindowTltReceiver`] (§5.1, Algorithm 1): keep
//!   exactly one important packet in flight per flow via the
//!   ImportantData → ImportantEcho exchange, and sustain self-clocking with
//!   adaptive **important ACK-clocking** when the window would otherwise
//!   stall;
//! - [`RateTltSender`] (§5.2): mark the tail of the flow, every N-th packet,
//!   and the first + last packet of every retransmission round.
//!
//! The state machines are pure (no I/O, no timers) so that every transition
//! of Algorithm 1 is unit-testable; the `transport` crate wires them into
//! TCP/DCTCP/HPCC (window) and DCQCN/IRN (rate).

mod rate;
mod window;

pub use rate::{RateTltConfig, RateTltSender};
pub use window::{
    AckVerdict, ClockingPolicy, ClockingSend, WindowTltConfig, WindowTltReceiver, WindowTltSender,
};
