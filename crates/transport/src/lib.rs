//! Datacenter transport protocols, with optional TLT augmentation.
//!
//! This crate implements the five transports evaluated in the TLT paper as
//! pure state machines driven by an external engine:
//!
//! - **TCP NewReno** and **DCTCP** (window-based, [`tcp`], [`cc`]) — with
//!   SACK, duplicate-ACK-threshold-1 early retransmit, Linux-style RTO
//!   estimation (configurable RTO_min / fixed RTO), and optional Tail Loss
//!   Probe;
//! - **HPCC** (window-based on INT telemetry, [`cc::Hpcc`]);
//! - **DCQCN** (rate-based RoCE, [`roce`]) in three recovery flavors:
//!   vanilla go-back-N, `+SACK` (selective retransmission), and `+IRN`
//!   (selective retransmission plus a BDP-bounded static window and
//!   RTO_high/RTO_low timers).
//!
//! Transports communicate with the engine exclusively through [`Ctx`]
//! actions (send packet / set timer / cancel timer), which makes every
//! protocol unit-testable without a network: tests inject ACK packets and
//! inspect the emitted actions.
//!
//! TLT (§5 of the paper) hooks in at well-defined points: window transports
//! embed a [`tlt_core::WindowTltSender`], rate transports a
//! [`tlt_core::RateTltSender`]; both are enabled via [`TltMode`].

pub mod buffer;
pub mod cc;
pub mod iface;
pub mod roce;
pub mod rto;
mod send;
pub mod tcp;

#[cfg(test)]
mod testutil;

pub use buffer::{RecvBuffer, Scoreboard};
pub use iface::{
    Action, Ctx, FlowReceiver, FlowSender, SenderStats, TimerKind, TltMode, TransportKind,
};
pub use rto::{RtoEstimator, RtoMode};
