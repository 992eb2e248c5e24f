//! Packet-level datacenter network substrate.
//!
//! This crate models the pieces of a commodity datacenter network that the
//! TLT paper (EuroSys '21) depends on:
//!
//! - [`packet`]: the on-wire packet model, including the DSCP-derived
//!   [`packet::Color`] and the TLT transport marks ([`packet::TltMark`]),
//! - [`link`]: point-to-point links with serialization + propagation delay,
//! - [`switch`]: a shared-buffer switch MMU implementing dynamic-threshold
//!   admission (Choudhury–Hahne), **color-aware dropping** (§4 of the paper),
//!   DCTCP/RED ECN marking, INT telemetry for HPCC, and PFC ingress
//!   accounting,
//! - [`topology`]: leaf–spine / single-switch / dumbbell topology builders
//!   with per-flow ECMP path pinning.
//!
//! The crate is engine-agnostic: switches are passive state machines
//! (`enqueue`/`dequeue`) that report side effects (drops, marks, PFC pause
//! requests) back to the caller, which makes each mechanism unit-testable in
//! isolation. The discrete-event engine in `dcsim` drives them.

pub mod link;
pub mod packet;
pub mod switch;
pub mod topology;

pub use link::LinkSpec;
pub use packet::{
    Color, Direction, FlowId, Frame, FrameQueue, IntHop, Packet, PacketKind, PacketRef, PacketSlab,
    SackBlock, TltMark,
};
pub use switch::{DropReason, EcnConfig, EnqueueOutcome, PfcConfig, Switch, SwitchConfig};
pub use topology::{Hop, LinkId, NodeId, NodeKind, PortId, Topology, TopologySpec};
