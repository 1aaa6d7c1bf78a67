//! A deterministic discrete-event network simulator.
//!
//! This is the transport substrate under the RPKI repository system. It
//! follows the sans-IO, event-driven idiom of the networking guides
//! (smoltcp): no sockets, no async runtime — a simulated clock, an event
//! queue, and explicit `step()` advancement. Everything is seeded and
//! reproducible.
//!
//! Two properties of the real Internet matter to the paper, and both are
//! first-class here:
//!
//! 1. **Delivery is fallible** — messages can be lost or corrupted in
//!    flight ([`FaultPlan`]), which is how a relying party ends up with
//!    a missing or corrupted ROA (Side Effect 6).
//! 2. **Delivery depends on routing** — RPKI objects travel over the
//!    very TCP/IP whose routes they validate. The
//!    [`Network::set_reachability`] oracle lets the experiment layer
//!    wire BGP route validity back into the transport, closing the loop
//!    of the paper's Figure 1 and enabling the Side Effect 7 fixed
//!    point.
//!
//! The API is deliberately small: register nodes, send opaque byte
//! payloads, set timers, then [`Network::step`] through occurrences.
//! Protocol logic (the rsync-like fetch protocol, the relying party's
//! sync loop) lives in higher crates, keeping this one reusable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
mod hash;
pub mod net;
mod queue;

pub use fault::FaultPlan;
pub use net::{Delivery, DropReason, Network, NodeId, Occurrence, Stats};
