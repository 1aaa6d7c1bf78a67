//! One authority action timed from CA signature to route decision.
//!
//! The benchmark builds one world that chains every layer of the repo
//! — `topogen` → `rpki-ca` → `rpki-repo` (pubd) → RRDP/rsync over
//! `netsim` → the `rpki-rp` validator → VRP delta → RTR cache → relay →
//! routers → RFC 6811 classification → `bgp-sim` — and times each round
//! of it on two clocks that are never mixed: the host's (noisy) and the
//! simulation's (exact for a seed). It changes no program file: every
//! per-layer number comes from spans recorded *around* calls into the
//! crates' public functions and from the public stats structs they
//! already export. `README.md` has the metric and workload tables.

#![warn(missing_docs)]

pub mod cli;
pub mod oracle;
pub mod report;
pub mod run;
pub mod seam;
pub mod stats;
pub mod trace;
pub mod workload;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;
