//! `rpki-obs` — deterministic, sans-IO observability for the workspace.
//!
//! The paper's open problem is *detection*: monitoring schemes that
//! deter RPKI manipulations by noticing suspiciously reissued objects,
//! and telling abuse from routine churn (Side Effect 2). Both are
//! observability problems over the simulator's event stream — and a
//! simulator whose layers cannot be observed cannot be made fast or
//! resilient at scale either. This crate is the one instrumentation
//! substrate every other crate reports through:
//!
//! - a **structured event log** ([`TraceEvent`]) keyed by simulated
//!   time — never the wall clock — with a per-recorder sequence number
//!   as the total-order tie-break, so two runs of the same seed emit
//!   **byte-identical** traces;
//! - a **metrics registry** ([`MetricsRegistry`]) of counters, gauges,
//!   and bounded [`Histogram`]s, all integer-valued;
//! - **span timers** ([`Recorder::span_start`] / [`Recorder::span_end`])
//!   measuring phases on the simulated clock;
//! - a **JSONL exporter** ([`Recorder::trace_jsonl`]) and a
//!   **summary-table renderer** ([`Summary`]) shared by the bench
//!   binaries, so every experiment reports through one pipeline and CI
//!   can diff golden traces.
//!
//! # Determinism contract
//!
//! Everything recorded is an integer, a boolean, or a string computed
//! from simulation state. No wall-clock reads, no map-order iteration
//! (all registries are `BTreeMap`s), no floats in the trace. The JSONL
//! encoding writes fields in their recorded order with a fixed escape
//! set, so equal traces are equal *bytes* — the property the
//! golden-trace tests pin.
//!
//! # Zero cost when disabled
//!
//! A [`Recorder`] is a handle that is either live or
//! [`Recorder::disabled`]. Every recording call starts with one branch
//! on the handle; the disabled path allocates nothing, formats nothing,
//! and touches no shared state. Instrumented code takes a `Recorder` by
//! value (cloning is one `Rc` bump) and never checks "am I enabled"
//! itself. The `bench_propagation` harness asserts the disabled-mode
//! overhead stays under 5% in release builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod recorder;
pub mod summary;

pub use event::{FieldValue, TraceEvent};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::{EventBuilder, Recorder, SpanToken};
pub use summary::{Summary, SummaryTable};
