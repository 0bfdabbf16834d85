//! `asi-sim` — discrete-event simulation kernel for the Advanced Switching
//! reproduction.
//!
//! This crate replaces the OPNET Modeler substrate used by the paper with a
//! small, deterministic discrete-event engine:
//!
//! - [`SimTime`]/[`SimDuration`] — picosecond-resolution simulated time;
//! - [`Simulator`] — clock + pending-event store: one serial engine that
//!   fires events in the deterministic [`EventKey`] order
//!   `(time, origin rank, per-origin sequence)`;
//! - [`wheel`]/[`arena`] — the storage layer: a bucketed calendar queue
//!   keyed by [`EventKey`], and a slab arena with `u32` handles that
//!   replaces per-event payload boxes;
//! - [`SimRng`] — seedable xoshiro256** generator so every experiment is
//!   reproducible from a single seed;
//! - [`stats`] — online statistics, percentiles, histograms and time series
//!   used by the measurement harness;
//! - [`trace`] — the structured observability layer: typed, sim-timestamped
//!   [`TraceEvent`]s emitted through a zero-cost-when-disabled
//!   [`TraceHandle`] by the simulator, the fabric model and the fabric manager.
//!
//! The engine is deliberately generic: the ASI fabric model (crate
//! `asi-fabric`) owns the event payload type and the dispatch loop.

#![warn(missing_docs)]

pub mod arena;
mod engine;
pub mod hash;
mod rng;
pub mod stats;
mod time;
pub mod trace;
pub mod wheel;

pub use arena::Arena;
pub use engine::{Fired, Simulator, EXTERNAL_RANK};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats, SampleSet, TimeSeries};
pub use time::{SimDuration, SimTime, MICROSECOND, MILLISECOND, NANOSECOND, PICOSECOND, SECOND};
pub use trace::{TraceEvent, TraceHandle, TraceRecord, TraceSink};
pub use wheel::EventKey;
