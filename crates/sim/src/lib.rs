//! Discrete-event simulator of a cloud stream-processing (CSP) layer.
//!
//! This crate is the executable substrate that replaces the paper's Storm
//! cluster (Fu et al., ICDCS 2015). It simulates operator networks with FIFO
//! queues and parallel executors, tracks the *complete sojourn time* of every
//! external tuple via Storm-acker-style tuple trees, supports runtime
//! re-balancing with configurable pause costs, and exposes exactly the
//! measurements the DRS controller consumes: per-operator arrival rates
//! `λ̂_i`, per-executor service rates `µ̂_i`, the external rate `λ̂0` and the
//! measured mean sojourn `E[T̂]`.
//!
//! # Hot path
//!
//! The per-event cost is what bounds how much simulated traffic fits in a
//! wall-clock second, so the whole step loop is allocation-free and O(1)
//! amortized:
//!
//! * **event scheduling** runs on a [`calendar::CalendarQueue`] (calendar /
//!   ladder queue hybrid): O(1) amortized insert and pop with a lazy
//!   overflow ladder for far-future events and width/size heuristics keyed
//!   off the observed event interarrival — replacing the previous binary
//!   heap's O(log m) comparator cost while popping in the *identical*
//!   deterministic `(time, FIFO-sequence)` order;
//! * **tuple emission** walks a compiled CSR out-edge layout
//!   ([`drs_topology::CsrOutEdges`], shared with the threaded runtime) by
//!   value — no adjacency clone per processed tuple;
//! * **tuple-tree acking** lives in a slab with a free list and recycled
//!   dense `u32` slot ids — no per-root allocation or hashing.
//!
//! `repro perf` benchmarks the calendar queue against a binary-heap
//! reference at 10⁴–10⁶ pending events and records the result in
//! `BENCH_PERF.json`, which CI gates via `repro perfdiff`.
//!
//! # Fleets
//!
//! A [`Simulator`] is a plain [`drs_core::driver::CspBackend`], so a
//! sharded multi-topology fleet is just
//! [`drs_core::fleet::FleetDriver`]`<Simulator>`: N independent shards —
//! one topology each, every one on its **own virtual clock** with its own
//! RNG — under a single global processor budget `Kmax`. Shards may be
//! advanced in any order within a window
//! ([`FleetDriver::step_with_order`](drs_core::fleet::FleetDriver::step_with_order))
//! without changing any shard's measurements, and
//! [`FleetDriver::backend_mut`](drs_core::fleet::FleetDriver::backend_mut)
//! is the hook for mid-run workload drift
//! ([`Simulator::set_spout_interarrival`], [`Simulator::set_bolt_service`]).
//! Every shard inherits the O(1) event scheduling above, and overrides the
//! `*_into` backend hooks to fill the driver's reusable buffers in place,
//! so a settled fleet runs its steady-state window without heap
//! allocation regardless of shard count. The `drs` facade crate's docs
//! walk through a two-shard fleet, and `tests/fleet_determinism.rs` pins
//! clock isolation, budget capping, placement and drift.
//!
//! # Degraded control plane
//!
//! The fleet is also a stress lab for the control plane: the [`faults`]
//! module models each shard's link to the coordinator as a deterministic,
//! seedable [`faults::ControlChannel`] — per-message loss, latency +
//! jitter (quantized to measurement windows, delivered through the same
//! calendar queue and therefore naturally reordered), duplication, ack
//! loss, scheduled partitions with heal times, and machine-failure
//! crashes. A [`drs_core::fleet::FleetDriver`]`<`[`FaultyShard`]`<Simulator>>`
//! routes every measurement report and actuation command through those
//! channels, while
//! `drs_core::fleet` supplies the hardening that makes the loop converge
//! anyway: actuation epochs (stale/duplicate commands rejected),
//! capped-backoff retry on unacknowledged actuations, age-weighted stale
//! evidence, lease-style dead-shard budget reclaim, and
//! checkpoint/restore of the full fleet (virtual clocks, in-flight
//! messages and RNG state included) so scenario sweeps branch from a
//! common prefix. Every injected fault is recorded as a
//! [`faults::FaultEvent`] next to the control decisions it provoked;
//! `repro fleet --faults <scenario>` renders both.
//!
//! See [`SimulationBuilder`] for the entry point and the `drs-apps` crate for
//! fully calibrated workloads (video logo detection, frequent pattern
//! detection, synthetic chains).
//!
//! # Example
//!
//! ```
//! use drs_queueing::distribution::Distribution;
//! use drs_sim::time::SimDuration;
//! use drs_sim::workload::OperatorBehavior;
//! use drs_sim::SimulationBuilder;
//! use drs_topology::TopologyBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = TopologyBuilder::new();
//! let spout = b.spout("frames");
//! let bolt = b.bolt("extract");
//! b.edge(spout, bolt)?;
//! let topo = b.build()?;
//!
//! let mut sim = SimulationBuilder::new(topo)
//!     .behavior(spout, OperatorBehavior::Spout {
//!         interarrival: Distribution::exponential(13.0)?,
//!     })
//!     .behavior(bolt, OperatorBehavior::Bolt {
//!         service: Distribution::exponential(2.0)?,
//!     })
//!     .allocation(vec![1, 8])
//!     .seed(1)
//!     .build()?;
//! sim.run_for(SimDuration::from_secs(60));
//! let window = sim.take_window();
//! println!("measured E[T] = {:?} s", window.mean_sojourn());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod calendar;
pub mod event;
pub mod faults;
pub mod metrics;
pub mod simulator;
pub mod time;
pub mod workload;

pub use faults::{
    ControlChannel, FaultEvent, FaultKind, FaultyShard, LinkFaults, Partition, WindowJitter,
};
pub use metrics::{MeasurementWindow, OperatorWindow, RunningStats};
pub use simulator::{SimError, SimulationBuilder, Simulator};
pub use time::{SimDuration, SimTime};
