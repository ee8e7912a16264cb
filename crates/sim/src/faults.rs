//! Deterministic, seedable fault injection for the fleet control plane.
//!
//! The DRS loop assumes every measurement report arrives fresh and every
//! actuation lands — the paper's Fig. 9 convergence results are all under
//! a perfect control channel. This module removes that assumption so the
//! fleet simulator doubles as a stress lab for the control plane:
//!
//! * a [`ControlChannel`] models one shard's link to the coordinator —
//!   per-message loss probability, base latency + jitter (in whole
//!   measurement windows), duplication, ack loss, and scheduled
//!   [`Partition`]s with heal times. Delivery runs through the same
//!   [`CalendarQueue`] that schedules simulator events, popping in
//!   deterministic `(window, sequence)` order, so jitter naturally
//!   *reorders* messages without ever making delivery nondeterministic;
//! * a [`FaultyShard`] wraps any [`CspBackend`] and routes both
//!   directions through the channel: measurement reports travel
//!   shard→coordinator (late ones are delivered in a later window; a
//!   window with nothing delivered reports an empty sample, which the
//!   staleness-aware `SampleBuilder` counts against the shard's liveness
//!   lease), and actuation commands travel coordinator→shard (a lost or
//!   delayed command surfaces as
//!   [`BackendError::Timeout`] — no acknowledgement this window — which
//!   drives the driver's capped-backoff retry). The shard keeps an
//!   **epoch guard**: only strictly newer
//!   [`RebalancePlan::epoch`]s are applied, so a duplicated or delayed
//!   command is rejected instead of double-applied;
//! * machine-failure **crash** ([`FaultyShard::crash_at`]): from the
//!   crash window on, the shard silently stops reporting and never
//!   acknowledges again — exactly the case the fleet's lease-style
//!   budget reclaim exists for;
//! * every injected fault and shard-side rejection is recorded as a
//!   [`FaultEvent`], so scenario timelines can show *what* was injected
//!   next to *how* the control plane reacted.
//!
//! All randomness comes from one xoshiro256++ stream per channel, seeded
//! explicitly: the same seed and scenario replay bit-identically (the
//! whole struct tree is `Clone`, so a checkpointed fleet snapshots its
//! in-flight messages and RNG state too).
//!
//! A fault-injected fleet is a
//! [`drs_core::fleet::FleetDriver`]`<FaultyShard<Simulator>>`: the driver
//! reaches each shard's fault log through
//! [`FleetDriver::backend`](drs_core::fleet::FleetDriver::backend) and
//! schedules crashes through
//! [`FleetDriver::backend_mut`](drs_core::fleet::FleetDriver::backend_mut).
//! Named scenario matrices (`lossy`, `laggy`, `partition`, `churn`,
//! `crash-storm`) are exposed by `repro fleet --faults` in `crates/bench`.

use crate::calendar::CalendarQueue;
use drs_core::driver::{
    AppliedRebalance, BackendError, CspBackend, OperatorSample, RebalancePlan, WindowSample,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A message delay law quantized to whole measurement windows:
/// `base + U{0..=jitter}` windows. Zero total delay means same-window
/// delivery (the fault-free fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowJitter {
    /// Deterministic floor of the delay, in windows.
    pub base: u64,
    /// Uniform jitter added on top: each message draws from
    /// `0..=jitter` windows. Jitter is what *reorders* messages — a later
    /// send can draw a shorter delay and overtake.
    pub jitter: u64,
}

impl WindowJitter {
    /// No delay: every message is delivered in the window it was sent.
    pub const NONE: WindowJitter = WindowJitter { base: 0, jitter: 0 };

    /// A fixed delay of `base` windows with no jitter.
    pub const fn fixed(base: u64) -> Self {
        WindowJitter { base, jitter: 0 }
    }

    /// Draws one delay in windows.
    fn sample(&self, rng: &mut StdRng) -> u64 {
        if self.jitter == 0 {
            self.base
        } else {
            self.base + rng.gen_range(0..=self.jitter)
        }
    }
}

/// Per-link fault model: loss/latency/duplication for both directions of
/// one shard's control channel. Probabilities are clamped to `[0, 1]` at
/// roll time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a measurement report (shard → coordinator) is dropped.
    pub report_loss: f64,
    /// Delay law for measurement reports.
    pub report_delay: WindowJitter,
    /// Probability an actuation command (coordinator → shard) is dropped.
    pub command_loss: f64,
    /// Delay law for actuation commands. A delayed command yields no
    /// acknowledgement in its send window ([`BackendError::Timeout`]) and
    /// is applied — subject to the epoch guard — when it arrives.
    pub command_delay: WindowJitter,
    /// Probability a command is *duplicated*: delivered normally and then
    /// re-delivered 1–2 windows later (the replay is epoch-stale by
    /// construction, so the guard must reject it).
    pub command_duplicate: f64,
    /// Probability the acknowledgement of a successfully applied command
    /// is lost on the way back: the shard changed, the coordinator saw a
    /// timeout. The believed and actual allocations diverge until the
    /// retried command (fresh epoch, same target) is acknowledged.
    pub ack_loss: f64,
}

impl LinkFaults {
    /// A perfect channel: no loss, no delay, no duplication.
    pub const fn none() -> Self {
        LinkFaults {
            report_loss: 0.0,
            report_delay: WindowJitter::NONE,
            command_loss: 0.0,
            command_delay: WindowJitter::NONE,
            command_duplicate: 0.0,
            ack_loss: 0.0,
        }
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults::none()
    }
}

/// A scheduled network partition: the channel drops everything in both
/// directions for windows in `[from_window, heal_window)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First window of the outage (0-based fleet window index).
    pub from_window: u64,
    /// First window *after* the outage.
    pub heal_window: u64,
}

impl Partition {
    /// Whether the partition is in force at `window`.
    pub fn active(&self, window: u64) -> bool {
        (self.from_window..self.heal_window).contains(&window)
    }
}

/// What happened to one message or one shard, recorded in the fault log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A measurement report was dropped (loss roll or partition).
    ReportLost,
    /// A measurement report was delayed by this many windows.
    ReportDelayed(u64),
    /// An actuation command was dropped (loss roll or partition).
    CommandLost,
    /// An actuation command was delayed by this many windows.
    CommandDelayed(u64),
    /// A duplicate of a delivered command was scheduled for re-delivery.
    CommandDuplicated,
    /// The epoch guard rejected a stale/duplicate command carrying this
    /// epoch (the shard had already applied a newer one).
    StaleEpochRejected(u64),
    /// A command arrived late and was applied at the shard — without an
    /// acknowledgement path, so the coordinator still believes otherwise
    /// until its next retry is acked.
    LateCommandApplied(u64),
    /// The acknowledgement of an applied command was lost.
    AckLost,
    /// A scheduled partition started.
    PartitionStarted,
    /// A scheduled partition healed.
    PartitionHealed,
    /// The shard's machine failed: reports and acknowledgements stop.
    Crashed,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::ReportLost => write!(f, "report lost"),
            FaultKind::ReportDelayed(w) => write!(f, "report delayed {w}w"),
            FaultKind::CommandLost => write!(f, "command lost"),
            FaultKind::CommandDelayed(w) => write!(f, "command delayed {w}w"),
            FaultKind::CommandDuplicated => write!(f, "command duplicated"),
            FaultKind::StaleEpochRejected(e) => write!(f, "stale epoch {e} rejected"),
            FaultKind::LateCommandApplied(e) => write!(f, "late command (epoch {e}) applied"),
            FaultKind::AckLost => write!(f, "ack lost"),
            FaultKind::PartitionStarted => write!(f, "partition started"),
            FaultKind::PartitionHealed => write!(f, "partition healed"),
            FaultKind::Crashed => write!(f, "machine crashed"),
        }
    }
}

/// One entry of a channel's fault log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Fleet window (0-based) the event occurred in.
    pub window: u64,
    /// What happened.
    pub kind: FaultKind,
}

/// The fate the channel assigned to a just-sent command.
enum CommandFate {
    /// Delivered within the send window: the apply path runs now.
    DeliveredNow,
    /// Dropped entirely.
    Lost,
    /// Queued for a later window.
    Delayed(u64),
}

/// One shard's lossy/delayed control link, seeded and deterministic.
///
/// Owns both direction queues (backed by [`CalendarQueue`], keyed by
/// delivery window), the fault model, the scheduled partitions, the RNG
/// and the fault log. [`FaultyShard`] drives it; it is public so tests
/// and custom backends can reuse the exact same channel semantics.
#[derive(Debug, Clone)]
pub struct ControlChannel {
    faults: LinkFaults,
    partitions: Vec<Partition>,
    rng: StdRng,
    /// Current fleet window, advanced once per backend `advance()`.
    window: u64,
    /// In-flight measurement reports, keyed by delivery window.
    reports: CalendarQueue<WindowSample>,
    /// In-flight (delayed or duplicated) commands, keyed by delivery
    /// window.
    commands: CalendarQueue<RebalancePlan>,
    /// Partition state observed last window, for edge logging.
    partitioned: bool,
    log: Vec<FaultEvent>,
}

impl ControlChannel {
    /// A channel with the given fault model, seeded for deterministic
    /// replay.
    pub fn new(seed: u64, faults: LinkFaults) -> Self {
        ControlChannel {
            faults,
            partitions: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            window: 0,
            reports: CalendarQueue::new(),
            commands: CalendarQueue::new(),
            partitioned: false,
            log: Vec::new(),
        }
    }

    /// Adds a scheduled partition.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// The current fleet window (number of completed `advance()` calls).
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Every fault injected and rejection observed so far.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Whether a scheduled partition is in force right now.
    pub fn is_partitioned(&self) -> bool {
        let w = self.window;
        self.partitions.iter().any(|p| p.active(w))
    }

    fn record(&mut self, kind: FaultKind) {
        self.log.push(FaultEvent {
            window: self.window,
            kind,
        });
    }

    /// Logs partition edges for the current window.
    fn tick_partitions(&mut self) {
        let now = self.is_partitioned();
        if now != self.partitioned {
            self.record(if now {
                FaultKind::PartitionStarted
            } else {
                FaultKind::PartitionHealed
            });
            self.partitioned = now;
        }
    }

    /// Routes a shard→coordinator measurement report.
    fn send_report(&mut self, sample: WindowSample) {
        if self.is_partitioned() || self.rng.gen_bool(self.faults.report_loss.clamp(0.0, 1.0)) {
            self.record(FaultKind::ReportLost);
            return;
        }
        let delay = self.faults.report_delay.sample(&mut self.rng);
        if delay > 0 {
            self.record(FaultKind::ReportDelayed(delay));
        }
        self.reports.push(self.window + delay, sample);
    }

    /// Pops the oldest report due for delivery this window, if any.
    fn recv_report(&mut self) -> Option<WindowSample> {
        if self.reports.peek_time()? <= self.window {
            self.reports.pop().map(|(_, s)| s)
        } else {
            None
        }
    }

    /// Routes a coordinator→shard command, deciding its fate and queueing
    /// any delayed copy/duplicate.
    fn send_command(&mut self, plan: &RebalancePlan) -> CommandFate {
        if self.is_partitioned() || self.rng.gen_bool(self.faults.command_loss.clamp(0.0, 1.0)) {
            self.record(FaultKind::CommandLost);
            return CommandFate::Lost;
        }
        let delay = self.faults.command_delay.sample(&mut self.rng);
        if self
            .rng
            .gen_bool(self.faults.command_duplicate.clamp(0.0, 1.0))
        {
            // The replica trails the original by 1–2 windows; by the time
            // it arrives the epoch guard must reject it.
            let echo = delay + self.rng.gen_range(1..=2u64);
            self.record(FaultKind::CommandDuplicated);
            self.commands.push(self.window + echo, plan.clone());
        }
        if delay > 0 {
            self.record(FaultKind::CommandDelayed(delay));
            self.commands.push(self.window + delay, plan.clone());
            CommandFate::Delayed(delay)
        } else {
            CommandFate::DeliveredNow
        }
    }

    /// Whether the acknowledgement of an applied command is lost.
    fn roll_ack_loss(&mut self) -> bool {
        let lost = self.rng.gen_bool(self.faults.ack_loss.clamp(0.0, 1.0));
        if lost {
            self.record(FaultKind::AckLost);
        }
        lost
    }

    /// Drains every queued command due for delivery this window, in
    /// deterministic `(window, sequence)` order.
    fn due_commands(&mut self) -> Vec<RebalancePlan> {
        let mut due = Vec::new();
        while self.commands.peek_time().is_some_and(|t| t <= self.window) {
            let (_, plan) = self.commands.pop().expect("peeked");
            due.push(plan);
        }
        due
    }

    /// Closes the current window.
    fn end_window(&mut self) {
        self.window += 1;
    }
}

/// A [`CspBackend`] whose control plane runs through a [`ControlChannel`]
/// — the fault-injected shard (see the [module docs](self) for the full
/// semantics). Wraps any backend; with [`LinkFaults::none`], no
/// partitions and no crash it is observationally identical to the inner
/// backend.
#[derive(Debug, Clone)]
pub struct FaultyShard<B> {
    inner: B,
    channel: ControlChannel,
    n_ops: usize,
    /// Highest actuation epoch the shard has applied (the guard).
    epoch_applied: u64,
    /// The allocation the coordinator *believes* is in force: updated only
    /// by an acknowledged apply. Ground truth is
    /// [`FaultyShard::ground_truth_allocation`]; the two diverge across a
    /// lost ack or a late-applied command until the next acked retry.
    believed: Vec<u32>,
    crashed: bool,
    crash_at: Option<u64>,
}

impl<B: CspBackend> FaultyShard<B> {
    /// Wraps `inner` behind a fault-injected control channel.
    pub fn new(inner: B, channel: ControlChannel) -> Self {
        let believed = inner.current_allocation();
        let n_ops = inner.operator_names().len();
        FaultyShard {
            inner,
            channel,
            n_ops,
            epoch_applied: 0,
            believed,
            crashed: false,
            crash_at: None,
        }
    }

    /// Convenience: a perfect channel (still epoch-guarded) around
    /// `inner`.
    pub fn perfect(inner: B, seed: u64) -> Self {
        FaultyShard::new(inner, ControlChannel::new(seed, LinkFaults::none()))
    }

    /// Schedules a machine failure at the given fleet window (0-based):
    /// from that window on the shard stops reporting and never
    /// acknowledges a command again.
    pub fn crash_at(&mut self, window: u64) {
        self.crash_at = Some(window);
    }

    /// Crashes the machine immediately.
    pub fn crash_now(&mut self) {
        if !self.crashed {
            self.crashed = true;
            self.channel.record(FaultKind::Crashed);
        }
    }

    /// Whether the machine has failed.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The wrapped backend (e.g. to inject workload drift).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped backend.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// The shard's channel (fault log, partition state).
    pub fn channel(&self) -> &ControlChannel {
        &self.channel
    }

    /// Every fault injected and rejection observed on this shard's link.
    pub fn fault_log(&self) -> &[FaultEvent] {
        self.channel.log()
    }

    /// The allocation actually in force at the shard — may transiently
    /// differ from [`CspBackend::current_allocation`] (the believed one)
    /// across a lost ack or a late-applied command.
    pub fn ground_truth_allocation(&self) -> Vec<u32> {
        self.inner.current_allocation()
    }

    /// An empty window sample: nothing arrived at the coordinator.
    fn silent_sample(&self) -> WindowSample {
        WindowSample {
            external_rate: None,
            operators: vec![
                OperatorSample {
                    arrival_rate: None,
                    service_rate: None,
                };
                self.n_ops
            ],
            mean_sojourn: None,
            std_sojourn: None,
            completed: 0,
        }
    }

    /// Applies a command at the shard if its epoch is strictly newer,
    /// recording a rejection otherwise. Returns the applied rebalance on
    /// success.
    fn apply_epoch_checked(
        &mut self,
        plan: &RebalancePlan,
    ) -> Result<Option<AppliedRebalance>, BackendError> {
        if plan.epoch <= self.epoch_applied {
            self.channel
                .record(FaultKind::StaleEpochRejected(plan.epoch));
            return Ok(None);
        }
        let applied = self.inner.apply(plan)?;
        self.epoch_applied = plan.epoch;
        Ok(Some(applied))
    }
}

impl<B: CspBackend> CspBackend for FaultyShard<B> {
    fn backend_name(&self) -> &'static str {
        "faulty"
    }

    fn operator_names(&self) -> Vec<String> {
        self.inner.operator_names()
    }

    /// The allocation the coordinator believes is in force (acked state),
    /// not necessarily the shard's ground truth.
    fn current_allocation(&self) -> Vec<u32> {
        self.believed.clone()
    }

    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let window = self.channel.window();
        if self.crash_at == Some(window) {
            self.crash_now();
        }
        self.channel.tick_partitions();

        // Late/duplicated commands arriving this window hit the shard
        // before it runs the window — without an ack path. A crashed
        // machine swallows them.
        if !self.crashed {
            for plan in self.channel.due_commands() {
                let epoch = plan.epoch;
                // A refusal by the engine (e.g. mid-pause) on a late
                // command is silent too: there is nobody to tell.
                if let Ok(Some(_)) = self.apply_epoch_checked(&plan) {
                    self.channel.record(FaultKind::LateCommandApplied(epoch));
                }
            }
            let sample = self.inner.advance(window_secs);
            self.channel.send_report(sample);
        }

        // Whatever the channel delivers this window — possibly a report
        // sent windows ago, possibly nothing at all. In-flight reports
        // keep arriving even after a crash.
        let delivered = self
            .channel
            .recv_report()
            .unwrap_or_else(|| self.silent_sample());
        self.channel.end_window();
        delivered
    }

    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        if self.crashed {
            // The machine is gone; the command disappears into the void.
            return Err(BackendError::Timeout(
                "shard machine crashed: no acknowledgement".to_owned(),
            ));
        }
        match self.channel.send_command(plan) {
            CommandFate::Lost => Err(BackendError::Timeout(
                "command lost in control channel".to_owned(),
            )),
            CommandFate::Delayed(w) => Err(BackendError::Timeout(format!(
                "command delayed {w} windows: no acknowledgement within the window"
            ))),
            CommandFate::DeliveredNow => match self.apply_epoch_checked(plan)? {
                None => Err(BackendError::RebalanceUnavailable(format!(
                    "stale actuation epoch {} rejected (shard at {})",
                    plan.epoch, self.epoch_applied
                ))),
                Some(applied) => {
                    if self.channel.roll_ack_loss() {
                        // Applied at the shard, but the coordinator never
                        // hears it: believed state stays put and the
                        // retry (fresh epoch, same target) re-syncs it.
                        Err(BackendError::Timeout(
                            "acknowledgement lost in control channel".to_owned(),
                        ))
                    } else {
                        self.believed = applied.allocation.clone();
                        Ok(applied)
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic inner backend.
    #[derive(Debug, Clone)]
    struct Echo {
        allocation: Vec<u32>,
        applied_epochs: Vec<u64>,
        advances: u64,
    }

    impl Echo {
        fn new(k: u32) -> Self {
            Echo {
                allocation: vec![k],
                applied_epochs: Vec::new(),
                advances: 0,
            }
        }
    }

    impl CspBackend for Echo {
        fn backend_name(&self) -> &'static str {
            "echo"
        }
        fn operator_names(&self) -> Vec<String> {
            vec!["work".to_owned()]
        }
        fn current_allocation(&self) -> Vec<u32> {
            self.allocation.clone()
        }
        fn advance(&mut self, _w: f64) -> WindowSample {
            self.advances += 1;
            WindowSample {
                external_rate: Some(10.0 + self.advances as f64),
                operators: vec![OperatorSample {
                    arrival_rate: Some(10.0),
                    service_rate: Some(5.0),
                }],
                mean_sojourn: Some(0.5),
                std_sojourn: None,
                completed: self.advances,
            }
        }
        fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
            self.applied_epochs.push(plan.epoch);
            self.allocation = plan.allocation.clone();
            Ok(AppliedRebalance {
                allocation: plan.allocation.clone(),
                pause_secs: plan.pause_secs,
            })
        }
    }

    fn plan(k: u32, epoch: u64) -> RebalancePlan {
        RebalancePlan {
            allocation: vec![k],
            pause_secs: 0.1,
            epoch,
            placement: None,
        }
    }

    #[test]
    fn perfect_channel_is_passthrough() {
        let mut inner = Echo::new(4);
        let mut faulty = FaultyShard::perfect(Echo::new(4), 7);
        for _ in 0..5 {
            let a = inner.advance(1.0);
            let b = faulty.advance(1.0);
            assert_eq!(a, b);
        }
        let applied = faulty.apply(&plan(6, 1)).unwrap();
        assert_eq!(applied.allocation, vec![6]);
        assert_eq!(faulty.current_allocation(), vec![6]);
        assert!(faulty.fault_log().is_empty());
    }

    #[test]
    fn epoch_guard_rejects_duplicates_and_stale_commands() {
        let mut s = FaultyShard::perfect(Echo::new(4), 7);
        s.apply(&plan(6, 2)).unwrap();
        // A replayed (same-epoch) command is refused, not double-applied…
        let err = s.apply(&plan(8, 2)).unwrap_err();
        assert!(matches!(err, BackendError::RebalanceUnavailable(_)));
        // …and so is an older one.
        let err = s.apply(&plan(8, 1)).unwrap_err();
        assert!(matches!(err, BackendError::RebalanceUnavailable(_)));
        assert_eq!(s.inner().applied_epochs, vec![2]);
        assert!(s
            .fault_log()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::StaleEpochRejected(_))));
        // A fresh epoch still lands.
        s.apply(&plan(8, 3)).unwrap();
        assert_eq!(s.inner().applied_epochs, vec![2, 3]);
    }

    #[test]
    fn lost_command_times_out_and_is_not_applied() {
        let faults = LinkFaults {
            command_loss: 1.0,
            ..LinkFaults::none()
        };
        let mut s = FaultyShard::new(Echo::new(4), ControlChannel::new(3, faults));
        let err = s.apply(&plan(6, 1)).unwrap_err();
        assert!(matches!(err, BackendError::Timeout(_)));
        assert_eq!(s.ground_truth_allocation(), vec![4]);
        assert_eq!(s.current_allocation(), vec![4]);
        assert!(s
            .fault_log()
            .iter()
            .any(|e| e.kind == FaultKind::CommandLost));
    }

    #[test]
    fn delayed_command_applies_later_without_ack() {
        let faults = LinkFaults {
            command_delay: WindowJitter::fixed(2),
            ..LinkFaults::none()
        };
        let mut s = FaultyShard::new(Echo::new(4), ControlChannel::new(3, faults));
        let err = s.apply(&plan(6, 1)).unwrap_err();
        assert!(matches!(err, BackendError::Timeout(_)));
        s.advance(1.0); // window 0 → 1: not yet
        assert_eq!(s.ground_truth_allocation(), vec![4]);
        s.advance(1.0); // window 1 → 2: not yet (delivery at window 2)
        s.advance(1.0); // start of window 2: delivered
        assert_eq!(s.ground_truth_allocation(), vec![6]);
        // No ack ever came back: the coordinator still believes 4.
        assert_eq!(s.current_allocation(), vec![4]);
        assert!(s
            .fault_log()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::LateCommandApplied(1))));
    }

    #[test]
    fn lost_ack_applies_but_reports_timeout() {
        let faults = LinkFaults {
            ack_loss: 1.0,
            ..LinkFaults::none()
        };
        let mut s = FaultyShard::new(Echo::new(4), ControlChannel::new(3, faults));
        let err = s.apply(&plan(6, 1)).unwrap_err();
        assert!(matches!(err, BackendError::Timeout(_)));
        // Ground truth moved; believed did not.
        assert_eq!(s.ground_truth_allocation(), vec![6]);
        assert_eq!(s.current_allocation(), vec![4]);
    }

    #[test]
    fn delayed_reports_arrive_later_in_order() {
        let faults = LinkFaults {
            report_delay: WindowJitter::fixed(1),
            ..LinkFaults::none()
        };
        let mut s = FaultyShard::new(Echo::new(4), ControlChannel::new(3, faults));
        // Window 0's report is delayed to window 1: window 0 is silent.
        let w0 = s.advance(1.0);
        assert_eq!(w0.external_rate, None);
        // Window 1 delivers window 0's report (completed == 1).
        let w1 = s.advance(1.0);
        assert_eq!(w1.completed, 1);
        let w2 = s.advance(1.0);
        assert_eq!(w2.completed, 2);
    }

    #[test]
    fn partition_drops_both_directions_then_heals() {
        let channel = ControlChannel::new(3, LinkFaults::none()).with_partition(Partition {
            from_window: 1,
            heal_window: 3,
        });
        let mut s = FaultyShard::new(Echo::new(4), channel);
        assert!(s.advance(1.0).external_rate.is_some()); // window 0: fine
        assert_eq!(s.advance(1.0).external_rate, None); // window 1: dark
        let err = s.apply(&plan(6, 1)).unwrap_err(); // commands drop too
        assert!(matches!(err, BackendError::Timeout(_)));
        assert_eq!(s.advance(1.0).external_rate, None); // window 2: dark
        assert!(s.advance(1.0).external_rate.is_some()); // window 3: healed
        let kinds: Vec<&FaultKind> = s.fault_log().iter().map(|e| &e.kind).collect();
        assert!(kinds.contains(&&FaultKind::PartitionStarted));
        assert!(kinds.contains(&&FaultKind::PartitionHealed));
    }

    #[test]
    fn crash_silences_the_shard_forever() {
        let mut s = FaultyShard::perfect(Echo::new(4), 3);
        s.crash_at(2);
        assert!(s.advance(1.0).external_rate.is_some());
        assert!(s.advance(1.0).external_rate.is_some());
        assert_eq!(s.advance(1.0).external_rate, None); // crash window
        assert!(s.is_crashed());
        assert_eq!(s.advance(1.0).external_rate, None);
        let err = s.apply(&plan(6, 1)).unwrap_err();
        assert!(matches!(err, BackendError::Timeout(_)));
        // The inner machine never ran past the crash.
        assert_eq!(s.inner().advances, 2);
        assert!(s.fault_log().iter().any(|e| e.kind == FaultKind::Crashed));
    }

    #[test]
    fn same_seed_same_faults() {
        let faults = LinkFaults {
            report_loss: 0.4,
            command_loss: 0.3,
            command_delay: WindowJitter { base: 0, jitter: 2 },
            ..LinkFaults::none()
        };
        let run = || {
            let mut s = FaultyShard::new(Echo::new(4), ControlChannel::new(42, faults));
            let mut outcomes = Vec::new();
            for i in 0..20u64 {
                let w = s.advance(1.0);
                outcomes.push(w.completed);
                if i % 3 == 0 {
                    outcomes.push(u64::from(s.apply(&plan(4 + i as u32, i + 1)).is_ok()));
                }
            }
            (outcomes, s.fault_log().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoint_clone_resumes_identically() {
        let faults = LinkFaults {
            report_loss: 0.3,
            report_delay: WindowJitter { base: 0, jitter: 1 },
            ..LinkFaults::none()
        };
        let mut s = FaultyShard::new(Echo::new(4), ControlChannel::new(9, faults));
        for _ in 0..5 {
            s.advance(1.0);
        }
        let mut branch = s.clone();
        let a: Vec<Option<f64>> = (0..10).map(|_| s.advance(1.0).external_rate).collect();
        let b: Vec<Option<f64>> = (0..10).map(|_| branch.advance(1.0).external_rate).collect();
        assert_eq!(a, b);
    }
}
