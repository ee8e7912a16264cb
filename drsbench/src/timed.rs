//! A timing [`CspBackend`] wrapper: every call the drivers make into a
//! backend goes through a [`Probe`], so a traced run can split a control
//! window into backend time and the driver's own time.

use crate::trace::Probe;
use drs_core::driver::{AppliedRebalance, BackendError, CspBackend, RebalancePlan, WindowSample};
use drs_core::placement::Placement;
use std::sync::Arc;

#[derive(Debug)]
pub struct Timed<B> {
    pub inner: B,
    probe: Arc<Probe>,
}

impl<B> Timed<B> {
    pub fn new(inner: B, probe: Arc<Probe>) -> Self {
        Timed { inner, probe }
    }
}

impl<B: CspBackend> CspBackend for Timed<B> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn operator_names(&self) -> Vec<String> {
        self.inner.operator_names()
    }

    fn current_allocation(&self) -> Vec<u32> {
        self.probe.time(|| self.inner.current_allocation())
    }

    fn current_allocation_into(&self, out: &mut Vec<u32>) {
        self.probe.time(|| self.inner.current_allocation_into(out));
    }

    fn advance(&mut self, window_secs: f64) -> WindowSample {
        let inner = &mut self.inner;
        self.probe.time(|| inner.advance(window_secs))
    }

    fn advance_into(&mut self, window_secs: f64, out: &mut WindowSample) {
        let inner = &mut self.inner;
        self.probe.time(|| inner.advance_into(window_secs, out));
    }

    fn apply(&mut self, plan: &RebalancePlan) -> Result<AppliedRebalance, BackendError> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.apply(plan))
    }

    fn apply_placement(&mut self, placement: &Placement) -> Result<(), BackendError> {
        let inner = &mut self.inner;
        self.probe.time(|| inner.apply_placement(placement))
    }
}
