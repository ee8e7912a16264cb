//! The benchmark's own instrumentation: in-memory spans recorded by the
//! wrappers around public calls, a counting allocator armed only while a
//! traced run measures, and readers for process CPU time, peak RSS and the
//! run metadata. Nothing here reaches into the workspace crates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-call spans are kept for one call in this many; every call still
/// counts towards its [`CallStats`] totals.
pub const SAMPLE_EVERY: u64 = 1024;

/// A cheap monotonic tick count for timing every call: the time-stamp
/// counter on x86_64, where reading it costs a fraction of
/// `Instant::now()` (about 18 against 43 ns on a 2-CPU KVM guest) — the
/// difference is most of the tracing overhead on a 0.2 µs null tuple.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions and exists on every x86_64 CPU.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// A cheap monotonic tick count: nanoseconds since first use elsewhere.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn ticks() -> u64 {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds per tick, measured once against `Instant` over 20 ms
/// (the counter runs at a constant rate on the CPUs this targets).
pub fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        let (t0, k0) = (Instant::now(), ticks());
        std::thread::sleep(Duration::from_millis(20));
        let (ns, k) = (t0.elapsed().as_nanos() as f64, ticks() - k0);
        if k == 0 {
            1.0
        } else {
            ns / k as f64
        }
    })
}

/// One recorded interval. `parent == 0` marks a root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time of this span's interval already attributed to child calls,
    /// counted exactly over every call (not just the sampled spans). The
    /// span's self time is its busy time minus this.
    pub child_ns: u64,
    /// Time the span's layer was busy: its duration for a single-threaded
    /// span, process CPU time for a span covering parallel threads.
    pub busy_ns: u64,
}

/// The in-memory span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    epoch_ticks: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    calls: Mutex<Vec<Arc<CallStats>>>,
}

impl Tracer {
    pub fn new() -> Self {
        ns_per_tick();
        Tracer {
            epoch: Instant::now(),
            epoch_ticks: ticks(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            calls: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn tick_ns(&self, t: u64) -> u64 {
        (t.saturating_sub(self.epoch_ticks) as f64 * ns_per_tick()) as u64
    }

    /// Reserves a span id, so children can name their parent before the
    /// span itself closes.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a reserved `id`.
    pub fn record(&self, id: u64, parent: u64, name: &str, start: Instant, end: Instant) {
        self.record_busy(id, parent, name, start, end, 0, None);
    }

    /// Records a closed span with its exact child time and, for spans
    /// covering parallel threads, an explicit busy time.
    #[allow(clippy::too_many_arguments)]
    pub fn record_busy(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        start: Instant,
        end: Instant,
        child_ns: u64,
        busy_ns: Option<u64>,
    ) {
        self.push(
            id,
            parent,
            name,
            (self.ns(start), self.ns(end)),
            child_ns,
            busy_ns,
        );
    }

    fn push(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        child_ns: u64,
        busy_ns: Option<u64>,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
            child_ns,
            busy_ns: busy_ns.unwrap_or(end_ns - start_ns),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Registers an exact call counter; its sampled spans hang under the
    /// span [`CallStats::set_parent`] names last.
    pub fn calls(self: &Arc<Self>, name: &str) -> Arc<CallStats> {
        let stats = Arc::new(CallStats {
            name: name.to_owned(),
            parent: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            total_ticks: AtomicU64::new(0),
            tracer: Arc::clone(self),
        });
        self.calls
            .lock()
            .expect("call registry poisoned")
            .push(Arc::clone(&stats));
        stats
    }

    /// The recorded spans followed by one line per call counter, as JSON
    /// lines; each span line carries its self time.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let spans = self.spans.lock().expect("span store poisoned");
        for s in spans.iter() {
            let self_ns = s.busy_ns as i128 - s.child_ns as i128;
            let _ = writeln!(
                out,
                "{{\"span\": {}, \"parent\": {}, \"name\": {}, \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"self_us\": {:.3}}}",
                s.id,
                s.parent,
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3
            );
        }
        for c in self.calls.lock().expect("call registry poisoned").iter() {
            let _ = writeln!(
                out,
                "{{\"calls\": {}, \"parent\": {}, \"count\": {}, \"total_us\": {:.3}}}",
                json_str(&c.name),
                c.parent.load(Ordering::Relaxed),
                c.calls(),
                c.total_ns() as f64 / 1e3
            );
        }
        out
    }
}

/// Exact count and total time of every call through one wrapper, with a
/// span kept for one call in [`SAMPLE_EVERY`].
#[derive(Debug)]
pub struct CallStats {
    name: String,
    parent: AtomicU64,
    calls: AtomicU64,
    total_ticks: AtomicU64,
    tracer: Arc<Tracer>,
}

impl CallStats {
    /// Counts one call that ran from tick `start` to tick `end`.
    pub fn add(&self, start: u64, end: u64) {
        self.total_ticks
            .fetch_add(end.saturating_sub(start), Ordering::Relaxed);
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(SAMPLE_EVERY) {
            let t = &self.tracer;
            let parent = self.parent.load(Ordering::Relaxed);
            let span = (t.tick_ns(start), t.tick_ns(end));
            t.push(t.reserve(), parent, &self.name, span, 0, None);
        }
    }

    pub fn set_parent(&self, parent: u64) {
        self.parent.store(parent, Ordering::Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn total_ns(&self) -> u64 {
        (self.total_ticks.load(Ordering::Relaxed) as f64 * ns_per_tick()) as u64
    }
}

/// A switchable timer shared by the wrappers of one layer: while `on`,
/// every wrapped call is timed into `stats`; while off (always, in an
/// untraced run) a wrapped call costs one relaxed load.
#[derive(Debug)]
pub struct Probe {
    on: AtomicBool,
    stats: Option<Arc<CallStats>>,
}

impl Probe {
    /// A probe that never times (untraced runs).
    pub fn off() -> Arc<Self> {
        Arc::new(Probe {
            on: AtomicBool::new(false),
            stats: None,
        })
    }

    /// A probe timing into a fresh counter `name`, initially off.
    pub fn new(tracer: &Arc<Tracer>, name: &str) -> Arc<Self> {
        Arc::new(Probe {
            on: AtomicBool::new(false),
            stats: Some(tracer.calls(name)),
        })
    }

    pub fn set(&self, on: bool) {
        self.on.store(on && self.stats.is_some(), Ordering::Relaxed);
    }

    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start = ticks();
        let r = f();
        if let Some(stats) = &self.stats {
            stats.add(start, ticks());
        }
        r
    }

    pub fn stats(&self) -> Option<&Arc<CallStats>> {
        self.stats.as_ref()
    }

    /// `(calls, total_ns)` so far (zeros for an untraced probe).
    pub fn totals(&self) -> (u64, u64) {
        self.stats
            .as_ref()
            .map_or((0, 0), |s| (s.calls(), s.total_ns()))
    }
}

/// Global allocator that counts allocations while armed. Disarmed (the
/// whole of an untraced run) it adds one relaxed load per allocation.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count_alloc() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr` was allocated by `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Arms or disarms the allocation counter.
pub fn arm_alloc_counter(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations counted while armed, over the whole run.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of this process (all threads), in nanoseconds,
/// from `/proc/self/stat` (clock-tick resolution).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    (ticks(11) + ticks(12)) * (1_000_000_000 / CLOCK_TICKS_PER_SEC)
}

/// `sysconf(_SC_CLK_TCK)` on every Linux platform this runs on.
const CLOCK_TICKS_PER_SEC: u64 = 100;

/// The first `/proc/loadavg` reading (1-minute load).
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host's CPU model name.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
