//! Traced mode: spans and counts recorded from the benchmark's own files,
//! only by timing calls into the crates' public functions.
//!
//! * [`TracedStream`] wraps `WorkloadStream::next_op` (the `workloads`
//!   layer) — it is an `InstrStream` like any other, so the simulated
//!   trajectory is untouched.
//! * [`TimingObserver`] brackets the scheme's `on_event` (the `core`
//!   layer) with the bus's `pre_event`/`post_event` pair and counts
//!   stepped cycles in `cycle_end`. It keeps the default
//!   `next_event_after` (`Cycle::MAX`), so the run loop fast-forwards
//!   exactly as it does untraced.
//! * [`replay`] drives a traced `System` through the same warm-up and
//!   census window `Runner::run` uses and rebuilds the `RunStats` from the
//!   machine's public counters; the caller compares them bit for bit
//!   against an untraced `Runner::run`.
//! * [`ecc_rung`] and [`mem_rung`] time the SECDED functions and the
//!   hierarchy's public `load`/`store` path in isolation.
//!
//! Fine-grained calls are sampled (one in [`SAMPLE_EVERY`] `next_op` and
//! `on_event` calls is timed) and the cost of an empty timer pair is subtracted, so
//! the per-call figures estimate the call, not the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use aep_core::ProtectionScheme;
use aep_cpu::isa::{InstrStream, MicroOp, OpClass};
use aep_ecc::Secded64;
use aep_mem::cache::Cache;
use aep_mem::{Cycle, L2Event, MainMemory, MemoryHierarchy, WbClass};
use aep_sim::{ExperimentConfig, L2Window, RunStats, Runner, System, SystemObserver};
use aep_workloads::WorkloadStream;

use crate::util::{mix, secs};

/// One in this many `next_op` and `on_event` calls is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// Every per-layer metric the traced mode emits, with its unit. Layers a
/// workload does not exercise report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.next_op_ns", "ns"),
    ("workloads.share", "fraction"),
    ("workloads.ops", "count"),
    ("core.on_event_ns", "ns"),
    ("core.share", "fraction"),
    ("core.events", "count"),
    ("core.ecc_wb", "count"),
    ("ecc.secded_encode_ns", "ns"),
    ("ecc.secded_decode_ns", "ns"),
    ("mem.access_ns", "ns"),
    ("sim.stepped_frac", "fraction"),
    ("sim.step_ns", "ns"),
    ("sim.other_share", "fraction"),
    ("sim.lanes.batched_frac", "fraction"),
    ("sim.lanes.batches", "count"),
    ("bench.lab.plan_s", "s"),
    ("bench.lab.busy_frac", "fraction"),
    ("faultsim.warm_s", "s"),
    ("faultsim.fork_s", "s"),
    ("faultsim.campaign_s.org.single", "s"),
    ("faultsim.campaign_s.org.col-4", "s"),
    ("faultsim.campaign_s.org.accum-scrub", "s"),
    ("faultsim.campaign_s.proposed-1M.single", "s"),
    ("faultsim.campaign_s.proposed-1M.col-4", "s"),
    ("faultsim.campaign_s.proposed-1M.accum-scrub", "s"),
    ("faultsim.chunks", "count"),
    ("serve.memo_us", "us"),
    ("serve.disk_us", "us"),
    ("serve.fresh_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.dedup", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("cpu.ipc", "ipc"),
    ("cpu.committed", "count"),
    ("mem.l2_miss_ratio", "fraction"),
    ("mem.wb_total", "count"),
    ("faultsim.masked", "count"),
    ("faultsim.corrected", "count"),
    ("faultsim.refetch", "count"),
    ("faultsim.due", "count"),
    ("faultsim.sdc", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// The per-layer metric values of one traced run.
#[derive(Debug)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(k, _)| **k == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        *slot.1 = value;
    }

    /// Adds to one metric.
    pub fn add(&mut self, name: &str, value: f64) {
        let cur = self.get(name);
        self.set(name, cur + value);
    }

    /// Reads one metric.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(name, value, unit)` in [`PER_LAYER`] order.
    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(n, u)| (*n, self.get(n), *u))
            .collect()
    }
}

/// Coarse spans of one traced run (name, start, end, parent), kept in
/// memory and written out as JSON lines when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<(String, f64, f64, Option<usize>)>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span) and returns its result with the span's duration.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let start = secs(self.origin);
        let id = self.spans.len();
        self.spans
            .push((name.into(), start, start, self.open.last().copied()));
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = secs(self.origin);
        self.spans[id].2 = end;
        (out, end - start)
    }

    /// Records an already-measured span (e.g. one timed on a worker
    /// thread) under the innermost open span.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        let s = start.saturating_duration_since(self.origin).as_secs_f64();
        let e = end.saturating_duration_since(self.origin).as_secs_f64();
        self.spans
            .push((name.into(), s, e, self.open.last().copied()));
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (name, s, e, parent)) in self.spans.iter().enumerate() {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":{},\"start_s\":{s},\"end_s\":{e},\"parent\":{parent}}}",
                crate::util::json_str(name)
            )?;
        }
        f.flush()
    }
}

/// What an empty timed span reads, in nanoseconds (the best of three
/// means) — subtracted from every timed call.
fn timer_cost_ns() -> f64 {
    let n = 200_000u32;
    let mut best = f64::MAX;
    for _ in 0..3 {
        let mut acc = 0u128;
        for _ in 0..n {
            let start = Instant::now();
            acc += start.elapsed().as_nanos();
        }
        best = best.min(acc as f64 / f64::from(n));
    }
    best
}

#[derive(Debug, Default)]
struct OpTimer {
    ops: u64,
    timed: u64,
    timed_ns: u128,
}

/// An `InstrStream` that forwards to a [`WorkloadStream`] and times a
/// sample of its `next_op` calls.
pub struct TracedStream {
    inner: WorkloadStream,
    timer: Rc<RefCell<OpTimer>>,
}

impl InstrStream for TracedStream {
    fn next_op(&mut self) -> MicroOp {
        let mut t = self.timer.borrow_mut();
        t.ops += 1;
        if t.ops.is_multiple_of(SAMPLE_EVERY) {
            let start = Instant::now();
            let op = self.inner.next_op();
            t.timed_ns += start.elapsed().as_nanos();
            t.timed += 1;
            op
        } else {
            self.inner.next_op()
        }
    }
}

#[derive(Debug, Default)]
struct EventTimer {
    start: Option<Instant>,
    events: u64,
    timed: u64,
    event_ns: u128,
    ecc_wb: u64,
    stepped: u64,
}

/// Brackets the scheme's `on_event` with the bus's pre/post hooks and
/// counts stepped cycles.
struct TimingObserver {
    timer: Rc<RefCell<EventTimer>>,
}

impl SystemObserver for TimingObserver {
    fn pre_event(
        &mut self,
        _event: &L2Event,
        _l2: &mut Cache,
        _scheme: &mut dyn ProtectionScheme,
        _memory: &mut MainMemory,
        _now: Cycle,
    ) {
        let mut t = self.timer.borrow_mut();
        t.events += 1;
        if t.events.is_multiple_of(SAMPLE_EVERY) {
            t.start = Some(Instant::now());
        }
    }

    fn post_event(
        &mut self,
        event: &L2Event,
        _hier: &MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
        let mut t = self.timer.borrow_mut();
        if let Some(start) = t.start.take() {
            t.event_ns += start.elapsed().as_nanos();
            t.timed += 1;
        }
        if matches!(
            event,
            L2Event::Cleaned {
                class: WbClass::EccEviction,
                ..
            }
        ) {
            t.ecc_wb += 1;
        }
    }

    fn cycle_end(
        &mut self,
        _hier: &mut MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
        self.timer.borrow_mut().stepped += 1;
    }
}

/// What one traced replay measured.
struct Replay {
    /// Statistics rebuilt from the traced machine.
    stats: RunStats,
    /// Wall seconds of the traced replay.
    traced_s: f64,
    /// Wall seconds of the untraced `Runner::run` of the same config.
    untraced_s: f64,
    /// `next_op` calls.
    ops: u64,
    /// Estimated nanoseconds per `next_op` call.
    op_ns: f64,
    /// Scheme events drained.
    events: u64,
    /// Estimated nanoseconds per `on_event` call.
    event_ns: f64,
    /// ECC-WB write-backs observed on the bus.
    ecc_wb: u64,
    /// Cycles the run loop stepped (the rest were fast-forwarded).
    stepped: u64,
    /// Cycles simulated (warm-up + window).
    cycles: u64,
}

/// Replays `cfg` traced — same warm-up and census window as
/// `Runner::run` — and untraced through `Runner::run`, returning both
/// timings, the layer counts, and the traced run's rebuilt statistics.
/// The untraced statistics are returned separately for the caller's
/// bit-for-bit comparison.
fn replay(cfg: &ExperimentConfig, timer_ns: f64) -> (Replay, RunStats) {
    let t = Instant::now();
    let untraced = Runner::new(cfg.clone()).run();
    let untraced_s = secs(t);

    let ops = Rc::new(RefCell::new(OpTimer::default()));
    let events = Rc::new(RefCell::new(EventTimer::default()));
    let t = Instant::now();
    let stream = TracedStream {
        inner: cfg.benchmark.stream(cfg.seed),
        timer: Rc::clone(&ops),
    };
    let mut sys = System::new(cfg.core.clone(), cfg.hierarchy.clone(), cfg.scheme, stream);
    sys.set_respect_written_bit(cfg.respect_written_bit);
    if let Some(period) = cfg.scrub_period {
        sys.enable_scrubbing(period);
    }
    sys.add_observer(Box::new(TimingObserver {
        timer: Rc::clone(&events),
    }));
    let now = sys.run(0, cfg.warmup_cycles);
    let stats = window_stats(cfg, &mut sys, now);
    let traced_s = secs(t);

    let o = ops.borrow();
    let e = events.borrow();
    let per_call = |ns: u128, n: u64| {
        if n == 0 {
            0.0
        } else {
            (ns as f64 / n as f64 - timer_ns).max(0.0)
        }
    };
    let replay = Replay {
        stats,
        traced_s,
        untraced_s,
        ops: o.ops,
        op_ns: per_call(o.timed_ns, o.timed),
        events: e.events,
        event_ns: per_call(e.event_ns, e.timed),
        ecc_wb: e.ecc_wb,
        stepped: e.stepped,
        cycles: cfg.warmup_cycles + cfg.measure_cycles,
    };
    (replay, untraced)
}

/// Runs the measured window on a warmed traced system and rebuilds the
/// window statistics exactly as the runner does.
fn window_stats(cfg: &ExperimentConfig, sys: &mut System<TracedStream>, now: Cycle) -> RunStats {
    let l2_before = *sys.hier.l2().stats();
    let ops_before = sys.hier.ops();
    let committed_before = sys.cpu.stats().committed;
    let energy_before = sys.scheme.energy_counters();
    let dirty_sum = sys.run_census(now, cfg.measure_cycles);
    let energy = sys.scheme.energy_counters().since(&energy_before);

    let total_lines = sys.hier.l2().total_lines() as f64;
    let l2_after = sys.hier.l2().stats().since(&l2_before);
    let committed = sys.cpu.stats().committed - committed_before;
    let avg_dirty_lines = dirty_sum as f64 / cfg.measure_cycles as f64;
    RunStats {
        benchmark: cfg.benchmark.clone(),
        scheme: cfg.scheme,
        cycles: cfg.measure_cycles,
        committed,
        ipc: committed as f64 / cfg.measure_cycles as f64,
        l2: L2Window {
            avg_dirty_fraction: avg_dirty_lines / total_lines,
            avg_dirty_lines,
            final_dirty_fraction: sys.hier.l2().dirty_line_count() as f64 / total_lines,
            wb_replacement: l2_after.writebacks_replacement,
            wb_cleaning: l2_after.writebacks_cleaning,
            wb_ecc: l2_after.writebacks_ecc_eviction,
            loads_stores: sys.hier.ops().loads_stores() - ops_before.loads_stores(),
        },
        mispredict_ratio: sys.cpu.bpred().stats().mispredict_ratio(),
        l1d_miss_ratio: sys.hier.l1d().stats().miss_ratio(),
        l2_miss_ratio: sys.hier.l2().stats().miss_ratio(),
        energy,
    }
}

/// Folds a set of replays into the `workloads`, `core` and `sim` layer
/// metrics, and checks each traced replay against its untraced run.
fn fold_replays(
    layers: &mut Layers,
    checker: &mut crate::check::Checker,
    replays: &[(Replay, RunStats)],
) {
    let mut ops = 0u64;
    let mut op_time = 0.0;
    let mut events = 0u64;
    let mut event_time = 0.0;
    let mut ecc_wb = 0u64;
    let mut stepped = 0u64;
    let mut cycles = 0u64;
    let mut untraced = 0.0;
    let mut traced = 0.0;
    for (r, want) in replays {
        let got = crate::check::stats_line(&r.stats);
        let want = crate::check::stats_line(want);
        checker.record(got == want, || {
            format!("traced replay diverged from untraced run: {want}")
        });
        ops += r.ops;
        op_time += r.op_ns * r.ops as f64;
        events += r.events;
        event_time += r.event_ns * r.events as f64;
        ecc_wb += r.ecc_wb;
        stepped += r.stepped;
        cycles += r.cycles;
        untraced += r.untraced_s;
        traced += r.traced_s;
    }
    let ns = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let share = |x: f64| {
        if untraced > 0.0 {
            x * 1e-9 / untraced
        } else {
            0.0
        }
    };
    layers.set("workloads.next_op_ns", ns(op_time, ops));
    layers.set("workloads.ops", ops as f64);
    layers.set("workloads.share", share(op_time));
    layers.set("core.on_event_ns", ns(event_time, events));
    layers.set("core.events", events as f64);
    layers.set("core.ecc_wb", ecc_wb as f64);
    layers.set("core.share", share(event_time));
    layers.set(
        "sim.stepped_frac",
        if cycles == 0 {
            0.0
        } else {
            stepped as f64 / cycles as f64
        },
    );
    layers.set("sim.step_ns", ns(untraced * 1e9, stepped));
    layers.set(
        "sim.other_share",
        (1.0 - share(op_time) - share(event_time)).max(0.0),
    );
    layers.add("trace.overhead_s", traced - untraced);
}

/// Times SECDED encode and decode over `words` seed-derived data words;
/// half of the decodes carry one flipped bit. Returns
/// `(encode_ns, decode_ns)` and counts any decode that fails to return
/// the original word as a failed operation.
fn ecc_rung(seed: u64, words: usize, checker: &mut crate::check::Checker) -> (f64, f64) {
    let code = Secded64::new();
    let data: Vec<u64> = (0..words as u64).map(|i| mix(seed ^ mix(i))).collect();
    let t = Instant::now();
    let checks: Vec<u8> = data
        .iter()
        .map(|&d| code.encode(std::hint::black_box(d)))
        .collect();
    let encode_ns = t.elapsed().as_nanos() as f64 / words as f64;
    let received: Vec<u64> = data
        .iter()
        .enumerate()
        .map(|(i, &d)| if i % 2 == 1 { d ^ (1 << (i % 64)) } else { d })
        .collect();
    let t = Instant::now();
    let decoded: Vec<_> = received
        .iter()
        .zip(&checks)
        .map(|(&d, &c)| code.decode(std::hint::black_box(d), c))
        .collect();
    let decode_ns = t.elapsed().as_nanos() as f64 / words as f64;
    let wrong = decoded
        .iter()
        .zip(&data)
        .filter(|(dec, &d)| dec.data() != Some(d))
        .count();
    checker.record(wrong == 0, || {
        format!("SECDED rung: {wrong} words decoded wrong")
    });
    (encode_ns, decode_ns)
}

/// Replays the first `per_config` memory operations of each config's own
/// instruction stream through a fresh hierarchy's public `load`/`store`
/// path and returns nanoseconds per access.
fn mem_rung(cfgs: &[&ExperimentConfig], per_config: usize) -> f64 {
    let mut accesses = 0usize;
    let mut elapsed = 0.0;
    for cfg in cfgs {
        let mut stream = cfg.benchmark.stream(cfg.seed);
        let mut mem_ops = Vec::with_capacity(per_config);
        let mut scanned = 0usize;
        while mem_ops.len() < per_config && scanned < per_config * 64 {
            let op = stream.next_op();
            scanned += 1;
            if let Some(addr) = op.addr {
                mem_ops.push((op.class == OpClass::Store, addr));
            }
        }
        let mut hier = MemoryHierarchy::new(cfg.hierarchy.clone());
        let t = Instant::now();
        let mut now: Cycle = 0;
        for &(store, addr) in &mem_ops {
            let done = if store {
                hier.store(addr, now)
            } else {
                hier.load(addr, now)
            };
            std::hint::black_box(done);
            now += 1;
            hier.tick(now);
        }
        elapsed += secs(t);
        accesses += mem_ops.len();
    }
    if accesses == 0 {
        0.0
    } else {
        elapsed * 1e9 / accesses as f64
    }
}

/// Publishes the deterministic model counts of a set of runs: aggregate
/// IPC, committed instructions, mean L2 miss ratio, total write-backs.
pub fn model_counts(layers: &mut Layers, stats: &[RunStats]) {
    let cycles: u64 = stats.iter().map(|s| s.cycles).sum();
    let committed: u64 = stats.iter().map(|s| s.committed).sum();
    layers.set("cpu.committed", committed as f64);
    layers.set(
        "cpu.ipc",
        if cycles == 0 {
            0.0
        } else {
            committed as f64 / cycles as f64
        },
    );
    if !stats.is_empty() {
        let miss: f64 = stats.iter().map(|s| s.l2_miss_ratio).sum();
        layers.set("mem.l2_miss_ratio", miss / stats.len() as f64);
    }
    let wb: u64 = stats.iter().map(|s| s.l2.wb_total()).sum();
    layers.set("mem.wb_total", wb as f64);
}

/// The layer rungs every traced run ends with: replays `cfgs` traced and
/// untraced (the `workloads`, `core` and `sim` layers), times the `ecc`
/// and `mem` rungs, and sets the tracing overhead as a share of
/// `untraced_pass` plus the untraced replays. Returns the untraced
/// replays' statistics.
pub fn layer_rungs(
    ctx: &crate::Ctx,
    out: &mut crate::Outcome,
    cfgs: &[&ExperimentConfig],
    untraced_pass: f64,
) -> Vec<RunStats> {
    let timer_ns = timer_cost_ns();
    let (replays, _) = out.spans.time("rung.replay", |_| {
        cfgs.iter().map(|c| replay(c, timer_ns)).collect::<Vec<_>>()
    });
    fold_replays(&mut out.layers, &mut out.checker, &replays);
    let untraced: f64 = replays.iter().map(|(r, _)| r.untraced_s).sum();
    out.layers.set(
        "trace.overhead_frac",
        out.layers.get("trace.overhead_s") / (untraced_pass + untraced),
    );
    let ((encode_ns, decode_ns), _) = out.spans.time("rung.ecc", |_| {
        ecc_rung(ctx.seed, 1 << 18, &mut out.checker)
    });
    out.layers.set("ecc.secded_encode_ns", encode_ns);
    out.layers.set("ecc.secded_decode_ns", decode_ns);
    let (access_ns, _) = out.spans.time("rung.mem", |_| mem_rung(cfgs, 20_000));
    out.layers.set("mem.access_ns", access_ns);
    replays.into_iter().map(|(_, stats)| stats).collect()
}
