//! The warm experiment engine behind the daemon.
//!
//! One [`Engine`] owns what a cold `exp` process has to rebuild every
//! invocation: an in-memory memo of finished runs (sharded, keyed by the
//! content-addressed [`RunCache`] key), the optional on-disk cache, and
//! a worker pool kept hot across requests. Submissions resolve through
//! the same three tiers as the `Lab` — memo, disk, fresh simulation —
//! with two service-layer additions:
//!
//! * **Admission control.** The number of admitted-but-unfinished runs
//!   is bounded (`queue_depth`); past it, submissions shed with a typed
//!   busy outcome instead of queueing unboundedly. Draining engines shed
//!   everything that would need a worker.
//! * **Deduplication.** A submission whose key is already in flight
//!   subscribes to the existing execution instead of starting another —
//!   N clients asking for the same configuration cost one simulation.
//!
//! Both cache tiers answer on the submitting thread: a memo or disk hit
//! returns [`Submission::Ready`] and never waits for a worker, is not
//! admitted, and takes no queue depth. Only misses are admitted.
//!
//! The pool is work-conserving; there is no scheduler thread and no
//! coalescing delay. An idle worker takes the whole `pending` list,
//! groups it with [`aep_sim::plan_lane_jobs`] — the same planner the
//! `Lab` uses — runs the first job itself, and leaves the rest in a
//! `ready` queue for the next free worker. While every worker is busy,
//! submissions pile up in `pending`, so the next free worker plans them
//! together: under load, concurrent clients' directive-free
//! configurations still batch onto shared lanes, and when a worker is
//! idle nobody waits. The price is paid by bursts that reach an idle
//! pool: each idle worker starts the first miss it sees on its own,
//! before the burst's later, lane-compatible misses arrive, so only
//! the rest of the burst shares a trajectory. A finished run is
//! published to the memo and its waiters are woken before the worker
//! writes it back to disk; [`Engine::join`] returns only after every
//! write-back.
//!
//! Everything is observable: counters and per-stage latency histograms
//! publish under the `serve.*` scope via [`Engine::snapshot_json`].

use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use aep_obs::{Histogram, Registry, StatsSnapshot};
use aep_sim::runcache::RunCache;
use aep_sim::{plan_lane_jobs, ExperimentConfig, LaneJob, LaneSpec, RunStats, Runner, Scale};

use crate::protocol::Source;

/// Memo shard count: cache-hit lookups contend only within a shard, so
/// the hot path of a warm daemon stays parallel across client threads.
const MEMO_SHARDS: usize = 16;

/// Engine sizing and policy.
#[derive(Debug)]
pub struct EngineConfig {
    /// Default scale for submissions that name none.
    pub scale: Scale,
    /// Worker threads executing fresh simulations.
    pub jobs: usize,
    /// Maximum admitted-but-unfinished runs before shedding.
    pub queue_depth: usize,
    /// Optional persistent result cache (shared with `exp`/`Lab` runs).
    pub disk: Option<RunCache>,
    /// Progress lines on stderr.
    pub verbose: bool,
}

impl EngineConfig {
    /// Defaults: machine-sized worker pool, queue depth 256, no disk.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        EngineConfig {
            scale,
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2),
            queue_depth: 256,
            disk: None,
            verbose: false,
        }
    }
}

/// What happened to a submission at admission time.
pub enum Submission {
    /// Resolved instantly from a cache tier.
    Ready {
        /// The run-cache key it resolved to.
        key: String,
        /// The cached result.
        stats: Arc<RunStats>,
        /// The tier that held it: [`Source::Memo`] or [`Source::Disk`].
        source: Source,
    },
    /// Admitted (or deduplicated onto an in-flight run); wait on the
    /// ticket for the result.
    Pending {
        /// The run-cache key it resolved to.
        key: String,
        /// Completion handle.
        ticket: Ticket,
    },
    /// Shed: the queue is at its depth limit. Back off and retry.
    Busy,
    /// Shed: the engine is draining and accepts no new work.
    Draining,
}

/// A completed run as delivered to waiters.
type Fulfilled = (Arc<RunStats>, Source, u64);

struct ResultCell {
    slot: Mutex<Option<Result<Fulfilled, String>>>,
    ready: Condvar,
}

/// Completion handle for an admitted submission.
pub struct Ticket {
    cell: Arc<ResultCell>,
}

impl Ticket {
    /// Blocks until the run completes, returning the stats, the tier
    /// that produced them, and the microseconds from admission to
    /// completion.
    ///
    /// # Errors
    ///
    /// Reports a simulation worker panic (the run is not retried).
    pub fn wait(&self) -> Result<Fulfilled, String> {
        let mut slot = self.cell.slot.lock().expect("result cell poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.cell.ready.wait(slot).expect("result cell poisoned");
        }
    }
}

struct PendingRun {
    key: String,
    cfg: ExperimentConfig,
    admitted: Instant,
}

struct Inflight {
    waiters: Vec<Arc<ResultCell>>,
}

struct SchedState {
    /// Admitted runs no worker has planned yet.
    pending: Vec<PendingRun>,
    /// Planned jobs waiting for a free worker.
    ready: VecDeque<Job>,
    inflight: HashMap<String, Inflight>,
    /// Admitted-but-unfinished runs (pending, planned or executing).
    depth: usize,
    draining: bool,
}

/// Monotonic service counters, all lock-free.
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    admitted: AtomicU64,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    dedup_joins: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_client_cap: AtomicU64,
    shed_draining: AtomicU64,
    evaluated: AtomicU64,
    lane_batches: AtomicU64,
    lane_batched_runs: AtomicU64,
    solo_runs: AtomicU64,
    queue_peak: AtomicU64,
}

struct Shared {
    scale: Scale,
    jobs: usize,
    queue_depth: usize,
    disk: Option<RunCache>,
    verbose: bool,
    memo: Vec<Mutex<HashMap<String, Arc<RunStats>>>>,
    sched: Mutex<SchedState>,
    work_ready: Condvar,
    counters: Counters,
    wait_us: Mutex<Histogram>,
    exec_us: Mutex<Histogram>,
    total_us: Mutex<Histogram>,
    persist_us: Mutex<Histogram>,
}

/// A planned job: one solo run, or a lane batch whose runs share one
/// trajectory (`lanes` holds the batch's base config and lane specs).
struct Job {
    runs: Vec<PendingRun>,
    lanes: Option<(Box<ExperimentConfig>, Vec<LaneSpec>)>,
}

/// The persistent engine: memo + disk cache + worker pool.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Engine {
    /// Starts the engine's `jobs` workers.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        let jobs = cfg.jobs.max(1);
        let shared = Arc::new(Shared {
            scale: cfg.scale,
            jobs,
            queue_depth: cfg.queue_depth.max(1),
            disk: cfg.disk,
            verbose: cfg.verbose,
            memo: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            sched: Mutex::new(SchedState {
                pending: Vec::new(),
                ready: VecDeque::new(),
                inflight: HashMap::new(),
                depth: 0,
                draining: false,
            }),
            work_ready: Condvar::new(),
            counters: Counters::default(),
            wait_us: Mutex::new(Histogram::new()),
            exec_us: Mutex::new(Histogram::new()),
            total_us: Mutex::new(Histogram::new()),
            persist_us: Mutex::new(Histogram::new()),
        });
        let workers = (0..jobs)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        Engine {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The engine's default scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.shared.scale
    }

    /// Submits one configuration, resolving it against the memo and
    /// disk tiers or admitting it (with dedup) for a worker.
    #[must_use]
    pub fn submit(&self, scale: Scale, cfg: ExperimentConfig) -> Submission {
        let shared = &*self.shared;
        let key = RunCache::key(scale.name(), &cfg);
        if let Some(stats) = shared.memo_get(&key) {
            shared.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Submission::Ready {
                key,
                stats,
                source: Source::Memo,
            };
        }
        if let Some(stats) = shared.disk_get(&key) {
            shared.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Submission::Ready {
                key,
                stats,
                source: Source::Disk,
            };
        }
        let mut s = shared.sched.lock().expect("scheduler state poisoned");
        if let Some(inflight) = s.inflight.get_mut(&key) {
            shared.counters.dedup_joins.fetch_add(1, Ordering::Relaxed);
            let cell = new_cell();
            inflight.waiters.push(Arc::clone(&cell));
            return Submission::Pending {
                key,
                ticket: Ticket { cell },
            };
        }
        // A completion may have landed between the memo probe and the
        // lock: completions publish to the memo *before* clearing the
        // in-flight entry, so re-checking here under the lock is enough.
        if let Some(stats) = shared.memo_get(&key) {
            shared.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Submission::Ready {
                key,
                stats,
                source: Source::Memo,
            };
        }
        if s.draining {
            shared
                .counters
                .shed_draining
                .fetch_add(1, Ordering::Relaxed);
            return Submission::Draining;
        }
        if s.depth >= shared.queue_depth {
            shared
                .counters
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Submission::Busy;
        }
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        s.depth += 1;
        let depth = s.depth as u64;
        shared
            .counters
            .queue_peak
            .fetch_max(depth, Ordering::Relaxed);
        let cell = new_cell();
        s.inflight.insert(
            key.clone(),
            Inflight {
                waiters: vec![Arc::clone(&cell)],
            },
        );
        s.pending.push(PendingRun {
            key: key.clone(),
            cfg,
            admitted: Instant::now(),
        });
        shared.work_ready.notify_one();
        Submission::Pending {
            key,
            ticket: Ticket { cell },
        }
    }

    /// Convenience for in-process callers: submit and block until done.
    ///
    /// # Errors
    ///
    /// Propagates shed outcomes and worker failures as messages.
    pub fn submit_and_wait(
        &self,
        scale: Scale,
        cfg: ExperimentConfig,
    ) -> Result<(String, Arc<RunStats>, Source), String> {
        match self.submit(scale, cfg) {
            Submission::Ready { key, stats, source } => Ok((key, stats, source)),
            Submission::Pending { key, ticket } => {
                let (stats, source, _) = ticket.wait()?;
                Ok((key, stats, source))
            }
            Submission::Busy => Err("busy: queue full".into()),
            Submission::Draining => Err("draining".into()),
        }
    }

    /// Whether the engine is draining (set once, never cleared).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared
            .sched
            .lock()
            .expect("scheduler state poisoned")
            .draining
    }

    /// Begins the graceful drain: every already-admitted run completes
    /// and fulfills its waiters; new submissions that miss both cache
    /// tiers shed with [`Submission::Draining`]. Idempotent.
    pub fn begin_drain(&self) {
        let mut s = self.shared.sched.lock().expect("scheduler state poisoned");
        s.draining = true;
        self.shared.work_ready.notify_all();
    }

    /// Drains and joins every worker: returns once every admitted run
    /// has been delivered and written back to disk. Idempotent.
    pub fn join(&self) {
        self.begin_drain();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in workers {
            let _ = handle.join();
        }
    }

    /// Counts one protocol request (daemon bookkeeping).
    pub fn note_request(&self) {
        self.shared
            .counters
            .requests
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one protocol error response (daemon bookkeeping).
    pub fn note_error(&self) {
        self.shared.counters.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one accepted connection (daemon bookkeeping).
    pub fn note_connection(&self) {
        self.shared
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one per-client in-flight-cap shed (daemon bookkeeping —
    /// the cap is enforced at the connection layer, before admission).
    pub fn note_client_cap_shed(&self) {
        self.shared
            .counters
            .shed_client_cap
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshots the `serve.*` observability scope as the standard
    /// [`StatsSnapshot`] JSON text.
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let shared = &*self.shared;
        let c = &shared.counters;
        let depth = shared.sched.lock().expect("scheduler state poisoned").depth;
        let mut reg = Registry::new();
        reg.scoped("serve", |r| {
            let count = |v: &AtomicU64| v.load(Ordering::Relaxed);
            r.counter("requests", count(&c.requests));
            r.counter("errors", count(&c.errors));
            r.counter("connections", count(&c.connections));
            r.counter("admitted", count(&c.admitted));
            r.counter("memo_hits", count(&c.memo_hits));
            r.counter("disk_hits", count(&c.disk_hits));
            r.counter("dedup_joins", count(&c.dedup_joins));
            r.counter("shed_queue_full", count(&c.shed_queue_full));
            r.counter("shed_client_cap", count(&c.shed_client_cap));
            r.counter("shed_draining", count(&c.shed_draining));
            r.counter("evaluated", count(&c.evaluated));
            r.counter("lane_batches", count(&c.lane_batches));
            r.counter("lane_batched_runs", count(&c.lane_batched_runs));
            r.counter("solo_runs", count(&c.solo_runs));
            r.counter("queue_depth", depth as u64);
            r.counter("queue_limit", shared.queue_depth as u64);
            r.counter("queue_peak", count(&c.queue_peak));
            for (name, hist) in [
                ("wait_us", &shared.wait_us),
                ("exec_us", &shared.exec_us),
                ("total_us", &shared.total_us),
                ("persist_us", &shared.persist_us),
            ] {
                r.histogram(name, &hist.lock().expect("histogram poisoned"));
            }
        });
        let jobs = shared.jobs.to_string();
        StatsSnapshot::from_registry(
            reg,
            &[
                ("role", "serve_daemon"),
                ("scale", shared.scale.name()),
                ("jobs", &jobs),
            ],
        )
        .to_json()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("scale", &self.shared.scale)
            .field("jobs", &self.shared.jobs)
            .field("queue_depth", &self.shared.queue_depth)
            .finish_non_exhaustive()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // An engine dropped without `join` (tests, early daemon exit)
        // still drains so worker threads never outlive the process state
        // they borrow.
        self.join();
    }
}

fn new_cell() -> Arc<ResultCell> {
    Arc::new(ResultCell {
        slot: Mutex::new(None),
        ready: Condvar::new(),
    })
}

impl Shared {
    fn memo_shard(&self, key: &str) -> &Mutex<HashMap<String, Arc<RunStats>>> {
        let hash = aep_sim::runcache::fnv1a(key.as_bytes());
        &self.memo[(hash as usize) % MEMO_SHARDS]
    }

    fn memo_get(&self, key: &str) -> Option<Arc<RunStats>> {
        self.memo_shard(key)
            .lock()
            .expect("memo shard poisoned")
            .get(key)
            .cloned()
    }

    fn memo_insert(&self, key: &str, stats: &Arc<RunStats>) {
        self.memo_shard(key)
            .lock()
            .expect("memo shard poisoned")
            .insert(key.to_string(), Arc::clone(stats));
    }

    /// Disk tier: a recalled entry is promoted into the memo. An
    /// unreadable entry is reported and treated as a miss, so the run is
    /// simulated again and its write-back replaces the entry.
    fn disk_get(&self, key: &str) -> Option<Arc<RunStats>> {
        match self.disk.as_ref()?.load_checked(key) {
            Ok(Some(stats)) => {
                let stats = Arc::new(stats);
                self.memo_insert(key, &stats);
                Some(stats)
            }
            Ok(None) => None,
            Err(e) => {
                eprintln!("[serve] warning: cannot read cache entry {key}: {e} (re-simulating)");
                None
            }
        }
    }

    /// Publishes a fresh run: memo insert, then waiter fulfillment.
    /// Memo-before-inflight-clear is load-bearing: `submit` re-checks
    /// the memo under the scheduler lock, so a key is always findable
    /// in at least one of the two.
    fn publish(&self, run: &PendingRun, stats: &Arc<RunStats>, started: Instant, done: Instant) {
        let total_us = instant_us(run.admitted, done);
        record_us(&self.wait_us, instant_us(run.admitted, started));
        record_us(&self.exec_us, instant_us(started, done));
        record_us(&self.total_us, total_us);
        self.memo_insert(&run.key, stats);
        let waiters = self.finish(&run.key);
        for cell in waiters {
            let mut slot = cell.slot.lock().expect("result cell poisoned");
            *slot = Some(Ok((Arc::clone(stats), Source::Fresh, total_us)));
            cell.ready.notify_all();
        }
    }

    /// Writes a published run back to the disk tier (after its waiters
    /// already have the reply).
    fn persist(&self, key: &str, stats: &RunStats) {
        let Some(disk) = &self.disk else {
            return;
        };
        let started = Instant::now();
        if let Err(e) = disk.store(key, stats) {
            eprintln!("[serve] warning: cannot write cache entry {key}: {e}");
        }
        record_us(&self.persist_us, instant_us(started, Instant::now()));
    }

    /// Fulfills every waiter of `key` with a failure (worker panic).
    fn fail(&self, key: &str, message: &str) {
        for cell in self.finish(key) {
            let mut slot = cell.slot.lock().expect("result cell poisoned");
            *slot = Some(Err(message.to_string()));
            cell.ready.notify_all();
        }
    }

    /// Retires `key` from the queue, returning its waiters.
    fn finish(&self, key: &str) -> Vec<Arc<ResultCell>> {
        let mut s = self.sched.lock().expect("scheduler state poisoned");
        s.depth -= 1;
        s.inflight
            .remove(key)
            .map(|inflight| inflight.waiters)
            .unwrap_or_default()
    }

    /// Blocks until there is a job for this worker, planning the
    /// pending runs when no planned job is left. `None` once the engine
    /// is draining and idle.
    fn next_job(&self) -> Option<Job> {
        let mut s = self.sched.lock().expect("scheduler state poisoned");
        loop {
            if let Some(job) = s.ready.pop_front() {
                if !s.ready.is_empty() {
                    self.work_ready.notify_one();
                }
                return Some(job);
            }
            if !s.pending.is_empty() {
                // Plan outside the lock (the planner is quadratic in the
                // pending runs), run the first job, hand the rest to the
                // next idle worker.
                let runs = std::mem::take(&mut s.pending);
                drop(s);
                let mut jobs = plan(runs).into_iter();
                let first = jobs.next().expect("pending runs plan to at least one job");
                let mut s = self.sched.lock().expect("scheduler state poisoned");
                s.ready.extend(jobs);
                if !s.ready.is_empty() {
                    self.work_ready.notify_one();
                }
                return Some(first);
            }
            if s.draining {
                return None;
            }
            s = self.work_ready.wait(s).expect("scheduler state poisoned");
        }
    }
}

fn instant_us(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

fn record_us(hist: &Mutex<Histogram>, value: u64) {
    hist.lock().expect("histogram poisoned").record(value);
}

/// Groups admitted runs into jobs: shareable-trajectory runs become lane
/// batches — concurrent clients' compatible configs ride one
/// cpu+hierarchy trajectory exactly like a figure plan's.
fn plan(runs: Vec<PendingRun>) -> Vec<Job> {
    let cfgs: Vec<&ExperimentConfig> = runs.iter().map(|run| &run.cfg).collect();
    let jobs = plan_lane_jobs(&cfgs);
    let mut slots: Vec<Option<PendingRun>> = runs.into_iter().map(Some).collect();
    let mut take = |i: usize| slots[i].take().expect("each run is planned once");
    jobs.into_iter()
        .map(|job| match job {
            LaneJob::Solo(i) => Job {
                runs: vec![take(i)],
                lanes: None,
            },
            LaneJob::Batch {
                cfg,
                specs,
                indices,
            } => Job {
                runs: indices.into_iter().map(&mut take).collect(),
                lanes: Some((cfg, specs)),
            },
        })
        .collect()
}

/// One worker: take the next job (planning it if needed), simulate,
/// reply, then write back. A panicking simulation fails its waiters
/// instead of hanging them (and the worker survives to take the next
/// job).
fn worker_loop(shared: &Shared) {
    let counters = &shared.counters;
    while let Some(Job { runs, lanes }) = shared.next_job() {
        let started = Instant::now();
        let outcome = match &lanes {
            None => {
                if shared.verbose {
                    eprintln!("[serve] running {}", runs[0].key);
                }
                counters.solo_runs.fetch_add(1, Ordering::Relaxed);
                let cfg = runs[0].cfg.clone();
                std::panic::catch_unwind(AssertUnwindSafe(|| vec![Runner::new(cfg).run()]))
            }
            Some((cfg, specs)) => {
                if shared.verbose {
                    eprintln!(
                        "[serve] lane batch: {} lanes / {}",
                        specs.len(),
                        cfg.benchmark.name()
                    );
                }
                counters.lane_batches.fetch_add(1, Ordering::Relaxed);
                counters
                    .lane_batched_runs
                    .fetch_add(runs.len() as u64, Ordering::Relaxed);
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    aep_sim::run_lanes(cfg, specs)
                        .into_iter()
                        .map(|lane| lane.stats)
                        .collect()
                }))
            }
        };
        let Ok(stats) = outcome else {
            let message = match lanes {
                None => "simulation worker panicked",
                Some(_) => "lane batch worker panicked",
            };
            for run in &runs {
                shared.fail(&run.key, message);
            }
            continue;
        };
        let done = Instant::now();
        counters
            .evaluated
            .fetch_add(runs.len() as u64, Ordering::Relaxed);
        let stats: Vec<Arc<RunStats>> = stats.into_iter().map(Arc::new).collect();
        for (run, stats) in runs.iter().zip(&stats) {
            shared.publish(run, stats, started, done);
        }
        for (run, stats) in runs.iter().zip(&stats) {
            shared.persist(&run.key, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::SchemeKind;
    use aep_sim::runcache::render_stats;
    use aep_workloads::Benchmark;

    fn tiny(bench: Benchmark, scheme: SchemeKind) -> ExperimentConfig {
        let mut cfg = Scale::Smoke.config(bench, scheme);
        cfg.warmup_cycles = 4_000;
        cfg.measure_cycles = 6_000;
        cfg
    }

    /// A run long enough to keep a worker busy while a test submits
    /// more work behind it.
    fn blocker() -> ExperimentConfig {
        let mut cfg = tiny(Benchmark::Mcf, SchemeKind::Uniform);
        cfg.measure_cycles = 300_000;
        cfg
    }

    /// An empty per-test disk cache directory.
    fn disk_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aep-serve-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create cache dir");
        dir
    }

    fn with_disk(jobs: usize, dir: &std::path::Path) -> Engine {
        Engine::new(EngineConfig {
            jobs,
            disk: Some(RunCache::new(dir)),
            ..EngineConfig::new(Scale::Smoke)
        })
    }

    fn counter(engine: &Engine, name: &str) -> u64 {
        StatsSnapshot::from_json(&engine.snapshot_json())
            .expect("snapshot parses")
            .counter_value(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    fn serial(cfg: &ExperimentConfig) -> String {
        render_stats(&Runner::new(cfg.clone()).run())
    }

    #[test]
    fn disk_tier_answers_at_submit_without_admission() {
        let dir = disk_dir("roundtrip");
        let cfg = tiny(Benchmark::Gzip, SchemeKind::ParityOnly);
        let first = with_disk(1, &dir);
        let (_, _, source) = first
            .submit_and_wait(Scale::Smoke, cfg.clone())
            .expect("fresh run");
        assert_eq!(source, Source::Fresh);
        first.join();

        let second = with_disk(1, &dir);
        match second.submit(Scale::Smoke, cfg.clone()) {
            Submission::Ready {
                stats,
                source: Source::Disk,
                ..
            } => assert_eq!(render_stats(&stats), serial(&cfg)),
            _ => panic!("a stored run must be answered from disk at submit"),
        }
        assert_eq!(counter(&second, "serve.disk_hits"), 1);
        assert_eq!(counter(&second, "serve.admitted"), 0);
        // The recalled entry was promoted into the memo.
        let (_, _, source) = second.submit_and_wait(Scale::Smoke, cfg).expect("memo");
        assert_eq!(source, Source::Memo);
        second.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn join_returns_after_every_write_back() {
        let dir = disk_dir("persist");
        let engine = with_disk(2, &dir);
        let cfgs = [
            tiny(Benchmark::Gzip, SchemeKind::Uniform),
            tiny(Benchmark::Mcf, SchemeKind::Uniform),
            tiny(Benchmark::Gap, SchemeKind::ParityOnly),
        ];
        let tickets: Vec<(String, Ticket)> = cfgs
            .iter()
            .map(|cfg| match engine.submit(Scale::Smoke, cfg.clone()) {
                Submission::Pending { key, ticket } => (key, ticket),
                _ => panic!("a fresh config must be admitted"),
            })
            .collect();
        engine.join();
        let cache = RunCache::new(&dir);
        for (key, ticket) in &tickets {
            let (stats, source, _) = ticket.wait().expect("run completes");
            assert_eq!(source, Source::Fresh);
            assert!(cache.root().join(format!("{key}.run")).is_file());
            let stored = cache.load(key).expect("entry parses");
            assert_eq!(render_stats(&stored), render_stats(&stats));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submissions_made_while_every_worker_is_busy_share_a_lane_batch() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        let blocker = engine.submit(Scale::Smoke, blocker());
        // Wait until the only worker is running the blocker.
        while counter(&engine, "serve.solo_runs") == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let mut scrubbed = tiny(Benchmark::Gzip, SchemeKind::Uniform);
        scrubbed.scrub_period = Some(2_048);
        let cfgs = [
            tiny(Benchmark::Gzip, SchemeKind::Uniform),
            tiny(Benchmark::Gzip, SchemeKind::ParityOnly),
            scrubbed,
        ];
        let tickets: Vec<Ticket> = cfgs
            .iter()
            .map(|cfg| match engine.submit(Scale::Smoke, cfg.clone()) {
                Submission::Pending { ticket, .. } => ticket,
                _ => panic!("a fresh config must be admitted"),
            })
            .collect();
        for (cfg, ticket) in cfgs.iter().zip(&tickets) {
            let (stats, _, _) = ticket.wait().expect("run completes");
            assert_eq!(render_stats(&stats), serial(cfg));
        }
        let Submission::Pending { ticket, .. } = blocker else {
            panic!("the blocker must be admitted");
        };
        ticket.wait().expect("blocker completes");
        assert!(counter(&engine, "serve.lane_batches") >= 1);
        assert_eq!(counter(&engine, "serve.lane_batched_runs"), 3);
        engine.join();
    }

    #[test]
    fn memo_tier_serves_repeat_submissions() {
        let engine = Engine::new(EngineConfig {
            jobs: 2,
            ..EngineConfig::new(Scale::Smoke)
        });
        let cfg = tiny(Benchmark::Gzip, SchemeKind::Uniform);
        let (key, first, source) = engine
            .submit_and_wait(Scale::Smoke, cfg.clone())
            .expect("fresh run");
        assert_eq!(source, Source::Fresh);
        let (key2, second, source2) = engine.submit_and_wait(Scale::Smoke, cfg).expect("memo hit");
        assert_eq!(source2, Source::Memo);
        assert_eq!(key, key2);
        assert_eq!(first, second);
        engine.join();
    }

    #[test]
    fn draining_engine_sheds_new_work() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        engine.begin_drain();
        match engine.submit(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform)) {
            Submission::Draining => {}
            _ => panic!("draining engine must shed"),
        }
        engine.join();
    }

    #[test]
    fn queue_depth_limit_sheds() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            queue_depth: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        let first = engine.submit(Scale::Smoke, blocker());
        assert!(matches!(first, Submission::Pending { .. }));
        // Distinct config while depth is saturated: shed, not queued.
        match engine.submit(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform)) {
            Submission::Busy => {}
            _ => panic!("saturated queue must shed distinct configs"),
        }
        // The same config still dedups onto the in-flight run.
        match engine.submit(Scale::Smoke, blocker()) {
            Submission::Pending { .. } => {}
            _ => panic!("dedup join must not be shed"),
        }
        engine.join();
    }

    #[test]
    fn snapshot_publishes_serve_scope() {
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::new(Scale::Smoke)
        });
        let _ = engine
            .submit_and_wait(Scale::Smoke, tiny(Benchmark::Gzip, SchemeKind::Uniform))
            .expect("run");
        let text = engine.snapshot_json();
        let snapshot = StatsSnapshot::from_json(&text).expect("snapshot parses");
        assert_eq!(
            snapshot.stats.get("serve.admitted"),
            Some(&aep_obs::StatValue::Counter(1))
        );
        assert_eq!(
            snapshot.stats.get("serve.evaluated"),
            Some(&aep_obs::StatValue::Counter(1))
        );
        assert_eq!(
            snapshot.meta.get("scale").map(String::as_str),
            Some("smoke")
        );
        engine.join();
    }
}
