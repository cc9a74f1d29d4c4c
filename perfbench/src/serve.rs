//! `serve`: an in-process `exp serve` daemon (`aep_serve::spawn`) with a
//! disk cache under the checkout's scratch directory, taking open-loop
//! traffic from this process over at most `jobs` connections.
//!
//! Traffic mixes three tiers, chosen per request from the seed: memo hits
//! over a hot pool (70%), disk hits on configurations an earlier daemon
//! instance wrote during set-up (10%), and fresh misses on seeds that
//! never repeat (20%), all with small window overrides. Every phase
//! starts a new daemon instance on the same disk cache, so the disk tier
//! is cold in memory and the memo holds only the hot pool.
//!
//! * The **reference phase** sends at a fixed rate; each request is timed
//!   from when it was due, giving the hit and miss latencies of the
//!   report line.
//! * A **pass** (and an item) is one burst of [`BURST`] requests all due
//!   at once (closed loop over the connections); `wall_s` is its median.
//! * The **ladder** (traced runs, after the reference phase) doubles the
//!   rate until the mixed p99 exceeds [`LATENCY_LIMIT_MS`] or the
//!   generator falls behind; the last rate that held is
//!   `serve_max_rps`. It runs beside the layer rungs rather than in the
//!   untraced run because its result moves in whole rungs.
//!
//! Off the clock, every reply is compared bit for bit with an in-process
//! `Runner::run` of its configuration, and every reply's tier with the
//! tier its request was built for.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use aep_core::SchemeKind;
use aep_faultsim::fan_out;
use aep_obs::StatsSnapshot;
use aep_serve::{
    spawn, Client, ClientError, DaemonConfig, Endpoint, EngineConfig, Source, SubmitRequest,
};
use aep_sim::{ExperimentConfig, RunCache, RunStats, Runner, Scale};
use aep_workloads::Benchmark;

use crate::check::{stats_line, Checker};
use crate::trace;
use crate::util::{median, mix, quantile, secs};
use crate::{jobs, Ctx, Outcome};

/// Warm-up override on every request (cycles).
pub const WARMUP: u64 = 4_000;
/// Measured-window override on every request (cycles).
pub const MEASURE: u64 = 8_000;
/// Hot pool size (memo tier).
pub const HOT: usize = 16;
/// Disk pool size (disk tier).
pub const DISK: usize = 96;
/// Reference-phase rate (requests per second).
pub const REF_RPS: f64 = 150.0;
/// Mixed p99 limit a ladder rung must meet.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Requests per burst.
pub const BURST: usize = 600;
/// The generator spins (rather than sleeps) this close to a due time.
const SPIN: Duration = Duration::from_micros(200);
/// A generator running this late means the backlog is growing.
const MAX_LAG_S: f64 = 0.25;

const SCHEMES: [SchemeKind; 3] = [
    SchemeKind::Uniform,
    SchemeKind::ParityOnly,
    SchemeKind::Proposed {
        cleaning_interval: 1 << 20,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memo,
    Disk,
    Fresh,
}

/// The `index`-th request of a pool: benchmarks and schemes cycle so
/// every pool and every burst carries the same mix; the seed is drawn
/// from `tag`.
fn request(tag: u64, index: u64) -> SubmitRequest {
    let benches = Benchmark::all();
    let n = benches.len() as u64;
    let mut req = SubmitRequest::new(
        benches[(index % n) as usize],
        SCHEMES[((index / n) % SCHEMES.len() as u64) as usize],
    );
    req.seed = Some(mix(tag ^ mix(index)) >> 16);
    req.warmup = Some(WARMUP);
    req.measure = Some(MEASURE);
    req
}

/// The request pools derived from the workload seed.
struct Pools {
    hot: Vec<SubmitRequest>,
    disk: Vec<SubmitRequest>,
    seed: u64,
}

impl Pools {
    fn new(seed: u64) -> Pools {
        Pools {
            hot: (0..HOT as u64)
                .map(|i| request(mix(seed ^ 0x4807), i))
                .collect(),
            disk: (0..DISK as u64)
                .map(|i| request(mix(seed ^ 0xD15C), i))
                .collect(),
            seed,
        }
    }

    fn fresh(&self, n: u64) -> SubmitRequest {
        request(mix(self.seed ^ 0xF4E5), n)
    }
}

/// One scheduled request.
struct Planned {
    due_s: f64,
    tier: Tier,
    req: SubmitRequest,
}

/// Tiers of each block of ten requests, before the per-block shuffle:
/// 70% memo, 10% disk, 20% fresh.
const BLOCK: [Tier; 10] = [
    Tier::Memo,
    Tier::Memo,
    Tier::Memo,
    Tier::Memo,
    Tier::Memo,
    Tier::Memo,
    Tier::Memo,
    Tier::Disk,
    Tier::Fresh,
    Tier::Fresh,
];

/// Builds a schedule of `count` requests at `rps` (all due at once when
/// `rps` is infinite). Each block of ten holds exactly the [`BLOCK`] mix
/// in a seed-shuffled order; a daemon instance serves each disk-pool
/// entry from disk once, so past the pool's end disk slots go fresh.
/// `fresh` is the run-wide fresh counter, so no fresh seed ever repeats.
fn schedule(pools: &Pools, rps: f64, count: usize, stream: u64, fresh: &mut u64) -> Vec<Planned> {
    let mut disk_cursor = 0usize;
    let mut order = BLOCK;
    (0..count)
        .map(|k| {
            if k % BLOCK.len() == 0 {
                order = BLOCK;
                let mut h = mix(pools.seed ^ mix(stream ^ mix(k as u64)));
                for i in (1..order.len()).rev() {
                    order.swap(i, (h % (i as u64 + 1)) as usize);
                    h = mix(h);
                }
            }
            let (tier, req) = match order[k % BLOCK.len()] {
                Tier::Memo => (Tier::Memo, pools.hot[(k * 7 + k / HOT) % HOT].clone()),
                Tier::Disk if disk_cursor < DISK => {
                    disk_cursor += 1;
                    (Tier::Disk, pools.disk[disk_cursor - 1].clone())
                }
                _ => {
                    *fresh += 1;
                    (Tier::Fresh, pools.fresh(*fresh))
                }
            };
            let due_s = if rps.is_finite() { k as f64 / rps } else { 0.0 };
            Planned { due_s, tier, req }
        })
        .collect()
}

/// What one request came back with.
struct Record {
    tier: Tier,
    req: SubmitRequest,
    /// Seconds from due to reply.
    latency_s: f64,
    /// Seconds from send to reply.
    service_s: f64,
    /// Seconds the send ran behind its due time.
    lag_s: f64,
    /// The reply's tier and the digest of its statistics.
    reply: Result<(Source, u64), String>,
}

/// One daemon instance on the shared disk cache, with its memo warmed
/// with the hot pool.
struct Instance {
    handle: aep_serve::ServeHandle,
    endpoint: Endpoint,
}

impl Instance {
    fn start(disk: &Path, pools: &Pools, checker: &mut Checker) -> Instance {
        let mut engine = EngineConfig::new(Scale::Smoke);
        engine.jobs = jobs();
        engine.disk = Some(RunCache::new(disk));
        let handle = spawn(DaemonConfig::new(engine)).expect("daemon binds loopback");
        let endpoint = Endpoint::Tcp(handle.tcp_addr.expect("tcp endpoint").to_string());
        let mut client = endpoint.connect().expect("connect to daemon");
        for req in &pools.hot {
            let got = client.submit(req);
            checker.record(matches!(&got, Ok(r) if r.source != Source::Fresh), || {
                format!(
                    "hot-pool warm-up was not served from a cache tier: {:?}",
                    got.err()
                )
            });
        }
        Instance { handle, endpoint }
    }

    fn stats(&self) -> Option<StatsSnapshot> {
        let mut client = self.endpoint.connect().ok()?;
        StatsSnapshot::from_json(&client.stats_json().ok()?).ok()
    }

    fn stop(self) {
        if let Ok(mut client) = self.endpoint.connect() {
            let _ = client.shutdown();
        }
        self.handle.request_shutdown();
        self.handle.join();
    }
}

/// Sends `plan` open-loop over `jobs()` connections. Returns the records
/// (in completion order), whether the generator fell more than
/// [`MAX_LAG_S`] behind (sending then stops), and the
/// wall seconds of the whole send.
fn send_traffic(
    endpoint: &Endpoint,
    plan: Vec<Planned>,
    stop_when_late: bool,
) -> (Vec<Record>, bool, f64) {
    let next = AtomicUsize::new(0);
    let late = AtomicBool::new(false);
    let records = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..jobs() {
            s.spawn(|| {
                let mut client: Client = endpoint.connect().expect("connect to daemon");
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= plan.len() || late.load(Ordering::Relaxed) {
                        break;
                    }
                    let p = &plan[k];
                    let due = start + Duration::from_secs_f64(p.due_s);
                    // Sleep to just short of the due time, then spin, so
                    // timer slack does not show up as latency.
                    let now = Instant::now();
                    if now + SPIN < due {
                        std::thread::sleep(due - now - SPIN);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    let sent = Instant::now();
                    let lag_s = sent.saturating_duration_since(due).as_secs_f64();
                    if stop_when_late && lag_s > MAX_LAG_S {
                        late.store(true, Ordering::Relaxed);
                        break;
                    }
                    let reply = client.submit(&p.req);
                    let done = Instant::now();
                    let reply = match reply {
                        Ok(r) => Ok((r.source, digest(&r.stats))),
                        Err(ClientError::Shed(code, msg)) => {
                            Err(format!("shed {}: {msg}", code.name()))
                        }
                        Err(e) => Err(e.to_string()),
                    };
                    records
                        .lock()
                        .expect("a sender thread panicked")
                        .push(Record {
                            tier: p.tier,
                            req: p.req.clone(),
                            latency_s: done.saturating_duration_since(due).as_secs_f64(),
                            service_s: done.duration_since(sent).as_secs_f64(),
                            lag_s,
                            reply,
                        });
                }
            });
        }
    });
    let wall = secs(start);
    let records = records.into_inner().expect("a sender thread panicked");
    (records, late.into_inner(), wall)
}

/// Checks each record's tier against the tier its request was built for.
fn check_tiers(checker: &mut Checker, records: &[Record]) {
    for r in records {
        let ok = matches!(
            (&r.reply, r.tier),
            (Ok((Source::Memo, _)), Tier::Memo)
                | (Ok((Source::Disk, _)), Tier::Disk)
                | (Ok((Source::Fresh, _)), Tier::Fresh)
        );
        checker.record(ok, || match &r.reply {
            Ok((src, _)) => format!(
                "{:?} request {} seed {:?} came back {}",
                r.tier,
                r.req.bench.name(),
                r.req.seed,
                src.name()
            ),
            Err(e) => format!("{:?} request failed: {e}", r.tier),
        });
    }
}

fn snapshot_counter(s: &Option<StatsSnapshot>, key: &str) -> u64 {
    s.as_ref().and_then(|s| s.counter_value(key)).unwrap_or(0)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        windows: format!(
            "warmup={WARMUP} measure={MEASURE} hot={HOT} disk={DISK} mix=70/10/20 ref_rps={REF_RPS} \
             burst={BURST} limit_ms={LATENCY_LIMIT_MS} jobs={}",
            jobs()
        ),
        ..Outcome::default()
    };
    let root = ctx.work.join(format!("serve-{}", std::process::id()));
    let pools = Pools::new(ctx.seed);

    // Set-up: a first daemon instance evaluates both pools fresh and
    // writes them to a new disk cache.
    // Only the population is timed: the daemon's drain waits on a 50 ms
    // poll, which would dominate the set-up time.
    let mut setup_checker = Checker::default();
    let mut setup_times = Vec::new();
    let mut disk = PathBuf::new();
    for round in 1..=5 {
        let t = Instant::now();
        disk = root.join(format!("cache-{round}"));
        let _ = std::fs::remove_dir_all(&disk);
        std::fs::create_dir_all(&disk).expect("create serve cache dir");
        let mut engine = EngineConfig::new(Scale::Smoke);
        engine.jobs = jobs();
        engine.disk = Some(RunCache::new(&disk));
        let handle = spawn(DaemonConfig::new(engine)).expect("daemon binds loopback");
        let endpoint = Endpoint::Tcp(handle.tcp_addr.expect("tcp endpoint").to_string());
        let plan: Vec<Planned> = pools
            .hot
            .iter()
            .chain(&pools.disk)
            .map(|req| Planned {
                due_s: 0.0,
                tier: Tier::Fresh,
                req: req.clone(),
            })
            .collect();
        let (records, _, _) = send_traffic(&endpoint, plan, false);
        setup_times.push(secs(t));
        check_tiers(&mut setup_checker, &records);
        Instance { handle, endpoint }.stop();
    }
    let setup_s = median(&setup_times);
    out.setup_s = setup_s;
    out.checker = setup_checker;

    let mut fresh = 0u64;
    let mut validator = Validator::new(&pools, ctx.traced);
    let mut snapshots = Vec::new();

    // Reference phase: fixed rate, items timed from due.
    let ref_secs = ctx.seconds * 0.5;
    let count = ((REF_RPS * ref_secs) as usize).max(60);
    let inst = Instance::start(&disk, &pools, &mut out.checker);
    let (records, _, _) = send_traffic(
        &inst.endpoint,
        schedule(&pools, REF_RPS, count, 1, &mut fresh),
        false,
    );
    snapshots.push(inst.stats());
    inst.stop();
    let lags: Vec<f64> = records.iter().map(|r| r.lag_s * 1e3).collect();
    let by_tier = |tier: Tier, f: &dyn Fn(&Record) -> f64| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.tier == tier && r.reply.is_ok())
            .map(f)
            .collect()
    };
    let hit_us = by_tier(Tier::Memo, &|r| r.latency_s * 1e6);
    let miss_ms = by_tier(Tier::Fresh, &|r| r.latency_s * 1e3);
    out.named("hit_p50_us", quantile(&hit_us, 0.5), "us");
    out.named("hit_p99_us", quantile(&hit_us, 0.99), "us");
    out.named("miss_p50_ms", quantile(&miss_ms, 0.5), "ms");
    out.named("miss_p90_ms", quantile(&miss_ms, 0.9), "ms");
    if ctx.traced {
        let l = &mut out.layers;
        l.set(
            "serve.memo_us",
            median(&by_tier(Tier::Memo, &|r| r.service_s * 1e6)),
        );
        l.set(
            "serve.disk_us",
            median(&by_tier(Tier::Disk, &|r| r.service_s * 1e6)),
        );
        l.set(
            "serve.fresh_ms",
            median(&by_tier(Tier::Fresh, &|r| r.service_s * 1e3)),
        );
        l.set("serve.gen_lag_ms", quantile(&lags, 0.99));
        let snap = &snapshots[0];
        let mean_ms = |h: &str| {
            let n = snapshot_counter(snap, &format!("serve.{h}.count"));
            let sum = snapshot_counter(snap, &format!("serve.{h}.sum"));
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / 1e3
            }
        };
        l.set("serve.queue_wait_ms", mean_ms("wait_us"));
        l.set("serve.exec_ms", mean_ms("exec_us"));
        l.set(
            "sim.lanes.batches",
            snapshot_counter(snap, "serve.lane_batches") as f64,
        );
        let evaluated = snapshot_counter(snap, "serve.evaluated");
        if evaluated > 0 {
            l.set(
                "sim.lanes.batched_frac",
                snapshot_counter(snap, "serve.lane_batched_runs") as f64 / evaluated as f64,
            );
        }
    }
    let replay_cfgs: Vec<ExperimentConfig> = records
        .iter()
        .filter(|r| r.tier == Tier::Fresh)
        .take(12)
        .map(|r| config(&r.req))
        .collect();
    // Off the clock, here and after every traffic run: every reply's tier
    // and value.
    validator.check(ctx, &mut out.checker, &records);
    drop(records);

    if ctx.traced {
        // Ladder: double the rate until a rung misses the limit.
        let ladder_end = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.5);
        let mut rate = REF_RPS * 2.0;
        let mut max_rps = REF_RPS;
        while Instant::now() < ladder_end {
            let count = ((rate * 0.5) as usize).max(100);
            let inst = Instance::start(&disk, &pools, &mut out.checker);
            let plan = schedule(&pools, rate, count, 2 + rate as u64, &mut fresh);
            let (records, late, _) = send_traffic(&inst.endpoint, plan, true);
            snapshots.push(inst.stats());
            inst.stop();
            let lat: Vec<f64> = records.iter().map(|r| r.latency_s * 1e3).collect();
            let held = !late && records.len() == count && quantile(&lat, 0.99) <= LATENCY_LIMIT_MS;
            validator.check(ctx, &mut out.checker, &records);
            if !held {
                break;
            }
            max_rps = rate;
            rate *= 2.0;
        }
        out.named("serve_max_rps", max_rps, "1/s");
        out.passes.push(ref_secs);
    } else {
        // Passes: bursts all due at once, one daemon instance each.
        let burst_end = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.5);
        let mut b = 0u64;
        while out.passes.len() < 3 || Instant::now() < burst_end {
            b += 1;
            let inst = Instance::start(&disk, &pools, &mut out.checker);
            let plan = schedule(&pools, f64::INFINITY, BURST, 1_000_000 + b, &mut fresh);
            let (records, _, wall) = send_traffic(&inst.endpoint, plan, false);
            snapshots.push(inst.stats());
            inst.stop();
            out.passes.push(wall);
            validator.check(ctx, &mut out.checker, &records);
        }
        // Items are the bursts: the reference phase's per-request
        // latencies (report line) swing with host load far more than a
        // burst's wall time does.
        out.items_ms = out.passes.iter().map(|p| p * 1e3).collect();
        let wall = median(&out.passes);
        out.named("wall_s", wall, "s");
        out.named("burst_rps", BURST as f64 / wall, "1/s");
    }
    let shed: u64 = snapshots
        .iter()
        .map(|s| {
            snapshot_counter(s, "serve.shed_queue_full")
                + snapshot_counter(s, "serve.shed_client_cap")
                + snapshot_counter(s, "serve.shed_draining")
        })
        .sum();
    let dedup: u64 = snapshots
        .iter()
        .map(|s| snapshot_counter(s, "serve.dedup_joins"))
        .sum();
    out.named("shed", shed as f64, "count");

    let _ = std::fs::remove_dir_all(&root);

    if ctx.traced {
        out.layers.set("serve.shed", shed as f64);
        out.layers.set("serve.dedup", dedup as f64);
        trace::model_counts(
            &mut out.layers,
            validator.stats.as_deref().unwrap_or_default(),
        );
        let refs: Vec<&ExperimentConfig> = replay_cfgs.iter().collect();
        trace::layer_rungs(ctx, &mut out, &refs, 0.0);
    }
    out
}

fn config(req: &SubmitRequest) -> ExperimentConfig {
    req.to_config(Scale::Smoke)
        .expect("benchmark requests are valid")
        .1
}

/// FNV-1a digest of a run's canonical statistics line; replies are kept
/// as digests so memory does not grow with the number of requests.
fn digest(stats: &RunStats) -> u64 {
    aep_sim::runcache::fnv1a(stats_line(stats).as_bytes())
}

/// Checks replies one traffic run at a time against in-process runs, so
/// memory stays bounded by one run's records: the hot and disk pools' digests
/// are kept, each fresh configuration is run once and dropped.
struct Validator {
    pool_keys: HashSet<String>,
    pool: HashMap<String, u64>,
    /// Replies checked so far (indexes `--corrupt-reply`).
    seen: usize,
    /// Traced runs keep the in-process statistics for the model counts.
    stats: Option<Vec<RunStats>>,
}

impl Validator {
    fn new(pools: &Pools, traced: bool) -> Validator {
        Validator {
            pool_keys: pools.hot.iter().chain(&pools.disk).map(key).collect(),
            pool: HashMap::new(),
            seen: 0,
            stats: traced.then(Vec::new),
        }
    }

    /// Compares each reply's digest with an in-process `Runner::run` of
    /// its configuration, and its tier with the tier it was built for.
    fn check(&mut self, ctx: &Ctx, checker: &mut Checker, records: &[Record]) {
        let mut keys: Vec<String> = Vec::new();
        let mut cfgs: Vec<ExperimentConfig> = Vec::new();
        for r in records {
            let k = key(&r.req);
            if !self.pool.contains_key(&k) && !keys.contains(&k) {
                keys.push(k);
                cfgs.push(config(&r.req));
            }
        }
        let direct = fan_out(cfgs.len(), jobs(), |i| Runner::new(cfgs[i].clone()).run());
        let mut want: HashMap<String, u64> = HashMap::new();
        for (k, stats) in keys.into_iter().zip(direct) {
            let d = digest(&stats);
            if self.pool_keys.contains(&k) {
                self.pool.insert(k, d);
            } else {
                want.insert(k, d);
            }
            if let Some(all) = &mut self.stats {
                all.push(stats);
            }
        }
        for r in records {
            let n = self.seen;
            self.seen += 1;
            let Ok((source, got)) = &r.reply else {
                check_tiers(checker, std::slice::from_ref(r));
                continue;
            };
            let got = if ctx.corrupt_reply == Some(n) {
                got ^ 1
            } else {
                *got
            };
            let k = key(&r.req);
            if self.pool.get(&k).or_else(|| want.get(&k)) == Some(&got) {
                check_tiers(checker, std::slice::from_ref(r));
            } else {
                checker.record(false, || {
                    format!(
                        "reply {n} ({k}, {}) differs from the in-process run",
                        source.name()
                    )
                });
            }
        }
    }
}

fn key(req: &SubmitRequest) -> String {
    RunCache::key(Scale::Smoke.name(), &config(req))
}
