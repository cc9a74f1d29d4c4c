//! `figures`: the paper's figure plan (`experiments::all_configs()`)
//! resolved fresh through `Lab::prefetch_configs` — the `exp all` path.
//!
//! One pass is one fresh `Lab` (no disk cache, `jobs` workers) resolving
//! the whole plan from empty caches; one item is one pass. Every pass
//! must reproduce the first pass's statistics exactly; the default seed's
//! statistics are compared with `expected/figures.txt`; a seed-chosen
//! sample is re-run serially off the clock.

use std::collections::HashSet;
use std::time::Instant;

use aep_bench::experiments::{all_configs, Lab};
use aep_faultsim::fan_out;
use aep_sim::{ExperimentConfig, LaneJob, RunCache, RunStats, Runner, Scale};

use crate::check::{stats_line, Expected};
use crate::trace;
use crate::util::{mix, secs};
use crate::{jobs, timed_passes, timed_setup, Ctx, Outcome};

/// Warm-up cycles per configuration (excluded from every statistic).
pub const WARMUP: u64 = 60_000;
/// Measured cycles per configuration.
pub const MEASURE: u64 = 100_000;
/// Configurations re-run serially off the clock per run.
const SERIAL_SAMPLE: usize = 4;

/// The distinct configurations of the figure plan for `seed`, in plan
/// order (first occurrence wins, as in the lab).
pub fn plan(seed: u64) -> Vec<ExperimentConfig> {
    let mut seen = HashSet::new();
    all_configs()
        .into_iter()
        .map(|(bench, scheme)| {
            let mut cfg = Scale::Smoke.config(bench, scheme);
            cfg.warmup_cycles = WARMUP;
            cfg.measure_cycles = MEASURE;
            cfg.seed = seed;
            cfg
        })
        .filter(|cfg| seen.insert(RunCache::key(Scale::Smoke.name(), cfg)))
        .collect()
}

fn resolve(cfgs: &[ExperimentConfig]) -> Vec<RunStats> {
    let mut lab = Lab::new(Scale::Smoke).jobs(jobs());
    lab.prefetch_configs(cfgs);
    cfgs.iter().map(|c| lab.stats_config(c)).collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        windows: format!(
            "warmup={WARMUP} measure={MEASURE} configs=all_configs jobs={}",
            jobs()
        ),
        ..Outcome::default()
    };
    // Set-up: build the plan, load the expected values, and warm the
    // process with one run of the first configuration.
    let ((cfgs, expected), setup_s) = timed_setup(5, || {
        let cfgs = plan(ctx.seed);
        let expected = Expected::load(&ctx.expected, "figures");
        std::hint::black_box(Runner::new(cfgs[0].clone()).run());
        (cfgs, expected)
    });
    out.setup_s = setup_s;

    let mut all: Vec<Vec<RunStats>> = Vec::new();
    let min_passes = if ctx.traced { 1 } else { 3 };
    let seconds = if ctx.traced { 0.0 } else { ctx.seconds };
    out.passes = timed_passes(seconds, min_passes, |_| all.push(resolve(&cfgs)));
    out.items_ms = out.passes.iter().map(|s| s * 1e3).collect();
    // Every pass must reproduce the first pass exactly.
    let checker = &mut out.checker;
    let lines: Vec<String> = all[0].iter().map(stats_line).collect();
    for (p, pass) in all.iter().enumerate().skip(1) {
        for (i, stats) in pass.iter().enumerate() {
            checker.record(stats_line(stats) == lines[i], || {
                format!("figures config {i} changed in pass {p}")
            });
        }
    }
    checker.attempt(cfgs.len() as u64);
    let results = all.swap_remove(0);
    drop(all);

    if ctx.regen {
        let records: Vec<(String, String)> = cfgs
            .iter()
            .zip(&lines)
            .map(|(c, l)| (RunCache::key(Scale::Smoke.name(), c), l.clone()))
            .collect();
        Expected::write(&ctx.expected, "figures", Some(ctx.seed), &records)
            .expect("write expected/figures.txt");
    } else if expected.applies_to(ctx.seed) {
        for (c, l) in cfgs.iter().zip(&lines) {
            expected.check(checker, &RunCache::key(Scale::Smoke.name(), c), l);
        }
    }
    // Off the clock: a seed-chosen sample re-run serially must match the
    // lab's (parallel, lane-planned) results bit for bit.
    for k in 0..SERIAL_SAMPLE {
        let i = (mix(ctx.seed ^ k as u64) % cfgs.len() as u64) as usize;
        let serial = stats_line(&Runner::new(cfgs[i].clone()).run());
        checker.record(serial == lines[i], || {
            format!("figures config {i}: lab result differs from a serial run")
        });
    }
    // Shape check: the proposed scheme holds at most one dirty line per
    // 4-way set.
    for s in &results {
        if matches!(s.scheme, aep_core::SchemeKind::Proposed { .. }) {
            checker.record(s.l2.avg_dirty_fraction <= 0.25 + 1e-9, || {
                format!("{} proposed: dirty fraction above 1/4", s.benchmark)
            });
        }
    }

    let cycles: u64 = cfgs
        .iter()
        .map(|c| c.warmup_cycles + c.measure_cycles)
        .sum();
    let wall = crate::util::median(&out.passes);
    out.named("wall_s", wall, "s");
    out.named("sim_mcycles_per_s", cycles as f64 / wall / 1e6, "Mcycles/s");
    out.named("configs", cfgs.len() as f64, "count");

    if ctx.traced {
        traced(ctx, &cfgs, &lines, &mut out);
        trace::model_counts(&mut out.layers, &results);
    }
    out
}

/// The traced pass: the lab's plan and execute tiers re-driven through
/// the same public functions (`plan_lane_jobs`, `run_lanes`,
/// `Runner::run`, `fan_out`) with spans around each, then the layer
/// rungs over each lane job's trajectory.
fn traced(ctx: &Ctx, cfgs: &[ExperimentConfig], lines: &[String], out: &mut Outcome) {
    let untraced_pass = out.passes[0];
    let refs: Vec<&ExperimentConfig> = cfgs.iter().collect();
    let pass_start = Instant::now();
    let (lane_jobs, plan_s) = out
        .spans
        .time("bench.lab.plan", |_| aep_sim::plan_lane_jobs(&refs));
    let exec_start = Instant::now();
    // Per job: (plan index, statistics) pairs and the job's start and end.
    type Timed = (Vec<(usize, RunStats)>, Instant, Instant);
    let timed: Vec<Timed> = fan_out(lane_jobs.len(), jobs(), |j| {
        let start = Instant::now();
        let res = match &lane_jobs[j] {
            LaneJob::Batch {
                cfg,
                specs,
                indices,
            } => indices
                .iter()
                .copied()
                .zip(aep_sim::run_lanes(cfg, specs).into_iter().map(|r| r.stats))
                .collect(),
            LaneJob::Solo(i) => vec![(*i, Runner::new(cfgs[*i].clone()).run())],
        };
        (res, start, Instant::now())
    });
    let exec_s = secs(exec_start);
    let traced_pass = secs(pass_start);
    let mut busy = 0.0;
    for (j, (res, start, end)) in timed.iter().enumerate() {
        let name = match &lane_jobs[j] {
            LaneJob::Batch { .. } => "sim.lanes.run_lanes",
            LaneJob::Solo(_) => "sim.runner.run",
        };
        out.spans.record(name, *start, *end);
        busy += end.duration_since(*start).as_secs_f64();
        for (i, stats) in res {
            out.checker.record(stats_line(stats) == lines[*i], || {
                format!("figures config {i}: traced execute tier differs from the lab")
            });
        }
    }
    let batched: usize = lane_jobs
        .iter()
        .map(|j| match j {
            LaneJob::Batch { indices, .. } => indices.len(),
            LaneJob::Solo(_) => 0,
        })
        .sum();
    let batches = lane_jobs
        .iter()
        .filter(|j| matches!(j, LaneJob::Batch { .. }))
        .count();
    let l = &mut out.layers;
    l.set("bench.lab.plan_s", plan_s);
    l.set("bench.lab.busy_frac", busy / (jobs() as f64 * exec_s));
    l.set("sim.lanes.batched_frac", batched as f64 / cfgs.len() as f64);
    l.set("sim.lanes.batches", batches as f64);
    l.set("trace.overhead_s", traced_pass - untraced_pass);

    // Layer rungs: each lane job's trajectory (the batch's shared config,
    // or the solo config) replayed traced and untraced.
    let trajectories: Vec<&ExperimentConfig> = lane_jobs
        .iter()
        .map(|j| match j {
            LaneJob::Batch { cfg, .. } => &**cfg,
            LaneJob::Solo(i) => &cfgs[*i],
        })
        .collect();
    trace::layer_rungs(ctx, out, &trajectories, untraced_pass);
}
