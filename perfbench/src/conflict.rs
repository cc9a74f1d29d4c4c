//! `conflict`: `Runner::run` (no lane batching) of the incumbent and
//! challenger schemes on the RNG-free set-conflict generators — the
//! workload where the scheme layer (and the SECDED encodes it calls) does
//! the most work and nothing fast-forwards.
//!
//! One pass is the ten runs, `jobs` at a time: on a shared 2-vCPU host a
//! lone busy vCPU's speed swings with whatever shares its core, and
//! keeping both busy makes the pass time far steadier. One item is one
//! run. The generators draw no random numbers — their seed only offsets
//! the starting phase — so the workload seed picks one of [`VARIANTS`]
//! phase offsets and every run, whatever the seed, is checked against
//! `expected/conflict.txt`.

use aep_core::{parse_scheme_slug, SchemeKind};
use aep_faultsim::fan_out;
use aep_sim::{ExperimentConfig, RunStats, Runner, Scale};
use aep_workloads::Workload;

use crate::check::{stats_line, Expected};
use crate::trace;
use crate::util::{median, secs};
use crate::{jobs, timed_passes, timed_setup, Ctx, Outcome};

/// Warm-up cycles per run.
pub const WARMUP: u64 = 20_000;
/// Measured cycles per run.
pub const MEASURE: u64 = 100_000;
/// Distinct generator phase offsets the workload seed selects from.
pub const VARIANTS: u64 = 4;
/// The adversarial generators.
pub const GENERATORS: [&str; 2] = ["storm:12", "flood:4096"];
/// Incumbents and challengers, as scheme slugs.
pub const SCHEMES: [&str; 5] = [
    "uniform",
    "proposed:1048576",
    "proposed_multi:1048576:2",
    "silent:1048576",
    "reuse:1048576:4",
];

/// The ten configurations of phase `variant`, generator-major.
pub fn plan(variant: u64) -> Vec<ExperimentConfig> {
    let mut cfgs = Vec::new();
    for g in GENERATORS {
        let workload = Workload::parse(g).expect("generator slug parses");
        for s in SCHEMES {
            let scheme: SchemeKind = parse_scheme_slug(s).expect("scheme slug parses");
            let mut cfg = Scale::Smoke.config(workload.clone(), scheme);
            cfg.warmup_cycles = WARMUP;
            cfg.measure_cycles = MEASURE;
            cfg.seed = variant;
            cfgs.push(cfg);
        }
    }
    cfgs
}

fn id(cfg: &ExperimentConfig) -> String {
    format!(
        "v{}/{}/{}",
        cfg.seed,
        cfg.benchmark.name(),
        aep_core::scheme_slug(cfg.scheme)
    )
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome {
        windows: format!(
            "warmup={WARMUP} measure={MEASURE} runs=10 jobs={} variant={}",
            jobs(),
            ctx.seed % VARIANTS
        ),
        ..Outcome::default()
    };
    let ((cfgs, expected), setup_s) = timed_setup(5, || {
        let cfgs = plan(ctx.seed % VARIANTS);
        let expected = Expected::load(&ctx.expected, "conflict");
        // Warm the process with one run per worker, as the passes run.
        std::hint::black_box(fan_out(jobs(), jobs(), |i| {
            Runner::new(cfgs[i].clone()).run()
        }));
        (cfgs, expected)
    });
    out.setup_s = setup_s;

    let mut results: Vec<(usize, RunStats, f64)> = Vec::new();
    let min_passes = if ctx.traced { 1 } else { 3 };
    let seconds = if ctx.traced { 0.0 } else { ctx.seconds };
    out.passes = timed_passes(seconds, min_passes, |timed| {
        let runs = fan_out(cfgs.len(), jobs(), |i| {
            let t = std::time::Instant::now();
            let stats = Runner::new(cfgs[i].clone()).run();
            (i, stats, secs(t))
        });
        if timed {
            results.extend(runs);
        }
    });
    out.items_ms = results.iter().map(|r| r.2 * 1e3).collect();

    let lines: Vec<String> = results.iter().map(|r| stats_line(&r.1)).collect();
    if ctx.regen {
        let records: Vec<(String, String)> = (0..VARIANTS)
            .flat_map(plan)
            .map(|c| (id(&c), stats_line(&Runner::new(c).run())))
            .collect();
        Expected::write(&ctx.expected, "conflict", None, &records)
            .expect("write expected/conflict.txt");
        return out;
    }
    for ((i, _, _), line) in results.iter().zip(&lines) {
        expected.check(&mut out.checker, &id(&cfgs[*i]), line);
    }

    let cycles = (WARMUP + MEASURE) as f64;
    let rates: Vec<f64> = results.iter().map(|r| cycles / r.2 / 1e6).collect();
    out.named("wall_s", median(&out.passes), "s");
    out.named("sim_mcycles_per_s", median(&rates), "Mcycles/s");
    for g in GENERATORS {
        let per: Vec<f64> = results
            .iter()
            .filter(|r| cfgs[r.0].benchmark.name() == g)
            .map(|r| cycles / r.2 / 1e6)
            .collect();
        out.named(
            &format!("sim_mcycles_per_s.{}", g.replace(':', "-")),
            median(&per),
            "Mcycles/s",
        );
    }

    if ctx.traced {
        let stats: Vec<RunStats> = results
            .iter()
            .take(cfgs.len())
            .map(|r| r.1.clone())
            .collect();
        trace::model_counts(&mut out.layers, &stats);
        let refs: Vec<&ExperimentConfig> = cfgs.iter().collect();
        trace::layer_rungs(ctx, &mut out, &refs, 0.0);
    }
    out
}
