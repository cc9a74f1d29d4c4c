//! `campaign`: `run_campaign_report` for org and `proposed:1M` under the
//! `single`, `col:4` and `accum:scrub` strike models on `gap` — the only
//! workload where `aep-faultsim` does work (prototype warm-up, a
//! `System::fork` per chunk, strike injection, SECDED decode on
//! resolution).
//!
//! Campaigns use the faultsim crate's small-cache geometry
//! (`CampaignConfig::fast_test`): on the full Table 1 L2 a short warm-up
//! leaves most frames invalid, so most strikes would be masked without
//! reaching the scheme, and the rare long resolutions would make the run
//! time depend on the seed.
//!
//! One pass is the six campaigns; one item is one campaign. Every pass
//! must reproduce the first pass's outcome tables; the default seed's
//! tables are compared with `expected/campaign.txt`.

use std::time::Instant;

use aep_core::SchemeKind;
use aep_faultsim::{run_campaign_report, CampaignConfig, OutcomeTable, StrikeModel};
use aep_sim::{ExperimentConfig, System};
use aep_workloads::{Benchmark, Workload};

use crate::check::{outcome_line, Expected};
use crate::trace;
use crate::util::{median, secs};
use crate::{jobs, timed_passes, timed_setup, Ctx, Outcome};

/// Strike trials per campaign.
pub const TRIALS: u32 = 2000;
/// `(scheme slug, metric label)` pairs.
const SCHEMES: [(&str, &str); 2] = [("uniform", "org"), ("proposed:1048576", "proposed-1M")];
/// `(strike model slug, metric label)` pairs.
const MODELS: [(&str, &str); 3] = [
    ("single", "single"),
    ("col:4", "col-4"),
    ("accum:scrub", "accum-scrub"),
];

/// The six campaign configurations with their metric labels.
pub fn plan(seed: u64) -> Vec<(CampaignConfig, String)> {
    let mut out = Vec::new();
    for (scheme, s_label) in SCHEMES {
        for (model, m_label) in MODELS {
            let kind = aep_core::parse_scheme_slug(scheme).expect("scheme slug parses");
            let mut cfg = CampaignConfig::fast_test(Benchmark::Gap, kind);
            cfg.model = StrikeModel::parse(model).expect("model slug parses");
            cfg.trials = TRIALS;
            cfg.seed = seed;
            out.push((cfg, format!("{s_label}.{m_label}")));
        }
    }
    out
}

fn id(cfg: &CampaignConfig) -> String {
    format!("{}/{}", aep_core::scheme_slug(cfg.scheme), cfg.model.slug())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let base = CampaignConfig::fast_test(Benchmark::Gap, SchemeKind::Uniform);
    let mut out = Outcome {
        windows: format!(
            "bench=gap geometry=fast_test trials={TRIALS} warmup={} horizon={} chunk={} jobs={}",
            base.warmup_cycles,
            base.horizon_cycles,
            base.trials_per_chunk,
            jobs()
        ),
        ..Outcome::default()
    };
    let ((plan, expected), setup_s) = timed_setup(5, || {
        let plan = plan(ctx.seed);
        let expected = Expected::load(&ctx.expected, "campaign");
        // Warm the process with a short campaign of the first pair, on
        // every worker, as the passes run.
        let mut warm = plan[0].0.clone();
        warm.trials = 400;
        std::hint::black_box(run_campaign_report(&warm, jobs()));
        (plan, expected)
    });
    out.setup_s = setup_s;

    let mut all: Vec<Vec<OutcomeTable>> = Vec::new();
    let mut items = Vec::new();
    let mut chunks = 0usize;
    let min_passes = if ctx.traced { 1 } else { 3 };
    let seconds = if ctx.traced { 0.0 } else { ctx.seconds };
    out.passes = timed_passes(seconds, min_passes, |timed| {
        let mut tables = Vec::new();
        for (cfg, _) in &plan {
            let t = Instant::now();
            let report = run_campaign_report(cfg, jobs());
            if timed {
                items.push(secs(t) * 1e3);
            }
            chunks = report.chunks.len();
            tables.push(report.total);
        }
        all.push(tables);
    });
    out.items_ms = items;

    let lines: Vec<String> = all[0].iter().map(outcome_line).collect();
    for (p, pass) in all.iter().enumerate().skip(1) {
        for (i, t) in pass.iter().enumerate() {
            out.checker.record(outcome_line(t) == lines[i], || {
                format!("campaign {} changed in pass {p}", plan[i].1)
            });
        }
    }
    for ((cfg, label), t) in plan.iter().zip(&all[0]) {
        out.checker.record(t.trials() == u64::from(cfg.trials), || {
            format!(
                "campaign {label}: {} trials, expected {}",
                t.trials(),
                cfg.trials
            )
        });
        // SECDED on every line: a single-bit strike is never lost.
        if cfg.scheme == SchemeKind::Uniform && cfg.model == StrikeModel::Single {
            out.checker.record(t.due == 0 && t.sdc == 0, || {
                format!("campaign {label}: single-bit strikes lost under uniform ECC")
            });
        }
    }
    if ctx.regen {
        let records: Vec<(String, String)> = plan
            .iter()
            .zip(&lines)
            .map(|((c, _), l)| (id(c), l.clone()))
            .collect();
        Expected::write(&ctx.expected, "campaign", Some(ctx.seed), &records)
            .expect("write expected/campaign.txt");
    } else if expected.applies_to(ctx.seed) {
        for ((c, _), l) in plan.iter().zip(&lines) {
            expected.check(&mut out.checker, &id(c), l);
        }
    }

    let wall = median(&out.passes);
    let trials = f64::from(TRIALS) * plan.len() as f64;
    out.named("wall_s", wall, "s");
    out.named("trials_per_s", trials / wall, "1/s");

    if ctx.traced {
        traced(ctx, &plan, &all[0], chunks, &mut out);
    }
    out
}

fn traced(
    ctx: &Ctx,
    plan: &[(CampaignConfig, String)],
    tables: &[OutcomeTable],
    chunks: usize,
    out: &mut Outcome,
) {
    let untraced_pass = out.passes[0];
    let pass_start = Instant::now();
    for ((cfg, label), want) in plan.iter().zip(tables) {
        let (report, s) = out.spans.time(format!("faultsim.campaign.{label}"), |_| {
            run_campaign_report(cfg, jobs())
        });
        out.layers.set(&format!("faultsim.campaign_s.{label}"), s);
        out.checker.record(report.total == *want, || {
            format!("campaign {label}: traced pass differs from the untraced pass")
        });
    }
    let traced_pass = secs(pass_start);
    out.layers
        .set("faultsim.chunks", (chunks * plan.len()) as f64);
    let mut total = OutcomeTable::default();
    for t in tables {
        total.merge(t);
    }
    let l = &mut out.layers;
    l.set("faultsim.masked", total.masked as f64);
    l.set("faultsim.corrected", total.corrected as f64);
    l.set("faultsim.refetch", total.refetch_recovered as f64);
    l.set("faultsim.due", total.due as f64);
    l.set("faultsim.sdc", total.sdc as f64);
    l.set("trace.overhead_s", traced_pass - untraced_pass);

    // The prototype warm-up and the per-chunk fork, timed through the
    // same public calls `run_campaign_report` makes.
    let mut warm_s = Vec::new();
    let mut fork_s = Vec::new();
    let mut rung_cfgs: Vec<ExperimentConfig> = Vec::new();
    for (scheme, _) in SCHEMES {
        let cfg = &plan
            .iter()
            .find(|(c, _)| aep_core::scheme_slug(c.scheme) == scheme)
            .expect("scheme in plan")
            .0;
        let t = Instant::now();
        let mut sys = System::new(
            cfg.core.clone(),
            cfg.hierarchy.clone(),
            cfg.scheme,
            cfg.benchmark.stream(cfg.seed),
        );
        sys.run(0, cfg.warmup_cycles);
        warm_s.push(secs(t));
        for _ in 0..8 {
            let t = Instant::now();
            std::hint::black_box(sys.fork());
            fork_s.push(secs(t));
        }
        // The layer rung replays the prototype's warm-up followed by one
        // horizon-long window.
        rung_cfgs.push(ExperimentConfig {
            benchmark: Workload::from(Benchmark::Gap),
            scheme: cfg.scheme,
            warmup_cycles: cfg.warmup_cycles,
            measure_cycles: cfg.horizon_cycles,
            seed: cfg.seed,
            core: cfg.core.clone(),
            hierarchy: cfg.hierarchy.clone(),
            scrub_period: None,
            respect_written_bit: true,
        });
    }
    out.layers.set("faultsim.warm_s", median(&warm_s));
    out.layers.set("faultsim.fork_s", median(&fork_s));

    let refs: Vec<&ExperimentConfig> = rung_cfgs.iter().collect();
    let stats = trace::layer_rungs(ctx, out, &refs, untraced_pass);
    trace::model_counts(&mut out.layers, &stats);
}
