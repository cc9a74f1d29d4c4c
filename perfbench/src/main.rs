//! `perfbench`: one benchmark for the aep workspace.
//!
//! ```text
//! perfbench --workload figures|conflict|campaign|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`) runs print every end-to-end metric; traced runs
//! (`--trace 1`) print every per-layer metric. Both check every output
//! and print, as the last line of stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every check passed. See `README.md` next to this file.

mod campaign;
mod check;
mod conflict;
mod figures;
mod serve;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Checker;
use trace::{Layers, Spans};
use util::{json_num, json_str, median, quantile, secs};

/// Every end-to-end metric, with its unit. Each workload defines what
/// one "pass" and one "item" are (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The seed the committed expected values were generated with.
pub const DEFAULT_SEED: u64 = 2006;

/// Worker threads, daemon workers and client connections: the host's
/// core count, at most 2.
pub fn jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(2)
        .clamp(1, 2)
}

/// Everything a workload needs to run.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Directory of the committed expected values.
    pub expected: PathBuf,
    /// Rewrite the expected values instead of checking them.
    pub regen: bool,
    /// Corrupt the digest of the n-th validated serve reply (self-test
    /// hook).
    pub corrupt_reply: Option<usize>,
    /// Scratch directory inside the checkout.
    pub work: PathBuf,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks.
    pub checker: Checker,
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Seconds of each timed pass.
    pub passes: Vec<f64>,
    /// Latency of each timed item, in milliseconds.
    pub items_ms: Vec<f64>,
    /// The workload's own named metrics (`name`, value, unit), printed in
    /// the report line.
    pub named: Vec<(String, f64, String)>,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Coarse spans (traced runs).
    pub spans: Spans,
    /// Window sizes and other input parameters, for provenance.
    pub windows: String,
}

impl Outcome {
    /// Adds one named report metric.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_string(), value, unit.to_string()));
    }
}

/// Runs `f(false)` once untimed (allocator, page tables and branch
/// predictors warm up on it), then `f(true)` repeatedly until `seconds`
/// have passed (at least `min` times), returning each timed call's wall
/// seconds.
pub fn timed_passes(seconds: f64, min: usize, mut f: impl FnMut(bool)) -> Vec<f64> {
    f(false);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min || secs(start) < seconds {
        let t = Instant::now();
        f(true);
        passes.push(secs(t));
    }
    passes
}

/// Runs a set-up closure `n` times and returns the last result with the
/// median set-up seconds.
pub fn timed_setup<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = Instant::now();
        last = Some(f());
        times.push(secs(t));
    }
    (last.expect("at least one set-up"), median(&times))
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload figures|conflict|campaign|serve --seed N \
         --seconds S --trace 0|1 [--expected DIR] [--regen-expected] [--corrupt-reply N]"
    );
    std::process::exit(2);
}

fn parse_args(root: &Path) -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut expected = root.join("perfbench").join("expected");
    let mut regen = false;
    let mut corrupt_reply = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => traced = value() == "1",
            "--expected" => expected = PathBuf::from(value()),
            "--regen-expected" => regen = true,
            "--corrupt-reply" => {
                corrupt_reply = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("bad --corrupt-reply")),
                );
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            traced,
            expected,
            regen,
            corrupt_reply,
            work: root.join(".bench_work"),
        },
    }
}

fn main() {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if !root.join("perfbench").join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        eprintln!("perfbench: run from the root of an aep checkout");
        std::process::exit(2);
    }
    let args = parse_args(&root);
    let ctx = &args.ctx;
    let mut out = match args.workload.as_str() {
        "figures" => figures::run(ctx),
        "conflict" => conflict::run(ctx),
        "campaign" => campaign::run(ctx),
        "serve" => serve::run(ctx),
        other => usage(&format!("unknown workload {other}")),
    };

    let wall_s = median(&out.passes);
    let p50 = quantile(&out.items_ms, 0.5);
    let p90 = quantile(&out.items_ms, 0.9);
    let rss = util::peak_rss_mb();
    let attempted = out.checker.attempted.max(1);
    let error_rate = out.checker.failed as f64 / attempted as f64;
    out.named("error_rate", error_rate, "fraction");
    out.named("peak_rss_mb", rss, "MB");
    out.checker.report();

    let provenance = format!(
        "{{\"revision\":{},\"profile\":{},\"nproc\":{},\"jobs\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"passes\":{},\"items\":{},\"windows\":{}}}",
        json_str(&util::source_revision(&root)),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        jobs(),
        json_str(&args.workload),
        ctx.seed,
        json_num(ctx.seconds),
        u8::from(ctx.traced),
        out.passes.len(),
        out.items_ms.len(),
        json_str(&out.windows),
    );
    println!("# provenance {provenance}");
    let passes: Vec<String> = out.passes.iter().map(|p| format!("{p:.4}")).collect();
    println!("# passes [{}]", passes.join(","));
    let named: Vec<String> = out
        .named
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!("# report {{{}}}", named.join(","));

    let metrics: Vec<(String, f64, String)> = if ctx.traced {
        let spans = ctx
            .work
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, ctx.seed));
        if let Err(e) = out.spans.write(&spans) {
            eprintln!(
                "[perfbench] warning: cannot write spans to {}: {e}",
                spans.display()
            );
        }
        out.layers
            .entries()
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()))
            .collect()
    } else {
        let values = [out.setup_s, wall_s, p50, p90, rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| ((*n).to_string(), v, (*u).to_string()))
            .collect()
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let correct = out.checker.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{},\"metrics\":{{{}}}}}",
        out.checker.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.lines()
            .filter_map(|l| {
                let field = |key: &str| {
                    let rest = l.split(&format!("\"{key}\": \"")).nth(1)?;
                    Some(rest[..rest.find('"')?].to_string())
                };
                Some((field("name")?, field("unit")?))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        assert_eq!(listed("end_to_end"), owned(super::END_TO_END));
        assert_eq!(listed("per_layer"), owned(crate::trace::PER_LAYER));
    }
}
