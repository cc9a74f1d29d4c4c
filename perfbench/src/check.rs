//! Output checking: every simulated result the benchmark produces is
//! compared against something independent of the timed path — a
//! committed expected value, an off-the-clock serial run, or the first
//! pass of the same run. A mismatch is one failed operation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use aep_faultsim::OutcomeTable;
use aep_sim::RunStats;

/// Counts checked operations and failures, keeping the first few
/// failure messages for stderr.
#[derive(Debug, Default)]
pub struct Checker {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output was wrong (or that were shed or errored).
    pub failed: u64,
    notes: Vec<String>,
}

impl Checker {
    /// Records one checked operation; `ok == false` counts it failed.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failure against an operation already counted as
    /// attempted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Counts operations that were attempted without a separate output
    /// check (their outputs are covered by a later comparison).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Prints the kept failure messages to stderr.
    pub fn report(&self) {
        for n in &self.notes {
            eprintln!("[perfbench] check failed: {n}");
        }
        if self.failed as usize > self.notes.len() {
            eprintln!(
                "[perfbench] ... and {} more failures",
                self.failed as usize - self.notes.len()
            );
        }
    }
}

/// The canonical one-line rendering of a [`RunStats`]: every field of the
/// run cache's lossless text form (floats as raw bits), space-separated.
pub fn stats_line(stats: &RunStats) -> String {
    aep_sim::runcache::render_stats(stats)
        .lines()
        .filter(|l| !l.starts_with("version="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The canonical one-line rendering of a campaign outcome table.
pub fn outcome_line(t: &OutcomeTable) -> String {
    format!(
        "masked={} corrected={} refetch={} due={} sdc={} struck_valid={} struck_dirty={}",
        t.masked, t.corrected, t.refetch_recovered, t.due, t.sdc, t.struck_valid, t.struck_dirty
    )
}

/// A committed expected-value file: a `# seed=<n>` header (or
/// `# seed=any` for seed-independent outputs) and `<id>\t<line>` records.
#[derive(Debug)]
pub struct Expected {
    path: PathBuf,
    seed: Option<u64>,
    records: BTreeMap<String, String>,
}

impl Expected {
    /// Loads `<dir>/<name>.txt`; a missing file loads as empty, so every
    /// lookup reports its absence.
    pub fn load(dir: &Path, name: &str) -> Expected {
        let path = dir.join(format!("{name}.txt"));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let mut seed = None;
        let mut records = BTreeMap::new();
        for line in text.lines() {
            if let Some(s) = line.strip_prefix("# seed=") {
                seed = if s.trim() == "any" {
                    None
                } else {
                    Some(s.trim().parse().unwrap_or(u64::MAX))
                };
            } else if let Some((id, rec)) = line.split_once('\t') {
                records.insert(id.to_string(), rec.to_string());
            }
        }
        Expected {
            path,
            seed,
            records,
        }
    }

    /// Whether the committed values apply to a run with workload `seed`.
    pub fn applies_to(&self, seed: u64) -> bool {
        self.seed.is_none_or(|s| s == seed)
    }

    /// Compares one produced record with its expected value.
    pub fn check(&self, checker: &mut Checker, id: &str, got: &str) {
        let want = self.records.get(id);
        checker.record(want.is_some_and(|w| w == got), || match want {
            Some(w) => format!("{id}: expected `{w}`, got `{got}`"),
            None => format!("{id}: no expected value in {}", self.path.display()),
        });
    }

    /// Writes a fresh expected file (the `--regen-expected` maintenance
    /// path).
    pub fn write(
        dir: &Path,
        name: &str,
        seed: Option<u64>,
        records: &[(String, String)],
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut text = match seed {
            Some(s) => format!("# seed={s}\n"),
            None => "# seed=any\n".to_string(),
        };
        for (id, rec) in records {
            text.push_str(&format!("{id}\t{rec}\n"));
        }
        std::fs::write(dir.join(format!("{name}.txt")), text)
    }
}
