//! The simulated cycle loop is allocation-free in steady state.
//!
//! A counting global allocator tallies the heap allocations (including
//! zeroed allocations and reallocations) the current thread makes while a
//! system runs its measured window, after its warm-up. The configurations
//! are the set-conflict storms and write-once floods that put the most
//! line movement and check-bit refresh through the L2 (every incumbent and
//! challenger scheme), plus the proposed scheme on a calibrated benchmark.
//! A per-fill, per-write-back or per-ECC-claim heap object would cost
//! thousands of allocations per 1,000 cycles; the bound is below one.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use aep_core::parse_scheme_slug;
use aep_sim::{ExperimentConfig, Runner, Scale};
use aep_workloads::Workload;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting allocations per thread so
/// the test harness's own threads do not pollute the tally.
struct CountingAlloc;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allowed heap allocations per 1,000 measured cycles.
const BOUND_PER_1K_CYCLES: f64 = 1.0;

fn config(workload: &str, scheme: &str, warmup: u64, measure: u64) -> ExperimentConfig {
    let workload = Workload::parse(workload).expect("workload slug parses");
    let scheme = parse_scheme_slug(scheme).expect("scheme slug parses");
    let mut cfg = Scale::Smoke.config(workload, scheme);
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = measure;
    cfg
}

/// Heap allocations per 1,000 cycles of `cfg`'s measured window.
fn allocations_per_1k_cycles(cfg: &ExperimentConfig) -> f64 {
    let mut sys = Runner::new(cfg.clone()).into_system();
    let now = sys.run(0, cfg.warmup_cycles);
    let before = allocations();
    let dirty = sys.run_census(now, cfg.measure_cycles);
    let made = allocations() - before;
    std::hint::black_box(dirty);
    made as f64 * 1_000.0 / cfg.measure_cycles as f64
}

#[test]
fn measured_windows_allocate_less_than_once_per_1k_cycles() {
    let mut cfgs = Vec::new();
    for workload in ["storm:12", "flood:4096"] {
        for scheme in [
            "uniform",
            "proposed:1048576",
            "proposed_multi:1048576:2",
            "silent:1048576",
            "reuse:1048576:4",
        ] {
            cfgs.push(config(workload, scheme, 20_000, 100_000));
        }
    }
    cfgs.push(config("gap", "proposed:1048576", 60_000, 100_000));

    let mut failures = Vec::new();
    for cfg in &cfgs {
        let rate = allocations_per_1k_cycles(cfg);
        let id = format!(
            "{}/{}",
            cfg.benchmark.name(),
            aep_core::scheme_slug(cfg.scheme)
        );
        println!("{id}: {rate:.3} allocations per 1,000 cycles");
        if rate >= BOUND_PER_1K_CYCLES {
            failures.push(format!("{id}: {rate:.3}"));
        }
    }
    assert!(
        failures.is_empty(),
        "allocations per 1,000 measured cycles at or above {BOUND_PER_1K_CYCLES}: {failures:?}"
    );
}
