//! Synthetic SPEC2000-like workloads.
//!
//! The paper drives its experiments with fourteen SPEC2000 benchmarks
//! (seven floating-point, seven integer) running for one billion committed
//! instructions on SimpleScalar. Pre-compiled SPEC binaries are not
//! redistributable, so this crate substitutes **behavioural models**: each
//! benchmark is a parameterized, seeded generator of the micro-op stream
//! statistics that the paper's metrics actually depend on —
//!
//! * instruction mix (load/store/branch/ALU/FP fractions),
//! * working-set structure (an L1-resident hot set, large streaming
//!   regions, L2-resident read and *dirty* regions),
//! * generational write behaviour (slow rewrite sweeps over the dirty
//!   footprint, which is what the cleaning logic exploits),
//! * branch predictability and code footprint.
//!
//! The models are calibrated so the simulated L2 reproduces the paper's
//! *reported* per-benchmark behaviour: the Figure 1 dirty-line fractions
//! (51.6 % on average, with `apsi`, `mesa`, `gap`, `parser` far above the
//! rest), the streaming benchmarks' insensitivity to 4M-cycle cleaning
//! (`applu`, `swim`, `mgrid`, `equake`, `mcf`), and write-back traffic
//! around 1 % of loads/stores. See `DESIGN.md` §2 for the substitution
//! rationale and `calibration` for the target table.
//!
//! ```
//! use aep_workloads::Benchmark;
//! use aep_cpu::InstrStream;
//!
//! let mut gen = Benchmark::Gap.generator(42);
//! let op = gen.next_op();
//! # let _ = op;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod bench;
pub mod calibration;
pub mod model;
pub mod trace;
pub mod workload;
pub mod zipf;

/// The stream trait every generator here implements, re-exported so a
/// caller can draw ops from a generator without naming `aep-cpu`.
pub use aep_cpu::InstrStream;

pub use adversarial::{AdversarialSpec, AdversarialStream};
pub use bench::{BenchKind, Benchmark};
pub use model::{Generator, InstrMix, Pattern, Region, WorkloadSpec};
pub use trace::{
    decode, encode, find_trace, read_trace_file, write_trace_file, TraceError, TraceRecord,
    TraceStream, TraceWorkload, TRACE_DIR, TRACE_MAGIC,
};
pub use workload::{Workload, WorkloadStream};
pub use zipf::{ZipfSpec, ZipfStream};
