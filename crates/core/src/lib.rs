//! The TAPA-CS compiler: automatic multi-FPGA partitioning, two-level
//! floorplanning and interconnect pipelining (§4 of the paper).
//!
//! The seven key steps (Figure 5) map onto this crate as:
//!
//! 1. **Task graph construction** — callers build a
//!    [`tapacs_graph::TaskGraph`] (the [`tapacs_apps`-style] builders do
//!    this for the paper's benchmarks).
//! 2. **Task extraction & parallel synthesis** — [`estimate`] provides
//!    per-module resource profiles when the app does not carry measured
//!    ones.
//! 3. **Inter-FPGA floorplanning** — [`partition`]: recursive two-way ILP
//!    partitioning of the device range, then refinement against the
//!    cluster topology's `Σ e.width × dist(F_i,F_j) × λ` under per-resource
//!    thresholds (equations 1–2), with multilevel coarsening for large
//!    designs. The two-way split — model, greedy fallback, recursion — is
//!    the private `bisect` module, which step 5 runs too.
//! 4. **Inter-FPGA communication logic insertion** — [`comm`]: cut FIFOs
//!    are split through AlveoLink send/recv endpoint tasks and the per-port
//!    IP overhead is charged to each FPGA.
//! 5. **Intra-FPGA floorplanning** — [`floorplan`]: the same recursive
//!    two-way ILP partitioning (the same `bisect` code as step 3) over each
//!    FPGA's slot grid (equation 4), HBM readers pinned to the bottom die,
//!    network endpoints to the QSFP die.
//! 6. **Interconnect pipelining** — [`pipeline`]: registers on every
//!    slot-crossing wire plus cut-set latency balancing of reconvergent
//!    paths (§4.6).
//! 7. **Bitstream generation** — [`pnr`]: the *virtual place-and-route*
//!    computes slot congestion and net delays and closes timing, yielding
//!    the achieved frequency per FPGA.
//!
//! [`Compiler`] orchestrates all of it for the three flows compared in the
//! evaluation: `F1-V` (Vitis-like: no floorplanning, no pipelining),
//! `F1-T` (TAPA/AutoBridge single FPGA) and `F2..F8` (TAPA-CS multi-FPGA).
//! It does so as an explicit [`stage`]d pipeline — per-stage wall-clock,
//! error attribution and stage overrides via
//! [`Compiler::compile_staged`] — and whole evaluation sweeps run as one
//! sharded work queue through [`batch::BatchCompiler`].
//!
//! [`tapacs_apps`-style]: crate

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod comm;
pub mod compiler;
pub mod dse;
pub mod estimate;
pub mod floorplan;
pub mod partition;
pub mod pipeline;
pub mod pnr;
pub mod report;
pub mod stage;

mod bisect;
mod error;

pub use batch::{BatchCompiler, BatchOutcome, BatchReport, CompileJob, JobReport, StageTotal};
pub use compiler::{CompiledDesign, Compiler, CompilerConfig, Flow};
pub use dse::search::{explore_adaptive, explore_adaptive_with, SearchConfig, SearchReport};
pub use dse::{DseConfig, DseOutcome, DsePoint, DseReport, DseScore};
pub use error::CompileError;
pub use partition::{InterPartition, PartitionConfig};
pub use report::{FrequencySummary, LevelSolveStats, SolverActivityReport, UtilizationReport};
pub use stage::{CompileContext, CompileOverrides, Stage, StageFailure, StageTiming};
pub use tapacs_ilp::{SolverBackend, SolverOptions};
