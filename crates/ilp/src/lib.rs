//! Pure-Rust linear and mixed-integer linear programming.
//!
//! TAPA-CS formulates both its inter-FPGA partitioner and its intra-FPGA
//! floorplanner as integer linear programs (the paper solves them with
//! python-MIP or Gurobi). This crate is the reproduction's solver substrate:
//! a sparse revised two-phase primal simplex for the LP relaxation (with a
//! dense-tableau oracle in the test build) and a round-based
//! branch-and-bound search for integrality, with an anytime incumbent and
//! a wall-clock deadline so large instances behave like a commercial
//! solver under a time limit.
//!
//! Every solve runs one sequence of steps, which
//! [`Model::solve_with_options`]'s doc lists in order; it reads
//! [`SolverOptions`] (what the TAPA-CS compiler threads through its
//! configuration structs). A caller that knows its model's structure writes
//! the model's solve-cache key instead ([`KeyWriter`]) and solves that
//! ([`Model::solve_canonical`]): a cache hit then builds no model, and a
//! miss builds it from the key. [`DecodedKey::parse`] checks a key and
//! reads its model and settings back from its bytes alone, for tools that
//! read a cache file.
//! The branch and bound is deterministic and single-threaded: it expands
//! the open-node frontier in fixed-width rounds on the calling thread.
//!
//! Node solves are *incremental*: each model is presolved once at the root
//! (bound tightening, row removal, fixed columns, dual fixing), nodes
//! store sparse bound deltas instead of cloned bound vectors, and every
//! child LP warm-starts from its parent's bounded-variable simplex basis.
//! Engine activity (iterations, warm-start hits, presolve reductions) is
//! observable through [`SolveActivity`]/[`SolveStats`];
//! [`SolverOptions::presolve`] and [`SolverOptions::warm_lp`] switch the
//! new machinery off.
//!
//! # Example
//!
//! Maximize `3x + 5y` subject to `x <= 4`, `2y <= 12`, `3x + 2y <= 18`
//! (the classic Dantzig example, optimum 36 at `(2, 6)`):
//!
//! ```
//! use tapacs_ilp::{Model, Sense};
//!
//! # fn main() -> Result<(), tapacs_ilp::IlpError> {
//! let mut m = Model::new("dantzig");
//! let x = m.continuous("x", 0.0, f64::INFINITY);
//! let y = m.continuous("y", 0.0, f64::INFINITY);
//! m.add_le("c1", x.into(), 4.0);
//! m.add_le("c2", 2.0 * y, 12.0);
//! m.add_le("c3", 3.0 * x + 2.0 * y, 18.0);
//! m.set_objective(Sense::Maximize, 3.0 * x + 5.0 * y);
//! let sol = m.solve()?;
//! assert!((sol.objective - 36.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod cache;
mod cancel;
mod certificate;
#[cfg(test)]
mod dense;
mod error;
mod expr;
mod fault;
mod key;
mod model;
mod node;
mod parallel;
mod presolve;
mod revised;
mod simplex;
mod solution;
mod solver;
mod sparse;
mod stats;

pub use cache::{CacheFileError, CacheStats, SolveCache, SOLVE_CACHE_FILE};
pub use cancel::CancellationToken;
pub use certificate::{certify, CertificateError};
pub use error::IlpError;
pub use expr::LinExpr;
pub use fault::{
    fault_fires, fault_registry, install_faults, FaultKind, FaultRegistry, INJECTED_PANIC_MARKER,
};
pub use key::{CanonicalKey, DecodedKey, KeyError, KeyShape, KeyWriter};
pub use model::{CmpOp, Model, Sense, SolverConfig, VarId, VarKind};
pub use solution::{Solution, SolveStatus};
pub use solver::{LpEngine, LpParity, SolverBackend, SolverOptions};
pub use stats::{SolveActivity, SolveStats};
