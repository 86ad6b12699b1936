//! # TAPA-CS (Rust reproduction)
//!
//! Facade crate re-exporting the full TAPA-CS stack: a task-parallel
//! dataflow compiler that automatically partitions a large accelerator
//! design across a cluster of network-connected HBM-FPGAs, couples
//! inter-/intra-FPGA floorplanning with interconnect pipelining, and
//! evaluates the result on a discrete-event dataflow simulator.
//!
//! Reproduction of *TAPA-CS: Enabling Scalable Accelerator Design on
//! Distributed HBM-FPGAs* (ASPLOS 2024). See `README.md` for the system
//! inventory and how to regenerate the paper's tables and figures.
//!
//! ## Crates
//!
//! * [`ilp`] — LP/MIP solver (simplex + one deterministic, single-threaded
//!   branch and bound and a greedy heuristic behind the
//!   [`Solver`] trait, with a process-wide solve memo-cache).
//! * [`fpga`] — device models, slot grids, HBM, the virtual place-and-route
//!   timing model.
//! * [`net`] — network topologies, transfer protocols, the AlveoLink model.
//! * [`graph`] — task graphs (compute modules + FIFO edges) and algorithms.
//! * [`sim`] — discrete-event dataflow simulator.
//! * [`core`] — the seven-step TAPA-CS compiler pipeline.
//! * [`apps`] — the four paper benchmarks (Stencil, PageRank, KNN, CNN).

#![forbid(unsafe_code)]

pub use tapacs_apps as apps;
pub use tapacs_core as core;
pub use tapacs_fpga as fpga;
pub use tapacs_graph as graph;
pub use tapacs_ilp as ilp;
pub use tapacs_net as net;
pub use tapacs_sim as sim;

// The solver-selection and batch-compile surface, re-exported at the
// root: these are the types callers touch to pick a backend, pin a thread
// count, inspect the solve cache, or compile a multi-design sweep without
// digging into the crate hierarchy.
pub use tapacs_core::{BatchCompiler, CompileJob, SolverActivityReport};
pub use tapacs_ilp::{SolveCache, Solver, SolverBackend, SolverOptions};
