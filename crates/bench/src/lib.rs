//! Regenerates every table and figure of the paper's evaluation section.
//!
//! One entry point: the [`reproduce`] module (and the `reproduce` binary)
//! prints each table/figure in the paper's layout — run
//! `cargo run --release -p tapacs-bench --bin reproduce -- all`. What a
//! compile costs and buys is measured by the repo benchmark (`benchmarks/`
//! at the workspace root), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dse_search;
pub mod reproduce;
