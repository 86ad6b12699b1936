use std::fmt;

use tapacs_graph::GraphError;

use crate::stage::Stage;

/// Errors surfaced by the compiler pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The input graph is structurally invalid.
    Graph(GraphError),
    /// No feasible assignment exists under the resource thresholds — the
    /// design needs more FPGAs (the paper's "cannot be routed on a single
    /// device").
    InsufficientResources {
        /// Human-readable description of the binding constraint.
        detail: String,
    },
    /// Virtual place-and-route failed: some slot is oversubscribed past the
    /// routable limit (the paper's "failure in the routing phase").
    RoutingFailure {
        /// FPGA index.
        fpga: usize,
        /// Worst slot utilization found.
        worst_utilization: f64,
    },
    /// The ILP solver could not find any feasible point in budget.
    Solver(String),
    /// The flow requests more FPGAs than the bound cluster provides (or
    /// zero). Batch jobs must fail per-job on this instead of aborting the
    /// whole queue, so it is an error, not a panic.
    ClusterTooSmall {
        /// FPGAs the flow needs.
        needed: usize,
        /// FPGAs the cluster has.
        available: usize,
    },
    /// The job's compile panicked inside a batch worker. The panic was
    /// caught at the job boundary ([`crate::BatchCompiler`] isolates it),
    /// so the rest of the sweep completed; this variant carries what is
    /// known about the fault for the failed slot.
    WorkerPanicked {
        /// The pipeline stage that was executing when the panic unwound,
        /// when the stage marker was set (a panic before the first stage
        /// has none).
        stage: Option<Stage>,
        /// The panic payload, when it was a string (the usual case).
        payload: String,
    },
    /// A caller-supplied stage override is inconsistent with the job —
    /// e.g. a seeded partition whose assignment does not cover the graph
    /// or names an FPGA the flow does not span. Checked up front so batch
    /// jobs fail per-job instead of panicking deep in the pipeline.
    InvalidOverride {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A number in the compiler configuration is NaN or negative (see
    /// [`crate::CompilerConfig::check`]). Checked before the first stage,
    /// so no stage turns it into a panic.
    InvalidConfig {
        /// The field, as `stage.field` (`partition.time_limit_s`).
        field: &'static str,
        /// The value it held.
        value: f64,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Graph(e) => write!(f, "invalid task graph: {e}"),
            CompileError::InsufficientResources { detail } => {
                write!(f, "design does not fit: {detail}")
            }
            CompileError::RoutingFailure { fpga, worst_utilization } => write!(
                f,
                "routing failure on FPGA {fpga}: slot utilization {:.1}% exceeds the routable limit",
                worst_utilization * 100.0
            ),
            CompileError::Solver(msg) => write!(f, "ILP solver: {msg}"),
            CompileError::ClusterTooSmall { needed, available } => {
                write!(f, "flow needs {needed} FPGA(s), cluster has {available}")
            }
            CompileError::WorkerPanicked { stage, payload } => match stage {
                Some(stage) => write!(f, "worker panicked during {stage}: {payload}"),
                None => write!(f, "worker panicked: {payload}"),
            },
            CompileError::InvalidOverride { detail } => {
                write!(f, "invalid stage override: {detail}")
            }
            CompileError::InvalidConfig { field, value } => {
                write!(f, "invalid compiler configuration: {field} = {value} (must be a number >= 0)")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<GraphError> for CompileError {
    fn from(e: GraphError) -> Self {
        CompileError::Graph(e)
    }
}
