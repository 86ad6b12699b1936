//! Display-formatting coverage for `CompileError`: every variant renders a
//! human-readable message, and graph errors convert losslessly.

use tapacs_core::CompileError;
use tapacs_graph::GraphError;

#[test]
fn graph_variant_wraps_the_inner_message() {
    let e = CompileError::from(GraphError::Empty);
    assert_eq!(e, CompileError::Graph(GraphError::Empty));
    assert_eq!(e.to_string(), "invalid task graph: graph has no tasks");

    let e = CompileError::from(GraphError::DanglingEndpoint { fifo: "stream".into() });
    assert_eq!(e.to_string(), "invalid task graph: fifo stream references a missing task");

    let e = CompileError::from(GraphError::ZeroWidth { fifo: "w0".into() });
    assert_eq!(e.to_string(), "invalid task graph: fifo w0 has zero bit-width");
}

#[test]
fn insufficient_resources_carries_the_detail() {
    let e = CompileError::InsufficientResources { detail: "LUT demand 120% of 2 FPGAs".into() };
    assert_eq!(e.to_string(), "design does not fit: LUT demand 120% of 2 FPGAs");
}

#[test]
fn routing_failure_reports_fpga_and_percent() {
    let e = CompileError::RoutingFailure { fpga: 3, worst_utilization: 0.987 };
    assert_eq!(
        e.to_string(),
        "routing failure on FPGA 3: slot utilization 98.7% exceeds the routable limit"
    );
}

#[test]
fn solver_variant_prefixes_the_message() {
    let e = CompileError::Solver("time limit exhausted".into());
    assert_eq!(e.to_string(), "ILP solver: time limit exhausted");
}

#[test]
fn cluster_too_small_reports_both_counts() {
    let e = CompileError::ClusterTooSmall { needed: 8, available: 4 };
    assert_eq!(e.to_string(), "flow needs 8 FPGA(s), cluster has 4");
}

#[test]
fn invalid_override_carries_the_detail() {
    let e = CompileError::InvalidOverride { detail: "seeded partition assigns 3 task(s)".into() };
    assert_eq!(e.to_string(), "invalid stage override: seeded partition assigns 3 task(s)");
}

#[test]
fn invalid_config_names_the_field_and_its_value() {
    let e = CompileError::InvalidConfig { field: "partition.time_limit_s", value: f64::NAN };
    assert_eq!(
        e.to_string(),
        "invalid compiler configuration: partition.time_limit_s = NaN (must be a number >= 0)"
    );
    let e = CompileError::InvalidConfig { field: "floorplan.slot_threshold", value: -0.5 };
    assert_eq!(
        e.to_string(),
        "invalid compiler configuration: floorplan.slot_threshold = -0.5 (must be a number >= 0)"
    );
}

#[test]
fn compile_error_is_a_std_error() {
    // The pipeline returns these through `Box<dyn Error>` in the binary.
    let e: Box<dyn std::error::Error> = Box::new(CompileError::Solver("x".into()));
    assert!(e.to_string().contains("ILP solver"));
}
