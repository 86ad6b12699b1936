use std::fmt;

use crate::certificate::CertificateError;

/// Errors reported by the LP/MIP solver.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The time or node budget expired before any feasible integer point
    /// was found.
    NoIncumbent,
    /// The model is structurally invalid (bad bounds, unknown variable, …).
    InvalidModel(String),
    /// The solve was cancelled externally through its
    /// [`CancellationToken`](crate::CancellationToken) before finishing.
    /// Distinct from [`IlpError::NoIncumbent`]: a deadline expiry degrades
    /// (the budget ran out), an external cancel aborts (the caller no
    /// longer wants the answer).
    Cancelled,
    /// The solver produced an answer that the independent
    /// [`certify`](crate::certify) check rejected against the original
    /// model. Callers treat it like any other failed exact solve.
    Uncertified(CertificateError),
}

impl From<CertificateError> for IlpError {
    fn from(err: CertificateError) -> Self {
        IlpError::Uncertified(err)
    }
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::Infeasible => write!(f, "model is infeasible"),
            IlpError::Unbounded => write!(f, "objective is unbounded"),
            IlpError::NoIncumbent => {
                write!(f, "budget exhausted before a feasible integer point was found")
            }
            IlpError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
            IlpError::Cancelled => write!(f, "solve cancelled by caller"),
            IlpError::Uncertified(why) => write!(f, "solution failed its certificate: {why}"),
        }
    }
}

impl std::error::Error for IlpError {}
