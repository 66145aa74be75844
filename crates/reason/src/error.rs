//! Error type for the reasoning crate.

use currency_core::CurrencyError;
use std::fmt;

/// Errors raised by the decision procedures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReasonError {
    /// The input specification is malformed (propagated from the model).
    Currency(CurrencyError),
    /// An exact solver exceeded its [`crate::Options`] budget.
    BudgetExceeded {
        /// Which budget was exhausted.
        what: &'static str,
        /// The configured budget that was exceeded.
        budget: usize,
        /// The amount actually spent when the guard fired (≥ `budget`).
        spent: usize,
    },
    /// The query's bounds — a per-solve work budget or a wall-clock
    /// deadline, set on a [`crate::SnapshotReader`] — stopped it before
    /// it was decided.  Never a verdict: the interrupted solve ran on a
    /// throwaway clone, so a retry starts again from the component's
    /// compiled state.
    Interrupted {
        /// Solver work performed before the interrupt.
        spent: crate::Spent,
    },
    /// A query-shaped input was required but not met (e.g. an SP-only
    /// algorithm received a non-SP query).
    UnsupportedQuery {
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for ReasonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReasonError::Currency(e) => write!(f, "invalid specification: {e}"),
            ReasonError::BudgetExceeded {
                what,
                budget,
                spent,
            } => {
                write!(
                    f,
                    "exact solver budget exceeded: {what} (budget {budget}, spent {spent})"
                )
            }
            ReasonError::Interrupted { spent } => {
                write!(
                    f,
                    "query interrupted by its work budget or deadline after {} conflicts and {} propagations",
                    spent.conflicts, spent.propagations
                )
            }
            ReasonError::UnsupportedQuery { detail } => {
                write!(f, "unsupported query: {detail}")
            }
        }
    }
}

impl std::error::Error for ReasonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReasonError::Currency(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CurrencyError> for ReasonError {
    fn from(e: CurrencyError) -> ReasonError {
        ReasonError::Currency(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ReasonError::from(CurrencyError::UnknownRelation {
            relation: "R".into(),
        });
        assert!(e.to_string().contains("R"));
        assert!(std::error::Error::source(&e).is_some());
        let b = ReasonError::BudgetExceeded {
            what: "models",
            budget: 8,
            spent: 9,
        };
        assert!(b.to_string().contains("models"));
        assert!(b.to_string().contains("budget 8"));
        assert!(b.to_string().contains("spent 9"));
        assert!(std::error::Error::source(&b).is_none());
        let i = ReasonError::Interrupted {
            spent: crate::Spent {
                conflicts: 3,
                propagations: 41,
            },
        };
        assert!(i.to_string().contains("3 conflicts"));
        assert!(i.to_string().contains("41 propagations"));
    }
}
