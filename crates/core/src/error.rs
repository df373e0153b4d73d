//! The unified error type of the serving front door.
//!
//! The subsystems each have a precise local error — [`PredictError`] for
//! inference on unfitted models, [`HubError`] for registry operations,
//! [`SearchError`] for hyperparameter search — and keep them, because their
//! callers match on the specific cases. The [`crate::serve`] API sits above
//! all three, so it speaks one language: [`BellamyError`], with `From`
//! conversions from every local error (the `?` operator just works) and
//! `source()` preserving the original for callers that want to drill down.

use crate::hub::HubError;
use crate::model::PredictError;
use crate::search::SearchError;
use std::time::Duration;

/// Any error the Bellamy serving stack can surface: the union of the
/// per-subsystem errors plus the service lifecycle cases.
#[derive(Debug)]
pub enum BellamyError {
    /// Inference was requested from an unfitted model.
    Predict(PredictError),
    /// A model-hub operation failed (unknown key, divergence, disk I/O).
    Hub(HubError),
    /// Hyperparameter search could not produce a usable model.
    Search(SearchError),
    /// The model's admission window
    /// ([`crate::serve::BatcherConfig::max_inflight`]) is full: more callers
    /// are predicting on this model at once than it admits, and this query
    /// was shed instead of adding to the load. Back off for roughly
    /// `retry_after_hint` (the recently observed predict time, at least
    /// 50 µs) before retrying.
    Overloaded {
        /// A back-off hint derived from the model's recent predict time.
        retry_after_hint: Duration,
    },
    /// The query's deadline budget was already spent when it reached
    /// admission (a zero budget). An admitted query always returns its
    /// value, so this is the only way a budget fails a call. Retry with a
    /// budget.
    DeadlineExceeded,
    /// The forward pass of this query panicked. Only this call failed —
    /// the calling thread's predictor stays usable and subsequent queries
    /// are served normally. Safe to retry.
    BatchPanicked,
}

impl std::fmt::Display for BellamyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BellamyError::Predict(e) => write!(f, "predict: {e}"),
            BellamyError::Hub(e) => write!(f, "hub: {e}"),
            BellamyError::Search(e) => write!(f, "search: {e}"),
            BellamyError::Overloaded { retry_after_hint } => {
                write!(
                    f,
                    "service overloaded: the admission window is full; retry after ~{}us",
                    retry_after_hint.as_micros()
                )
            }
            BellamyError::DeadlineExceeded => {
                write!(f, "query deadline exceeded before admission")
            }
            BellamyError::BatchPanicked => {
                write!(
                    f,
                    "the forward pass of this query panicked; only this call \
                     failed and the query is safe to retry"
                )
            }
        }
    }
}

impl std::error::Error for BellamyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BellamyError::Predict(e) => Some(e),
            BellamyError::Hub(e) => Some(e),
            BellamyError::Search(e) => Some(e),
            BellamyError::Overloaded { .. }
            | BellamyError::DeadlineExceeded
            | BellamyError::BatchPanicked => None,
        }
    }
}

impl From<PredictError> for BellamyError {
    fn from(e: PredictError) -> Self {
        BellamyError::Predict(e)
    }
}

impl From<HubError> for BellamyError {
    fn from(e: HubError) -> Self {
        BellamyError::Hub(e)
    }
}

impl From<SearchError> for BellamyError {
    fn from(e: SearchError) -> Self {
        BellamyError::Search(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BellamyError = PredictError::NotFitted.into();
        assert!(e.to_string().contains("not fitted"));
        let e: BellamyError = HubError::UnknownModel("k".into()).into();
        assert!(e.to_string().contains("no model registered"));
        let e: BellamyError = SearchError::AllTrialsDiverged { trials: 3 }.into();
        assert!(e.to_string().contains("diverged"));
        let e = BellamyError::Overloaded {
            retry_after_hint: std::time::Duration::from_micros(250),
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains("250us"));
        assert!(BellamyError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(BellamyError::BatchPanicked.to_string().contains("retry"));
    }

    #[test]
    fn source_preserves_the_wrapped_error() {
        use std::error::Error;
        let e: BellamyError = PredictError::NotFitted.into();
        assert!(e.source().is_some());
        assert!(BellamyError::DeadlineExceeded.source().is_none());
    }

    #[test]
    fn question_mark_operator_converts() {
        fn recall() -> Result<(), BellamyError> {
            Err(HubError::UnknownModel("missing".into()))?
        }
        assert!(matches!(recall(), Err(BellamyError::Hub(_))));
    }
}
