//! What a UDF did at run time, and what the feedback loop has learned from it.
//!
//! One [`UdfRuntime`] record carries a UDF's runtime facts end to end: the executor
//! fills one per UDF while a query runs, the engine hands it to the feedback store,
//! which sums it into the UDF's entry and persists that entry in snapshots. The store
//! reads its entries back as one [`LearnedUdf`] per UDF for both consumers: the cost
//! model (learned cost and dedup fraction) and the executor's cost-ordered filter
//! evaluation (mean cost and pass rate).

use std::time::Duration;

/// Runtime counters of one UDF, over one query (executor) or summed over every query
/// that ran it (feedback store).
///
/// `invocations` counts *real* body evaluations only. Cache hits must stay out of it:
/// folding them in would divide the measured total over calls that cost nothing,
/// draining the learned per-UDF cost toward zero as the memo warms — and a cost model
/// that believes UDFs are free would stop decorrelating them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UdfRuntime {
    /// Normalized function name.
    pub name: String,
    /// Calls whose body actually ran (and whose wall clock is in `total`).
    pub invocations: u64,
    /// Wall clock of those evaluations.
    pub total: Duration,
    /// Calls answered by the memo or per-query dedup cache without evaluation.
    pub hits: u64,
    /// Rows a filter conjunct led by this UDF was evaluated for.
    pub predicate_evaluated: u64,
    /// How many of those rows passed it.
    pub predicate_passed: u64,
}

impl UdfRuntime {
    /// An all-zero record for `name`.
    pub fn new(name: &str) -> UdfRuntime {
        UdfRuntime {
            name: name.to_string(),
            ..UdfRuntime::default()
        }
    }

    /// Mean wall-clock per *evaluated* invocation.
    pub fn mean(&self) -> Duration {
        if self.invocations == 0 {
            Duration::ZERO
        } else {
            self.total / self.invocations as u32
        }
    }
}

/// What the feedback loop has learned about one UDF. A number is `None` until enough
/// has been observed to trust it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LearnedUdf {
    /// Measured cost of one evaluation in the cost model's row-op units; replaces the
    /// static body estimate.
    pub units: Option<f64>,
    /// Fraction of calls that evaluate the body (the rest are cache hits), in `(0, 1]`.
    pub dedup_fraction: Option<f64>,
    /// Mean measured wall-clock of one evaluation, in seconds.
    pub mean_seconds: Option<f64>,
    /// Observed fraction of rows passing a filter conjunct led by this UDF.
    pub pass_rate: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_do_not_dilute_the_measured_mean() {
        let record = UdfRuntime {
            invocations: 2,
            total: Duration::from_micros(400),
            hits: 6,
            ..UdfRuntime::new("f")
        };
        // The mean stays the per-evaluation cost; 400/8 would be the drift bug.
        assert_eq!(record.mean(), Duration::from_micros(200));
        assert_eq!(UdfRuntime::new("warm_only").mean(), Duration::ZERO);
    }
}
