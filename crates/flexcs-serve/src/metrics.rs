//! Engine-native metrics: throughput counters and queue depths.
//!
//! The engine counts frames independently of the optional `telemetry`
//! feature, so callers can read throughput and backpressure without a
//! recorder installed. Each fact has one record: a frame's
//! submit-to-completion latency lives on its
//! [`DecodedFrame::latency`](crate::DecodedFrame::latency) (callers
//! that want percentiles compute them from the frames they waited on),
//! and engine-wide `submitted`/`rejected` are sums of the per-tenant
//! counts.

/// Point-in-time metrics for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantMetrics {
    /// Tenant id.
    pub tenant: usize,
    /// Tenant name.
    pub name: String,
    /// Frames accepted into the tenant's queue.
    pub submitted: u64,
    /// Frames rejected by backpressure.
    pub rejected: u64,
    /// Frames decoded (including failed decodes).
    pub completed: u64,
    /// Current queue depth.
    pub queue_depth: usize,
}

/// Point-in-time metrics for the whole engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineMetrics {
    /// Frames accepted across all tenants (the sum of the tenants'
    /// `submitted`).
    pub submitted: u64,
    /// Frames rejected by backpressure across all tenants (the sum of
    /// the tenants' `rejected`).
    pub rejected: u64,
    /// Frames completed successfully.
    pub decoded: u64,
    /// Frames completed with a decode error.
    pub failed: u64,
    /// Frames whose decode panicked (counted in `failed` as well).
    pub panicked: u64,
    /// Batches dispatched by the scheduler.
    pub batches: u64,
    /// Mean frames per batch (`None` before the first batch).
    pub mean_batch_occupancy: Option<f64>,
    /// Per-tenant breakdown, indexed by tenant id.
    pub tenants: Vec<TenantMetrics>,
}

impl EngineMetrics {
    /// Frames completed in total (success + failure).
    pub fn completed(&self) -> u64 {
        self.decoded + self.failed
    }
}
