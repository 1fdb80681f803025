//! # flexcs-serve
//!
//! A long-running, std-only **multi-tenant batched decode engine** for
//! the flexcs stack — the throughput tier that turns the per-frame
//! decode optimizations (cached `Dct2d` plans, zero-allocation
//! per-thread `SolveWorkspace` arenas, cross-frame warm starts) into
//! sustained frames-per-second under concurrent load from many sensor
//! arrays.
//!
//! ## Architecture
//!
//! - **[`Session`]** — per-tenant state: the tenant's [`Decoder`]
//!   (plan cache included) plus its [`DecodeWarmState`] (previous
//!   solution + cached spectral norm; the solver workspace belongs to
//!   the worker thread, so it is not per tenant). Owned exclusively by
//!   one worker at a time; frames decode in FIFO submission order, so
//!   per-tenant results are bit-identical to a serial decode of the
//!   same stream.
//! - **[`Engine`]** — bounded per-tenant queues with backpressure
//!   ([`Submit::Rejected`] when full), a work-stealing scheduler over
//!   `flexcs-parallel`-sized worker threads, and same-shape batching
//!   that amortizes plan reuse across consecutive frames.
//! - **[`FrameHandle`]** — completion handle routed back to the
//!   submitter; drop-safe on the worker side (a lost worker resolves
//!   its claimed frames with [`ServeError::WorkerLost`] instead of
//!   stranding waiters).
//! - **Metrics** — engine-native throughput counters and latency
//!   percentile reservoirs ([`EngineMetrics`]); with the `telemetry`
//!   feature the same events also flow to the installed
//!   `flexcs_telemetry::Recorder` (`serve.*` counters/histograms).
//!
//! Decodes are panic-guarded: a panicking solver fails only its own
//! frame (and resets the tenant's warm state) — the worker, the queue,
//! and every other tenant keep running.
//!
//! ## Example
//!
//! See [`Engine`] for an end-to-end submit/decode/wait example.
//!
//! [`Decoder`]: flexcs_core::Decoder
//! [`DecodeWarmState`]: flexcs_core::DecodeWarmState

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod handle;
mod metrics;
mod session;
mod tel;

pub use engine::{Engine, EngineConfig, Submit};
pub use error::ServeError;
pub use handle::{DecodedFrame, FrameHandle, FrameResult};
pub use metrics::{EngineMetrics, TenantMetrics};
pub use session::{
    DecodeBackend, DecodeMode, FrameRequest, Session, SessionConfig, WarmDecodeBackend,
};
