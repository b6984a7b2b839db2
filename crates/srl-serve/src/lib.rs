//! # srl-serve — a sharded multi-tenant serving front end
//!
//! A long-lived TCP server speaking a line protocol: one JSON request per
//! line, one JSON response per line, both sides of the **versioned wire
//! contract** defined in [`srl_core::api`] (`"v": 1`). A served response
//! body is the [`api::compact`](srl_core::api::compact)-ed form of exactly
//! what `srl run/check/analyze --json` prints for the same query — one
//! contract, two transports — plus trailing `cache`/`id` fields.
//!
//! ## The tenant model
//!
//! Every request names a tenant (default: `"default"`). A tenant owns:
//!
//! * a [`PipelineConfig`](srl_core::PipelineConfig) — dialect, type policy,
//!   [`EvalLimits`](srl_core::EvalLimits) and the wall-clock deadline that
//!   acts as per-tenant admission control (polled inside the evaluator);
//! * an input-binding environment — the REPL's `S := {…}` binding model
//!   promoted to the wire (`bind` requests), persisting across queries
//!   *and* connections;
//! * a [`ProgramCache`] of compiled artifacts keyed by
//!   the compiled program's structural fingerprint, with pooled evaluators
//!   and hit/miss/eviction counters surfaced in every `run` response;
//! * its own request counters (`stats` requests).
//!
//! Tenants are the server's shards: one mutex each, so queries of one
//! tenant serialize while different tenants proceed concurrently on the
//! session-accepting thread pool; inside a query, provably order-
//! independent folds shard across the evaluator's `srl-core::parallel`
//! worker pool (`threads` in the tenant config).
//!
//! ## Load shedding
//!
//! Past `max_inflight` concurrently evaluating queries, `run`/`check`/
//! `analyze` requests are shed with a structured `overloaded` error (wire
//! exit code 9); `bind` and `stats` are always served. See
//! [`server`] for the full policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod server;
pub mod tenant;

pub use cache::ProgramCache;
pub use server::{ServeConfig, Server, ServerHandle, DEFAULT_TENANT, MAX_REQUEST_BYTES};
pub use tenant::{Tenant, TenantStats};
