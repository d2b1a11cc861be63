#![warn(missing_docs)]
//! # privim-serve
//!
//! An online inference and seed-set query server over a trained PrivIM
//! model — the deployment half of the pipeline: once DP-SGD has produced
//! a releasable `(model, ε, δ, σ, steps)` artifact, this crate packs it
//! into a checksummed bundle together with the serving graph and answers
//! queries over plain HTTP/1.1 on `std::net` (the workspace's
//! zero-external-dependency policy extends to the server: no tokio, no
//! hyper, no serde).
//!
//! **Linux only**: the front end is an epoll reactor over raw
//! `extern "C"` shims, and the crate refuses to build elsewhere.
//!
//! ## Endpoints
//!
//! | route | what it does |
//! |---|---|
//! | `POST /v1/influence` | spread of a seed set (Monte-Carlo IC), LRU-cached |
//! | `POST /v1/seeds` | top-`k` seeds via resumable CELF (cached pick order) |
//! | `POST /v1/embed` | GNN scores for requested nodes, computed once on first use |
//! | `GET /metrics` | plain-text exposition: counters, latency histograms, per-tenant budgets |
//! | `GET /healthz` | liveness |
//!
//! Query endpoints are *budget-aware* when the bundle carries a ledger
//! ([`ledger::TenantLedger`]): requests with an `X-Privim-Tenant` header
//! are charged one Gaussian release per query against that tenant's RDP
//! budget, and an exhausted tenant gets `429 Too Many Requests` with a
//! `Retry-After` header — before any inference work happens.
//!
//! ## Production behaviours
//!
//! * **Scores computed once**: served scores are a pure function of the
//!   immutable `(model, graph)`, so the first `/v1/embed` runs one
//!   full-graph forward pass (dense, or int8 for a `model_q8` bundle) and
//!   every later embed reads its rows from the stored result.
//! * **Caching** ([`cache::ShardedLru`]): spread estimates are cached in
//!   a sharded LRU keyed by the *exact* canonical request bytes (the hash
//!   only picks the shard, so a collision can never serve a wrong value),
//!   and `/v1/seeds` reuses one [`privim_im::LazyGreedy`] across requests
//!   — greedy prefix stability makes any `k ≤ computed` free.
//! * **Readiness-loop front end** (the `conn` + `reactor` modules): an
//!   epoll reactor drives nonblocking sockets with HTTP/1.1 keep-alive
//!   and pipelining, a per-connection state machine, and a coarse timer
//!   wheel for idle/header-read timeouts (slowloris defense). Request
//!   execution runs on a fixed worker pool.
//! * **Load shedding** ([`server`]): a bounded request queue; overflow
//!   and requests whose queue wait exceeds the deadline get `503` instead
//!   of growing latency without bound.
//! * **Graceful drain**: shutdown stops accepting, then completes every
//!   in-flight and queued request before workers exit.
//! * **Versioned bundles** ([`bundle`]): format tag + version + CRC-32 +
//!   graph fingerprint, so a serving process can never silently run a
//!   truncated model or mismatched graph.
//! * **Crash durability** ([`wal`]): every granted budget charge is
//!   journaled (length-prefixed, CRC-32'd, fsync'd) *before* the client
//!   sees a 2xx; startup replays the journal over the bundle's ledger
//!   with never-undercharge semantics, and periodic compaction folds it
//!   into an atomically-replaced bundle snapshot.
//!
//! Determinism note: response payloads are bit-identical to direct
//! library calls (the e2e test pins this) — computing scores once and
//! caching change *when* work happens, never *what* is computed.

#[cfg(not(target_os = "linux"))]
compile_error!("privim-serve is Linux only: its front end is an epoll reactor");

pub mod bundle;
pub mod cache;
pub mod client;
pub(crate) mod conn;
pub mod http;
pub mod ledger;
pub mod metrics;
pub(crate) mod reactor;
pub mod server;
pub mod wal;

pub use bundle::{
    graph_fingerprint, Bundle, PrivacyStatement, BUNDLE_FORMAT, BUNDLE_VERSION,
    MIN_BUNDLE_VERSION,
};
pub use cache::ShardedLru;
pub use ledger::{Admission, LedgerConfig, LedgerState, TenantLedger};
pub use metrics::Metrics;
pub use server::{influence_cache_key, start, DurabilityConfig, ServeConfig, ServerHandle};
pub use wal::{FsyncPolicy, RecoveryReport, WalWriter};
