//! `lmds-serve` — the solver-as-a-service daemon.
//!
//! Every crate below this one answers "can we compute it?"; this crate
//! answers "can we *serve* it?". It wraps the [`lmds_api`] solver
//! registry in a long-running HTTP daemon with three layers:
//!
//! 1. **A named-graph corpus** ([`corpus`]): upload a graph once — as a
//!    text edge list or a schema-versioned binary CSR snapshot
//!    ([`lmds_graph::io::to_snapshot`]) — and run many solvers against
//!    it by name. With a persistence directory, the corpus survives
//!    restarts. Stored graphs are *mutable*: `PATCH /graphs/{name}`
//!    applies an atomic edge-update batch
//!    ([`lmds_graph::dynamic::DynamicGraph`]), and a follow-up
//!    centralized `mds/algorithm1` solve re-runs the pipeline only on
//!    the components the patch touched — unchanged components stitch
//!    from a server-wide [`lmds_core::DynamicSolver`] cache (the
//!    `components_reused` metric counts the wins).
//! 2. **A bounded job queue** ([`queue`]): a fixed pool of worker
//!    threads (warm per-thread `Scratch`/cut-sweep/`ExactEngine`
//!    pools) drains a bounded FIFO. Full queue ⟹ HTTP 429; per-job
//!    timeouts; typed failure states pollable via `GET /jobs/{id}`. A
//!    background reaper sweeps terminal jobs after a retention window
//!    (absent ids answer 404 never-issued vs 410 expired), so the job
//!    table stays bounded under sustained traffic.
//! 3. **A result cache** ([`cache`]): deterministic solvers make exact
//!    memoization sound, so repeated `(graph, solver, config)` solves
//!    are answered from a bounded LRU (entry + byte budgets) without
//!    queueing, and the cache persists beside the corpus snapshots.
//! 4. **Request metrics** ([`metrics`]): lock-free counters and
//!    fixed-bucket latency histograms (p50/p95/p99) per solver, plus
//!    queue/cache/connection gauges, served at `GET /metrics` and
//!    dumped on shutdown.
//!
//! Connections are HTTP/1.1 keep-alive (idle timeout, per-connection
//! request budget) behind a global connection cap that answers `503` +
//! `Retry-After` when saturated.
//!
//! Everything — including the HTTP/1.1 framing ([`http`]) and the JSON
//! codec ([`json`]) — is built on `std` only, in keeping with the
//! workspace's no-external-dependencies rule.
//!
//! # Endpoints
//!
//! | Method & path          | Purpose                                   |
//! |------------------------|-------------------------------------------|
//! | `PUT /graphs/{name}`   | upload a graph (edge list or snapshot)    |
//! | `PATCH /graphs/{name}` | apply an edge-update batch in place       |
//! | `GET /graphs`          | list stored graphs (name, n, m, checksum) |
//! | `GET /graphs/{name}`   | one stored graph's summary                |
//! | `GET /solvers`         | the registry catalog                      |
//! | `POST /solve`          | enqueue + wait (sync); 504 ⟹ poll the job |
//! | `POST /jobs`           | enqueue, return `202` + job id (async)    |
//! | `GET /jobs/{id}`       | job state, solution, or typed error       |
//! | `GET /metrics`         | counters, histograms, queue gauges        |
//! | `GET /healthz`         | liveness (`ok` / `draining`)              |
//! | `POST /admin/shutdown` | begin graceful drain                      |
//!
//! Every error response is the envelope `{"code", "message"}`, plus
//! `"valid_keys"` listing the real alternatives on unknown-solver /
//! unknown-graph 404s.
//!
//! # Example
//!
//! ```
//! use lmds_serve::http;
//! use lmds_serve::server::{ServeConfig, Server};
//! use std::time::Duration;
//!
//! let handle = Server::spawn(ServeConfig::default()).unwrap();
//! let addr = handle.addr();
//! let t = Duration::from_secs(10);
//! http::request(addr, "PUT", "/graphs/p4", b"4 3\n0 1\n1 2\n2 3\n", t).unwrap();
//! let resp = http::request(
//!     addr,
//!     "POST",
//!     "/solve",
//!     br#"{"graph": "p4", "solver": "mds/exact"}"#,
//!     t,
//! )
//! .unwrap();
//! assert_eq!(resp.status, 200);
//! let size = resp.json().get("solution").unwrap().get("size").unwrap().as_u64();
//! assert_eq!(size, Some(2));
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod corpus;
pub mod http;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod server;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use corpus::{CorpusError, CorpusStore, GraphEntry};
pub use metrics::{Gauges, Histogram, Metrics, SolverMetrics};
pub use proto::WireError;
pub use queue::{JobLookup, JobQueue, JobSnapshot, JobSpec, JobState, SubmitError};
pub use server::{ServeConfig, Server, ServerHandle, StartError};
