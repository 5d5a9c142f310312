//! `kcb-serve` — the snapshot serving engine.
//!
//! A daemon front-end for a warm lab: [`kcb_core::snapshot::Snapshot`]
//! freezes the providers once, then any number of request threads share
//! it through an `Arc` with no locks on the hot path. The crate layers,
//! bottom up:
//!
//! - [`protocol`] — the newline-delimited-JSON wire format: request
//!   parsing, and the reply renderers both serving paths share;
//! - [`engine`] — the bounded queue (admission control: full ⇒ typed
//!   `overloaded` shed), worker threads, and micro-batch grouping into the
//!   batched NN / forest / BERT kernels;
//! - [`metrics`] — the live telemetry plane: pre-resolved lock-free
//!   handles (counters, gauges, log-bucketed latency histograms) into a
//!   [`kcb_obs::live::LiveRegistry`], rendered on demand as Prometheus
//!   text by the `/metrics` HTTP route and the `stats` admin verb;
//! - [`flight`] — the flight recorder: bounded rings of recent and slow
//!   per-request records, dumpable via the `flight` verb and flushed to
//!   JSONL on shutdown and overload transitions;
//! - [`server`] — TCP and Unix-socket listeners, one thread per
//!   connection, cooperative shutdown with a graceful queue drain, and a
//!   minimal HTTP/1.1 GET handler (`/metrics`, `/health`) sniffed on the
//!   same listeners;
//! - [`bench`] — the `repro serve-bench` harness: deterministic seeded
//!   load over real sockets, latency percentiles from the shared live
//!   histograms, and the byte-identity checksum against the serial
//!   reference replay.

pub mod bench;
pub mod engine;
pub mod flight;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use engine::{Engine, EngineConfig, EngineStats};
pub use flight::{FlightConfig, FlightRecord, FlightRecorder};
pub use metrics::Metrics;
pub use protocol::{Op, Request};
pub use server::{Server, ServerConfig};
