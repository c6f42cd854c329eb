//! The serve subsystem: a long-running discovery daemon built on the
//! [`suite`](crate::suite) job layer.
//!
//! Batch discovery answers one cell per process. The serve path amortizes
//! process and cache state across many requests: a daemon (`mt4g serve`)
//! reads line-delimited JSON requests from stdin, answers on stdout, and
//! keeps a content-addressed cache of canonical result bytes so repeated
//! cells are answered in microseconds instead of seconds. The layering:
//!
//! * [`protocol`] — the wire types ([`Request`], [`Response`], stable
//!   error codes) and their validation into
//!   [`JobSpec`](crate::suite::JobSpec)s;
//! * [`cache`] — the content-addressed, LRU-bounded [`ResultCache`],
//!   keyed on the job's cell descriptor (preset × scenario × selection ×
//!   plan fingerprint), with collision verification so a hit can never
//!   serve another cell's bytes;
//! * [`queue`] — the [`ServeEngine`]: bounded admission, a worker pool
//!   over the existing per-unit executor, and the response channel.
//!
//! The safety argument for serving cached bytes is the suite's
//! byte-determinism invariant: a cell's plan fingerprint encodes
//! everything that can influence output bytes, so a cache hit is
//! indistinguishable from a recompute — a property the integration tests
//! assert byte-for-byte.

pub mod cache;
pub mod protocol;
pub mod queue;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use protocol::{parse_request, salvage_id, ErrorBody, Request, Response, ServeStats};
pub use queue::{Flow, ServeEngine, ServeOptions};
