//! # mt4g-model — the downstream use cases of MT4G (paper Sec. VI)
//!
//! MT4G's value proposition is that its report feeds other tools. This
//! crate reproduces the three integrations the paper demonstrates, plus
//! the roofline extension it mentions:
//!
//! * [`hongkim`] — the Hong–Kim warp-parallelism performance model
//!   (CWP/MWP, Eqs. 3–4), parameterised directly from an MT4G report
//!   (Sec. VI-A),
//! * [`roofline`] — roofline ceilings and ridge points from MT4G
//!   bandwidths,
//! * [`gpuscout`] — GPUscout-style bottleneck findings joining profiler
//!   counters with topology attributes, and the Fig. 4 memory-graph view
//!   (Sec. VI-B),
//! * [`syssage`] — a sys-sage-style component tree with dynamic MIG
//!   overlays, answering Fig. 5's "what L2 do I actually see?"
//!   (Sec. VI-C).
//!
//! # Paper map
//!
//! | Paper reference | Module |
//! |---|---|
//! | Sec. VI-A, Eqs. (3)–(4) Hong–Kim CWP/MWP | [`hongkim`] |
//! | Sec. VI-B GPUscout integration, Fig. 4 memory graph | [`gpuscout`] |
//! | Sec. VI-C sys-sage integration, Fig. 5 MIG views | [`syssage`] |
//! | Roofline extension from MT4G bandwidths | [`roofline`] |
//!
//! Every model consumes the [`mt4g_core::report::Report`] produced by the
//! discovery suite — including reports reassembled from CI shards with
//! `mt4g merge`, which are byte-identical to single-process runs.

pub mod gpuscout;
pub mod hongkim;
pub mod roofline;
pub mod syssage;

pub use gpuscout::{analyze, Finding, KernelCounters, Severity};
pub use hongkim::{evaluate, AppParams, Bound, GpuParams, ModelOutput};
pub use roofline::Roofline;
pub use syssage::GpuTopology;
