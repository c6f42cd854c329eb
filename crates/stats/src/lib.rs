//! # mt4g-stats — statistical substrate for MT4G
//!
//! MT4G's "auto-evaluation" contribution (C3 in the paper) is the automated,
//! outlier-resistant interpretation of raw microbenchmark latencies. This
//! crate implements every statistical building block the paper relies on:
//!
//! * the two-sample **Kolmogorov–Smirnov test** with the critical value of
//!   the paper's Eq. (1) ([`ks`]),
//! * the **geometric-mapping dimensionality reduction** of Eq. (2), due to
//!   Grundy et al., which collapses the per-array-size latency vectors into a
//!   single scalar series ([`reduction`]),
//! * an offline **change-point detection** framework ([`cpd`]) with the K-S
//!   based detector MT4G uses, plus CUSUM, Cramér–von Mises and
//!   penalised-cost detectors (PELT, binary segmentation) that the paper's
//!   Section II-C surveys — these power the CPD ablation benches,
//! * **outlier detection** (median absolute deviation and interquartile
//!   range) used by the size-benchmark workflow step (3) ([`outliers`]),
//! * **descriptive statistics** (mean, p50, p95, standard deviation) reported
//!   for every latency measurement ([`descriptive`]).
//!
//! Everything is `no_std`-agnostic pure Rust over `f64` slices, fully
//! deterministic, and independently unit- and property-tested.
//!
//! # Paper map
//!
//! | Paper reference | Module |
//! |---|---|
//! | Eq. (1), K-S critical value `c(α)·√((n+m)/(n·m))` | [`ks`] |
//! | Eq. (2), geometric-mapping reduction (Grundy et al.) | [`reduction`] |
//! | Sec. II-C change-point detection survey | [`cpd`] (K-S, CUSUM, CvM, PELT, BinSeg) |
//! | Sec. IV-B workflow step (3), outlier removal | [`outliers`] |
//! | Sec. IV-C "average + a set of statistical values" | [`descriptive`] |
//!
//! Like every workspace package, this crate denies `missing_docs`
//! (through `[workspace.lints]` in the root `Cargo.toml`): every public
//! item must carry rustdoc, and `cargo doc --no-deps` is kept
//! warning-free in CI.

pub mod cpd;
pub mod descriptive;
pub mod ks;
pub mod outliers;
pub mod reduction;

pub use cpd::{ChangePoint, ChangePointDetector, KsChangePointDetector};
pub use descriptive::Summary;
pub use ks::{ks_critical_value, ks_statistic, ks_test, KsResult};
pub use reduction::geometric_reduction;
