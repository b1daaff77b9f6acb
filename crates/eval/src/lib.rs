//! # lc-eval — q-error metrics and the experiment harness
//!
//! One module per artifact of the paper's evaluation (§4): every table and
//! figure has a function here that regenerates it against the synthetic
//! IMDb substrate, printing the measured numbers next to the paper's for
//! side-by-side comparison. The `experiments` binary in `lc-bench` drives
//! these.
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 (join distribution) | [`experiments::table1`] |
//! | Figure 3 (box plots, synthetic) | [`experiments::fig3`] |
//! | Table 2 (percentiles, synthetic) | [`experiments::table2`] |
//! | Table 3 (0-tuple situations) | [`experiments::table3`] |
//! | Figure 4 (feature ablation) | [`experiments::fig4`] |
//! | Figure 5 + §4.4 (more joins) | [`experiments::fig5`] |
//! | Table 4 + §4.5 (JOB-light) | [`experiments::table4`] |
//! | §4.6 (hyperparameter grid) | [`experiments::hypergrid`] |
//! | Figure 6 (convergence) | [`experiments::fig6`] |
//! | §4.7 (model costs) | [`experiments::costs`] |
//! | §4.8 (objective ablation) | [`experiments::objectives`] |

pub mod compact;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;

pub use compact::{CompactPoint, CompactionFrontier};
pub use harness::{ExperimentConfig, Harness};
pub use metrics::{qerror, signed_error, QErrorStats};
