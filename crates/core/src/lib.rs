//! # lc-core — MSCN, the multi-set convolutional network
//!
//! The paper's contribution (§3): a deep-learning cardinality estimator
//! whose architecture mirrors the *set* structure of a relational query.
//! A query `(T_q, J_q, P_q)` is featurized as three sets of fixed-width
//! vectors; each set is processed by a per-element two-layer MLP with
//! shared weights, masked-averaged into one representation per set,
//! concatenated, and passed through a final output MLP with a sigmoid:
//!
//! ```text
//! w_T = 1/|T_q| Σ_t MLP_T(v_t)      w_J = 1/|J_q| Σ_j MLP_J(v_j)
//! w_P = 1/|P_q| Σ_p MLP_P(v_p)      w_out = MLP_out([w_T, w_J, w_P])
//! ```
//!
//! Targets are log-cardinalities min/max-normalized to `[0,1]`; training
//! minimizes the mean q-error with Adam (§3.2).
//!
//! Modules:
//! * [`featurize`] — §3.1 query featurization with the three §3.4 sample
//!   feature modes ([`FeatureMode`]): no samples, qualifying-sample counts,
//!   qualifying-sample bitmaps;
//! * [`batch`] — ragged mini-batches with masked segment-mean pooling
//!   (mathematically identical to the paper's zero-padding + masking, but
//!   without wasted FLOPs);
//! * [`estimator`] — the unified, object-safe [`Estimator`] trait: named
//!   point/batch estimates and uncertainty-qualified batches behind one
//!   seam;
//! * [`model`] — the MSCN network with hand-derived backprop;
//! * [`quant`] — the int8 post-training-quantized mirror of the network
//!   ([`QuantizedMscn`]): quantize-once at publish, cache-resident
//!   serving, same [`Estimator`] seam;
//! * [`train`] — the §3.5 training loop (90/10 split, per-epoch validation
//!   mean q-error — the curve of Fig. 6) plus teacher→student
//!   [`distill`]ation for compact serving models;
//! * [`serialize`] — versioned binary model persistence (the §4.7
//!   "serialized to disk" size measurements).

pub mod batch;
pub mod ensemble;
pub mod estimator;
pub mod featurize;
pub mod model;
pub mod quant;
pub mod serialize;
pub mod train;

pub use batch::RaggedBatch;
pub use ensemble::{DeepEnsemble, UncertainEstimate};
pub use estimator::Estimator;
pub use featurize::{FeatureMode, Featurizer, LabelNorm};
pub use model::{MscnGrads, MscnModel, MscnScratch};
pub use quant::{QuantScratch, QuantizedMscn, QuantizedMscnModel};
pub use train::{
    distill, train, train_incremental, MscnEstimator, TrainConfig, TrainReport, TrainedModel,
};
