#![warn(missing_docs)]
//! # privim-gnn
//!
//! The five GNN architectures of the paper's evaluation (§V-E, Appendix G)
//! implemented on the `privim-tensor` autograd engine:
//!
//! - **GCN** (Eqs. 31–32): degree-normalised aggregation.
//! - **GraphSAGE** (Eqs. 29–30): mean aggregation + concatenation.
//! - **GAT** (Eqs. 33–36): attention normalised over each *target's*
//!   in-edges.
//! - **GRAT** (Eqs. 37–40): attention normalised over each *source's*
//!   out-edges — the paper's default; penalising overlapping coverage is
//!   what makes it the strongest IM model.
//! - **GIN** (Eqs. 41–42): sum aggregation through an MLP with a learnable
//!   self-weight.
//!
//! All models share the same interface: `r` message-passing layers of
//! `hidden` units with ReLU, then a linear readout and sigmoid producing a
//! per-node seed probability (the output the IM loss of Eq. 5 consumes).
//! Each layer is written once (the crate-private `layers` module) and run
//! by three paths: the training tape, dense inference, and the int8
//! serving model ([`QuantGnnModel`]).
//!
//! [`structures::GraphTensors`] holds each graph's message-passing
//! operators (normalised adjacencies, built once on first use, and
//! attention edge lists) so repeated forward passes only pay for the
//! dense math.

pub mod features;
mod layers;
pub mod model;
pub mod quant;
pub mod structures;

pub use features::{node_features, FEATURE_DIM};
pub use model::{GnnConfig, GnnKind, GnnModel};
pub use quant::QuantGnnModel;
pub use structures::GraphTensors;
