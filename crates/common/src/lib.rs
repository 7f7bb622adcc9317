//! Shared primitives for the ChameleMon reproduction.
//!
//! This crate hosts the low-level building blocks that every other crate in
//! the workspace depends on:
//!
//! * [`prime`] — modular arithmetic over the Mersenne prime `p = 2^61 − 1`,
//!   including the Fermat-little-theorem inverse used by FermatSketch's
//!   pure-bucket verification (`f = IDsum · count^(p−2) mod p`).
//! * [`hash`] — a seeded, pairwise-independent hash family
//!   (`h(x) = ((a·x + b) mod p) mod m`) plus a strong 64-bit finalizer, the
//!   software analogue of the CRC-polynomial hash units on a Tofino switch.
//! * [`flowid`] — the [`FlowId`] trait that fragments a flow
//!   identifier into lanes small enough to be encoded in a single IDsum field
//!   (the paper's prototype splits a 104-bit 5-tuple across four 32-bit
//!   counters; we split across two 52-bit fragments under a 61-bit prime).
//! * [`metrics`] — the accuracy metrics of the paper's evaluation (ARE, F1
//!   score, RE, WMRE) in Appendix C.
//!
//! Everything here is deterministic given a seed, so experiments are
//! reproducible run-to-run.

pub mod flowid;
pub mod hash;
pub mod metrics;
pub mod prime;

pub use flowid::{FiveTuple, FlowId};
pub use hash::{mix64, BatchHasher, FastRange, HashFamily, PairwiseHash};
pub use prime::{add_mod, inv_mod, mul_mod, pow_mod, sub_mod, MERSENNE_P};
