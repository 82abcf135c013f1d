//! In-memory columnar data substrate for the LTE (Learn-to-Explore) system.
//!
//! Interactive data exploration operates over a tabular database whose
//! attributes are numeric (the paper evaluates on SDSS photometric attributes
//! and used-car listings). This crate provides:
//!
//! * [`Schema`] / [`Attribute`] — attribute names and value domains,
//! * [`Table`] — a columnar store with projection, row access, and sampling,
//! * [`Dataset`] — a named table plus convenience constructors for the two
//!   synthetic benchmark datasets ([`Dataset::sdss`], [`Dataset::car`]),
//! * [`Subspace`] — low-dimensional attribute subsets and the random
//!   decomposition of a user-interest space into 2D subspaces (paper §III-A),
//! * [`sampling`] — random/reservoir sampling used to keep clustering and
//!   preprocessing lightweight (the paper caps sampling ratios at 1%).
//!
//! The real SDSS and eBay CAR datasets are not redistributable here, so
//! [`generator`] produces deterministic synthetic tables whose marginal
//! distributions have the same character (multi-modal peaks for SDSS,
//! smooth skewed trends for CAR).

pub mod csv;
pub mod dataset;
pub mod error;
pub mod generator;
pub mod rng;
pub mod sampling;
pub mod schema;
pub mod stats;
pub mod subspace;
pub mod table;

pub use dataset::Dataset;
pub use error::DataError;
pub use schema::{Attribute, Schema};
pub use subspace::Subspace;
pub use table::{Table, TableBuilder};
