//! Stand-in for `serde`: the two trait names, and under the `derive`
//! feature the (no-op) derive macros of the same names, which is all
//! `use serde::{Deserialize, Serialize};` plus `#[derive(..)]` needs.

/// Marker for serializable types (never implemented by the no-op derive).
pub trait Serialize {}

/// Marker for deserializable types (never implemented by the no-op derive).
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
