//! Shared harness for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (`cargo run --release -p bench --bin
//! table3_accuracy`, …). The binaries share three things:
//!
//! * [`cache`] — expensive dataset simulations (M-sampled runs for
//!   minutes) are built once and their query logs cached as TSV under
//!   `bench-cache/` at the workspace root;
//! * [`harness`] — the standard world, dataset loaders, and the
//!   classification-series runner reused across longitudinal figures;
//! * [`table`] — plain-text table/series printers so every binary's
//!   output reads like the paper's artifact.
//!
//! Performance is measured elsewhere, by the repository's one bench
//! mechanism: `bash benchmark/run.sh` (see `benchmark/README.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod harness;
pub mod table;

pub use harness::{classification_series, load_dataset, standard_world};
