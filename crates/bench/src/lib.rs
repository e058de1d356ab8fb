//! Figure and table binaries for the G-HBA reproduction.
//!
//! One function per figure or table of the paper's evaluation in
//! [`figures`]; one binary each in `src/bin/` (`fig6` … `fig15`,
//! `tables34`, `table5`, `all_figures`); [`hashing`] is Figure 11's
//! modular-hash placement strawman. Set `GHBA_QUICK=1` for reduced
//! sweep sizes; `golden/` pins the quick battery's output byte for byte.
//! Performance is measured by `benchmark/` at the repo root, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod figures;
pub mod hashing;
