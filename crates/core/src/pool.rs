//! Re-export of the shared worker pool.
//!
//! The pool implementation lives in [`htm_sim::pool`], the lowest layer
//! every binary and tool already depends on, so there is one thread budget
//! for the whole process. This module keeps the historical
//! `crate::pool::WorkerPool` paths working.

pub use htm_sim::pool::{Scope, WorkerPool};
