//! # `sparse` — parallel sparse triangular solves
//!
//! One wave executor over a Level or Merged partition, plus the sync-free
//! sweep.
//!
//! The paper's algorithms assume *dense* triangular systems, but most
//! real-world triangular-solve traffic is sparse: applying incomplete
//! factorizations (`ILU`/`IC` preconditioners) inside iterative solvers
//! means solving `L x = b` with an `L` that has a handful of entries per
//! row, thousands of times per run.  This crate opens that workload for the
//! reproduction, following the *level scheduling* literature cited in
//! `PAPERS.md` (Li, *On Parallel Solution of Sparse Triangular Linear
//! Systems in CUDA*; Böhnlein et al., *Efficient Parallel Scheduling for
//! Sparse Triangular Solvers*).
//!
//! The design splits the classical **analyze / solve** phases:
//!
//! * [`SparseTri`] — validated CSR storage for a lower- or upper-triangular
//!   matrix, reusing the dense crate's [`dense::Triangle`] / [`dense::Diag`]
//!   vocabulary, with a densify bridge ([`SparseTri::to_dense`]) to the
//!   dense kernels;
//! * [`Schedule`] — the analysis phase: an O(nnz) pass grouping rows into
//!   dependency *levels* (every row of a level depends only on earlier
//!   levels).  Computed once per matrix and cached
//!   ([`SparseTri::schedule`]), because iterative-solver traffic re-applies
//!   one pattern many times;
//! * [`MergedSchedule`] — the DAG-partitioned companion analysis:
//!   consecutive skinny levels merged into coarse *super-levels*
//!   (cached via [`SparseTri::merged_schedule`]), so deep narrow DAGs pay
//!   one barrier per super-level instead of one per level;
//! * solve executors ([`SparseTri::solve_with`] and its shorthands, the
//!   sequential baseline at one worker, and the
//!   [`SparseTri::solve_via_dense`] fallback) on the `dense::threads`
//!   worker pool (`DENSE_THREADS` workers): **one wave executor** —
//!   barrier-separated waves, each split into one chunk per worker — over
//!   the partition the policy names: the levels under
//!   [`SchedulePolicy::Level`], the super-levels with per-row
//!   point-to-point readiness under [`SchedulePolicy::Merged`]
//!   (auto-chosen from the level-shape statistics and the declared
//!   [`SolveOpts::reuse`], pinnable through [`SolveOpts::policy`]) —
//!   **bitwise identical** at every worker count and under either partition;
//! * [`SparseTriCsc`] — validated CSC storage (the cached
//!   [`SparseTri::csc`] mirror) and the **sync-free** executor behind
//!   [`SchedulePolicy::SyncFree`]: an analysis-free column sweep with
//!   per-row atomic in-degree counters, zero levels and zero barriers —
//!   the one-shot-solve fast path, bitwise reproducible per fixed worker
//!   count (not across worker counts; see [`csc`] for the caveat);
//! * [`gen`] — seeded generators for tests and benches.
//!
//! Every solve reports a [`dense::FlopCount`] under the dense crate's
//! conventions, so sparse applies charge the simulated machine's `γ·F`
//! term consistently with the dense kernels.
//!
//! ## Quick example
//!
//! ```
//! use sparse::{gen, SolveOpts};
//! let l = gen::random_lower(1000, 8, 42);
//! let b = gen::rhs_vec(1000, 7);
//! let sched = l.schedule();                      // analyze once, O(nnz)
//! assert!(sched.num_levels() < 1000);            // level compression
//! let mut x = b.clone();
//! l.solve_with(&SolveOpts::new().threads(4), &mut x).unwrap(); // level-parallel
//! let mut x1 = b.clone();
//! l.solve_with(&SolveOpts::new().threads(1), &mut x1).unwrap();
//! assert_eq!(x, x1);                             // bitwise identical
//! assert_eq!(l.analysis_count(), 1);             // schedule reused, not re-run
//! let mut xt = b.clone();
//! l.solve_with(&SolveOpts::new().transposed(), &mut xt).unwrap(); // Lᵀ·x = b
//! ```

pub mod csc;
pub mod csr;
pub mod error;
pub mod gen;
pub mod schedule;
pub mod solve;

pub use csc::SparseTriCsc;
pub use csr::SparseTri;
pub use error::SparseError;
pub use schedule::{MergedSchedule, Schedule, SchedulePolicy, ANALYZE_REUSE_MIN, SUPER_MIN_WEIGHT};
pub use solve::{ExecutionShape, SolveOpts, PAR_MIN_WORK};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
