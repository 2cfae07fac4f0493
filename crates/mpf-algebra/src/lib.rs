#![warn(missing_docs)]
//! Extended relational algebra over functional relations, and its executor.
//!
//! This crate implements the operators of Section 2 and Definition 6 of the
//! paper:
//!
//! * **product join** (`⨝*`, Definition 2) — natural join on shared
//!   variables with measures combined by the semiring's multiplicative
//!   operation ([`ops::product_join`]);
//! * **marginalization** (`GroupBy_X` + additive aggregate, Definition 3) —
//!   [`ops::group_by`];
//! * **selection** on variable equality predicates ([`ops::select_eq`]),
//!   used by the restricted-answer and constrained-domain query forms of
//!   Section 3.1;
//! * **product semijoin** (`⋉*`) and **update semijoin** (`⋉`, Definition 6)
//!   — the reduction operators of Belief Propagation
//!   ([`ops::product_semijoin`], [`ops::update_semijoin`]).
//!
//! Every operator takes an [`ExecContext`] — the single carrier of
//! execution state (semiring, optional resource budget, [`ExecStats`]
//! work counters, fault-injection hooks) — so budgets and statistics
//! apply uniformly whether an operator runs inside an executor plan or
//! standalone (as the inference layer's message-passing algorithms do).
//!
//! Logical plans ([`Plan`]) are trees of these operators. The [`Executor`]
//! lowers a logical plan to a [`PhysicalPlan`] (per-operator algorithm
//! choices) and evaluates the physical plan against a
//! [`RelationProvider`], reporting [`ExecStats`] — deterministic work
//! counters (rows and simulated page IO) that the experiment harnesses
//! use alongside wall-clock time.

pub mod config;
mod context;
mod error;
mod exec;
pub mod dense;
pub mod fault;
pub mod limits;
pub mod metrics;
pub mod ops;
mod physical;
pub mod partitioned;
mod plan;
mod provider;
pub mod sort_ops;
pub mod sparse;
mod stats;
pub mod trace;

pub use config::{ConfigError, EnvKnobs};
pub use context::ExecContext;
pub use error::AlgebraError;
pub use exec::Executor;
pub use limits::{BudgetLease, BudgetPool, CancelToken, ExecBudget, ExecLimits, OpGuard, ResourceKind};
pub use metrics::MetricsRegistry;
pub use physical::{AggAlgo, JoinAlgo, PhysicalPlan};
pub use plan::{Plan, MAX_PLAN_DEPTH};
pub use provider::{Overlay, RelationProvider, RelationStore};
pub use sparse::ReprMode;
pub use stats::ExecStats;
pub use trace::{OpRepr, SpanKind, TraceLevel, TraceSpan, TraceTree};

/// Result alias for algebra operations.
pub type Result<T> = std::result::Result<T, AlgebraError>;
