#![warn(missing_docs)]

//! BlossomTree evaluation core.
//!
//! This crate implements the evaluation machinery of *BlossomTree:
//! Evaluating XPaths in FLWOR Expressions* (Zhang, Agrawal & Özsu, ICDE
//! 2005):
//!
//! * decomposition of BlossomTrees into interconnected NoK pattern trees
//!   (Algorithm 1) — [`decompose`],
//! * the NestedList abstract data type and its Figure 6 physical
//!   structure — [`nestedlist`], [`nlbuffer`],
//! * NoK pattern matching (Algorithm 2) — [`nok`],
//! * the logical operators π/σ/⋈ — [`ops`],
//! * the physical joins: pipelined //-join, (bounded) nested loops,
//!   TwigStack, binary structural join — [`join`],
//! * the same pipeline projected onto flat node lists for path queries
//!   (existential NoK matching + structural semi-joins) — [`flat`],
//! * FLWORs on flat binding tables with hash and order joins — [`flwor`],
//! * the navigational baseline / oracle — [`navigational`],
//! * strategy selection, the selectivity/cost estimator and the
//!   end-to-end engine — [`plan`], [`cost`], [`engine`],
//! * execution traces, operator counters and `EXPLAIN ANALYZE`-style
//!   profiling — [`obs`].
//!
//! ```
//! use blossom_core::{Engine, Strategy};
//!
//! let engine = Engine::from_xml("<bib><book><title>TAoCP</title></book></bib>").unwrap();
//! let titles = engine.eval_path_str("//book/title", Strategy::Auto).unwrap();
//! assert_eq!(titles.len(), 1);
//! ```

pub mod cost;
pub mod decompose;
pub mod engine;
pub mod env;
pub mod flat;
pub mod flwor;
pub mod join;
pub mod merge;
pub mod navigational;
pub mod nestedlist;
pub mod nlbuffer;
pub mod nok;
pub mod obs;
pub mod ops;
pub mod plan;
pub mod shape;
pub mod stream;
pub mod update;
pub mod value;

pub use decompose::{CutEdge, Decomposition, NokTree};
pub use engine::{CacheStats, Engine, EngineError, EngineOptions, SharedPlanCache};
pub use update::{apply_mutations, UpdateError, UpdatedDoc};
pub use nestedlist::{NestedList, NlNode};
pub use nok::NokMatcher;
pub use obs::{
    EstimateRecord, FallbackEvent, Meter, OpCounters, OpTrace, PhaseTimings, PlanDecision,
    QueryTrace, TraceSink, PROFILE_SCHEMA_VERSION,
};
pub use cost::Estimator;
pub use plan::{ComponentPlan, Plan, Strategy};
pub use shape::{Shape, ShapeId, ShapeNode};
