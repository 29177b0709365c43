//! Analysis and experiment infrastructure for the STEM reproduction.
//!
//! * [`StackDistance`] — per-set LRU stack-distance profiling;
//! * [`CapacityDemandProfiler`] — the §3.1 methodology behind Fig. 1:
//!   per-sampling-period, per-set minimum ways needed to resolve all
//!   conflict misses (relative to a 32-way bound);
//! * [`Scheme`] — the scheme zoo, constructable by name, powering every
//!   experiment binary;
//! * [`RunPlan`] and [`execute`] — the one experiment driver: a scheme,
//!   geometry and warm-up split replayed over a decoded trace through the
//!   bare LLC or the full system, sharded, sampled or restored when the
//!   scheme's [`Caps`] allow, returning MPKI / [`SystemMetrics`];
//! * [`geomean`], [`Table`] — reporting helpers that render the paper's
//!   tables as text.
//!
//! # Examples
//!
//! ```
//! use stem_analysis::{execute, warm_split, RunPlan, Scheme};
//! use stem_sim_core::{CacheGeometry, DecodedTrace};
//! use stem_workloads::BenchmarkProfile;
//!
//! let geom = CacheGeometry::new(64, 4, 64).unwrap();
//! let raw = BenchmarkProfile::by_name("gromacs").unwrap().trace(geom, 20_000);
//! let trace = DecodedTrace::decode(&raw, geom);
//! let plan = RunPlan::new(Scheme::Lru, geom, warm_split(trace.len(), 0.2));
//! let mpki = execute(&plan, &trace).unwrap().mpki;
//! assert!(mpki >= 0.0);
//! ```

mod capacity;
mod classify;
mod mix;
mod mrc;
mod plan;
mod report;
mod scheme;
mod stack_distance;

pub use capacity::{CapacityDemandProfiler, DemandHistogram};
pub use classify::{classify_workload, ClassificationReport};
pub use mix::{run_mix_decoded, MixOutcome};
pub use mrc::MissRateCurve;
pub use plan::{caps, execute, Caps, Fidelity, Route, RunError, RunPlan, RunReport, Start, Target};
pub use report::{geomean, Table};
pub use scheme::{
    build_audited_cache, build_cache, replay_warmed, warm_scheme_snapshot, warm_split, Scheme,
};
pub use stack_distance::StackDistance;

pub use stem_hierarchy::SystemMetrics;
