//! Parallel streamline computation — a faithful implementation of
//! Pugmire, Childs, Garth, Ahern & Weber, *Scalable Computation of
//! Streamlines on Very Large Datasets* (SC 2009).
//!
//! Three parallelization strategies over block-decomposed vector fields:
//!
//! * [`static_alloc`] — **Static Allocation** (§4.1): parallelize over
//!   blocks; streamlines are communicated to block owners; minimal I/O.
//! * [`load_on_demand`] — **Load On Demand** (§4.2): parallelize over
//!   streamlines; blocks are LRU-cached per rank; zero communication.
//! * [`hybrid`] — **Hybrid Master/Slave** (§4.3, the paper's contribution):
//!   masters dynamically assign both streamlines and blocks through five
//!   rules, balancing computation, I/O and communication.
//! * [`steal`] — **Work Stealing** (beyond the paper): masterless peer-to-peer
//!   balancing over a lifeline graph with diffusive load reports and a
//!   Safra-style termination token.
//!
//! [`Run`] runs any of them on the deterministic simulated cluster (or
//! real threads) and produces a [`report::RunReport`] carrying the paper's
//! metrics; [`classify`](mod@classify) and [`advisor`] implement the §3.1 problem
//! classification and the §6 selection heuristics.
//!
//! ```
//! use streamline_core::{Algorithm, Run, RunConfig};
//! use streamline_field::dataset::{Dataset, DatasetConfig, Seeding};
//!
//! let mut dcfg = DatasetConfig::tiny();
//! dcfg.blocks_per_axis = [2, 2, 2];
//! let dataset = Dataset::thermal_hydraulics(dcfg);
//! let seeds = dataset.seeds_with_count(Seeding::Sparse, 64);
//! let mut cfg = RunConfig::new(Algorithm::HybridMasterSlave, 4);
//! cfg.limits.max_steps = 200;
//! let report = Run::new(&dataset, &cfg, &seeds).go().unwrap().report;
//! assert_eq!(report.terminated, 64);
//! ```

pub mod advance;
pub mod advisor;
pub mod checkpoint;
pub mod classify;
pub mod config;
pub mod driver;
pub mod hybrid;
pub mod ingest;
pub mod liveness;
pub mod load_on_demand;
pub mod msg;
mod oracle;
pub mod rank;
pub mod report;
pub mod run;
pub mod runstats;
pub mod static_alloc;
pub mod steal;
pub mod termination;
mod testutil;
pub mod workspace;

pub use advisor::{recommend, FlowKnowledge, Recommendation};
pub use checkpoint::{latest_checkpoint, CheckpointOptions};
pub use classify::{classify, ProblemProfile};
pub use config::{
    Algorithm, BatchConfigError, BatchParams, CostModel, HybridParams, MemoryBudget, RankChaos,
    RunConfig, StealConfigError, StealParams,
};
pub use driver::{build_procs, run_simulated_detailed_with_store, AnyProc};
pub use ingest::{EpochMap, IngestEpoch, IngestError, SeedSource};
pub use msg::{Command, Msg, SlaveStatus};
pub use oracle::OracleStats;
pub use report::{RunOutcome, RunReport};
pub use run::{Run, RunError, RunOutput};
pub use runstats::{summarize, StreamlineStats};
pub use static_alloc::StaticPartition;
pub use steal::{lifeline_neighbors, StealProc, StealSnapshot};
pub use termination::FrontierDetector;
pub use workspace::{BlockExit, Workspace};
