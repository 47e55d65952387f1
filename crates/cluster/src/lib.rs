//! Sharded multi-replica serving of streamline queries.
//!
//! The paper parallelizes over data: blocks are assigned to ranks and a
//! streamline crossing a block boundary is handed to the rank owning the
//! destination block. The serve crate's [`streamline_serve::engine`]
//! implements that one mechanism for the serving tier: replicas own blocks
//! through a consistent-hash [`Ring`], and a trajectory leaving a replica's
//! shard is parked with the owner as a hand-off whose wire cost is the
//! curve's, geometry and all — exactly the batch drivers' `Msg::Handoff`.
//! A [`streamline_serve::Service`] is that engine with one replica;
//! [`ClusterService`] runs N replicas of one worker and one I/O thread
//! each.
//!
//! What this crate adds is only what N > 1 needs:
//! - **fail-stop replica recovery** — a monitor thread declares a replica
//!   dead `suspect_after` after [`ClusterService::kill_replica`], the router
//!   skips it, and its parked streamlines are re-dispatched intact to ring
//!   successors; in-flight tickets resolve typed, and
//!   `completed + gone == admitted` stays exact;
//! - **hot-block replication** — the monitor keeps the top-k most-accessed
//!   blocks hot, and up to `replication` ring successors may advance them
//!   locally, trading cache residency for hand-off traffic;
//! - **warm-start bootstrap** — [`ClusterService::bootstrap`] prefetches
//!   each replica's shard through the serve crate's warm-start manifests;
//! - the `streamline_cluster_*` metric namespace, aggregate and per replica.
//!
//! Requests, responses, tickets, and errors are the serve crate's own
//! types, and the engine is the same code, so a cluster of one is
//! observationally identical to a single [`streamline_serve::Service`] — a
//! property the integration tests pin down to the bit.

pub mod cluster;

pub use cluster::{ClusterConfig, ClusterMetrics, ClusterService, ReplicaMetrics};
pub use streamline_serve::ring::{self, Ring};

// One-stop re-exports of the serve vocabulary the cluster speaks.
pub use streamline_serve::{Outcome, Request, Response, ServiceGone, SubmitError, Ticket, TryWait};
