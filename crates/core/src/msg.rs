//! The message protocol shared by the three algorithms.
//!
//! Wire sizes are modelled explicitly because the paper's communication
//! measurements hinge on them — in particular, a streamline hand-off carries
//! its accumulated geometry (§8: "Communicating streamline geometry accounts
//! for a large proportion of communication cost").

use serde::{Deserialize, Serialize};
use streamline_field::block::BlockId;
use streamline_integrate::{Streamline, StreamlineId};
use streamline_math::Vec3;

/// A slave's self-description, sent to its master when it runs out of work
/// (and opportunistically as its state changes). §4.3: "This status message
/// includes the set of streamlines owned by each slave, which blocks those
/// streamlines currently intersect, which blocks are currently loaded into
/// memory on that slave, and how many streamlines are currently being
/// integrated."
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlaveStatus {
    /// Streamlines currently advanceable or parked, per block.
    pub queued_by_block: Vec<(BlockId, u32)>,
    /// Blocks resident in the slave's cache.
    pub loaded: Vec<BlockId>,
    /// Streamlines currently being integrated (active on this slave).
    pub active: u32,
    /// Cumulative count of streamlines this slave has terminated.
    pub terminated_total: u64,
    /// The slave can do no more work without instruction.
    pub out_of_work: bool,
    /// Cumulative count of master commands this slave has processed. The
    /// master uses it to discard statuses that predate in-flight commands —
    /// without it, a crossed-in-flight status makes the master forget what
    /// it just ordered and re-issue the same command indefinitely.
    pub acked_cmds: u64,
    /// Blocks this slave could not load (retries exhausted), cumulative and
    /// sorted. The master quarantines them so it stops scheduling work that
    /// can never run. Like `terminated_total`, this field is monotone and
    /// safe to fold in even from stale statuses.
    pub failed_blocks: Vec<BlockId>,
}

impl SlaveStatus {
    pub fn wire_bytes(&self) -> usize {
        32 + self.queued_by_block.len() * 8 + (self.loaded.len() + self.failed_blocks.len()) * 4
    }
}

/// A master's instruction to a slave (the five rules of §4.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// Assign-loaded / Assign-unloaded: N seed points in one block. The
    /// slave loads the block if it is not resident.
    AssignSeeds { block: BlockId, seeds: Vec<(StreamlineId, Vec3)> },
    /// Send-force: send your streamlines parked in `block` to slave rank
    /// `to`.
    SendForce { block: BlockId, to: usize },
    /// Send-hint: when appropriate, offload streamlines parked in `blocks`
    /// to slave rank `to`; ignore if nothing applies.
    SendHint { blocks: Vec<BlockId>, to: usize },
    /// Load `block` into the cache.
    Load { block: BlockId },
    /// All streamlines everywhere have terminated.
    Terminate,
}

impl Command {
    pub fn wire_bytes(&self) -> usize {
        match self {
            Command::AssignSeeds { seeds, .. } => 16 + seeds.len() * 28,
            Command::SendForce { .. } => 16,
            Command::SendHint { blocks, .. } => 16 + blocks.len() * 4,
            Command::Load { .. } => 12,
            Command::Terminate => 8,
        }
    }
}

/// Every message any algorithm sends.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Msg {
    /// A streamline moving between ranks (Static Allocation hand-off and
    /// Hybrid Send-force/Send-hint migration).
    Handoff { sl: Box<Streamline> },
    /// Static Allocation: `count` more streamlines terminated (sent to the
    /// count rank, which maintains the "globally communicated streamline
    /// count" of §4.1). `by_epoch` splits the same count per ingest epoch
    /// for the frontier ledger; empty (and free on the wire) means
    /// "all in epoch 0" — exactly what every closed run sends, so closed
    /// traffic costs what it always did and old checkpoints still load.
    CountDelta {
        count: u32,
        #[serde(default)]
        by_epoch: Vec<(u32, u32)>,
    },
    /// Hybrid: slave → master status.
    Status(SlaveStatus),
    /// Hybrid: master → slave instruction.
    Command(Command),
    /// Hybrid: master → master, this master's group has `remaining`
    /// unfinished streamlines. `extra_ingested` counts ingest epochs this
    /// master has observed beyond the base set (0 for closed runs — the
    /// serde default, keeping old checkpoints loadable), and `by_epoch`
    /// carries cumulative per-epoch terminated counts for the frontier
    /// detector (empty, and free on the wire, for closed runs).
    GroupRemaining {
        remaining: u64,
        #[serde(default)]
        extra_ingested: u32,
        #[serde(default)]
        by_epoch: Vec<(u32, u64)>,
    },
    /// A rank exceeded its memory budget; the run is aborted.
    OutOfMemory { rank: usize },
    /// Work stealing: diffusive load report to a lifeline neighbor (parked
    /// streamline count at the sender).
    LoadReport { load: u32 },
    /// Work stealing: an idle rank asks a neighbor for a batch of work.
    StealRequest,
    /// Work stealing: granted streamlines, each tagged with the block it is
    /// parked on (empty = refusal). Like `Handoff`, the modelled cost is
    /// dominated by the accumulated geometry of the migrated curves.
    WorkTransfer { sls: Vec<(BlockId, Streamline)> },
    /// Work stealing: the Safra termination token circulating the ring of
    /// `j = 0` lifeline edges (in-flight message balance + dirty bit).
    /// `dead` gossips the sender's view of failed ranks so every survivor
    /// folds the same membership into its balance; empty (and free on the
    /// wire) in fault-free runs — `#[serde(default)]` keeps old checkpoints
    /// loadable.
    TermToken {
        count: i64,
        black: bool,
        #[serde(default)]
        dead: Vec<u32>,
        /// Folded minimum, over the ranks the token has visited this round,
        /// of ingest epochs observed beyond the base set. The initiator may
        /// declare global termination only when this reaches the plan's
        /// epoch count minus one — the frontier generalization of the Safra
        /// condition. 0 for closed runs (the serde default), so old
        /// checkpoints still load and closed tokens are unchanged.
        #[serde(default)]
        extra_ingested: u32,
    },
    /// Liveness heartbeat (resilient mode only). Carries nothing: its
    /// arrival is the proof of life.
    Beat,
    /// Hybrid: master → slave liveness heartbeat (any command also counts
    /// as proof of life; this fills the gaps between commands).
    MasterBeat,
    /// Open-loop seed ingestion: a batch of seeds of ingest epoch `epoch`
    /// arriving from outside the cluster at a scheduled virtual time
    /// (delivered self-addressed by the simulation's arrival queue, so it
    /// carries no modelled inter-rank wire cost). An empty batch still
    /// advances the receiver's ingest epoch count — the frontier cannot
    /// pass an epoch a rank has not observed.
    Ingest { epoch: u32, seeds: Vec<(StreamlineId, Vec3)> },
}

impl Msg {
    /// Modelled wire size. `comm_geometry` selects whether hand-offs carry
    /// full geometry (the paper's measured configuration) or solver state
    /// only (§8's proposed optimization).
    pub fn wire_bytes(&self, comm_geometry: bool) -> usize {
        match self {
            Msg::Handoff { sl } => {
                if comm_geometry {
                    sl.comm_bytes_full()
                } else {
                    Streamline::COMM_BYTES_STATE
                }
            }
            // 12 bytes exactly when `by_epoch` is empty (closed runs);
            // open runs pay 8 bytes per epoch entry.
            Msg::CountDelta { by_epoch, .. } => 12 + by_epoch.len() * 8,
            Msg::Status(s) => s.wire_bytes(),
            Msg::Command(c) => c.wire_bytes(),
            // 16 bytes exactly for closed runs (empty `by_epoch`); the
            // `extra_ingested` word rides in the existing header padding.
            Msg::GroupRemaining { by_epoch, .. } => 16 + by_epoch.len() * 12,
            Msg::OutOfMemory { .. } => 12,
            Msg::LoadReport { .. } => 12,
            Msg::StealRequest => 8,
            Msg::WorkTransfer { sls } => {
                let per_sl = |sl: &Streamline| {
                    if comm_geometry {
                        sl.comm_bytes_full()
                    } else {
                        Streamline::COMM_BYTES_STATE
                    }
                };
                8 + sls.iter().map(|(_, sl)| 4 + per_sl(sl)).sum::<usize>()
            }
            // 24 bytes exactly when `dead` is empty, so fault-free token
            // traffic costs what it always did; `extra_ingested` rides in
            // the existing padding (it is 0 on every closed run anyway).
            Msg::TermToken { dead, .. } => 24 + dead.len() * 4,
            // The modelled beat frame; rank-chaos byte totals depend on it.
            Msg::Beat => 9,
            Msg::MasterBeat => 8,
            Msg::Ingest { seeds, .. } => 12 + seeds.len() * 28,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handoff_size_depends_on_geometry_flag() {
        let mut sl = Streamline::new(StreamlineId(1), Vec3::ZERO, 0.01);
        for i in 0..100 {
            sl.push_step(Vec3::splat(i as f64), 0.01);
        }
        let m = Msg::Handoff { sl: Box::new(sl) };
        let full = m.wire_bytes(true);
        let lean = m.wire_bytes(false);
        assert!(full > lean + 100 * 24 - 1);
        assert_eq!(lean, Streamline::COMM_BYTES_STATE);
    }

    #[test]
    fn status_size_scales_with_contents() {
        let small = SlaveStatus {
            queued_by_block: vec![],
            loaded: vec![],
            active: 0,
            terminated_total: 0,
            out_of_work: true,
            acked_cmds: 0,
            failed_blocks: vec![],
        };
        let big = SlaveStatus {
            queued_by_block: (0..10).map(|i| (BlockId(i), 5)).collect(),
            loaded: (0..8).map(BlockId).collect(),
            active: 3,
            terminated_total: 9,
            out_of_work: false,
            acked_cmds: 0,
            failed_blocks: vec![BlockId(7)],
        };
        assert!(big.wire_bytes() > small.wire_bytes());
        // Reporting failed blocks costs wire bytes like loaded blocks do.
        let mut with_failure = small.clone();
        with_failure.failed_blocks = vec![BlockId(3)];
        assert_eq!(with_failure.wire_bytes(), small.wire_bytes() + 4);
    }

    #[test]
    fn steal_message_sizes() {
        assert_eq!(Msg::StealRequest.wire_bytes(true), 8);
        assert_eq!(Msg::LoadReport { load: 9 }.wire_bytes(true), 12);
        assert_eq!(
            Msg::TermToken { count: -3, black: true, dead: vec![], extra_ingested: 0 }
                .wire_bytes(true),
            24,
            "fault-free tokens must cost what they always did"
        );
        assert_eq!(
            Msg::TermToken { count: 0, black: false, dead: vec![1, 5], extra_ingested: 0 }
                .wire_bytes(true),
            32
        );
        assert_eq!(Msg::Beat.wire_bytes(true), 9);
        assert_eq!(Msg::MasterBeat.wire_bytes(true), 8);
        // A transfer is a refusal when empty, and costs geometry otherwise.
        assert_eq!(Msg::WorkTransfer { sls: vec![] }.wire_bytes(true), 8);
        let mut sl = Streamline::new(StreamlineId(1), Vec3::ZERO, 0.01);
        for i in 0..50 {
            sl.push_step(Vec3::splat(i as f64), 0.01);
        }
        let full = sl.comm_bytes_full();
        let m = Msg::WorkTransfer { sls: vec![(BlockId(3), sl)] };
        assert_eq!(m.wire_bytes(true), 8 + 4 + full);
        assert_eq!(m.wire_bytes(false), 8 + 4 + Streamline::COMM_BYTES_STATE);
    }

    #[test]
    fn closed_run_messages_cost_what_they_always_did() {
        // The open-loop fields default to their closed-run values and add
        // zero wire bytes there — the invariant that keeps closed schedules
        // bit-identical to the paper's count.
        assert_eq!(Msg::CountDelta { count: 5, by_epoch: vec![] }.wire_bytes(true), 12);
        assert_eq!(
            Msg::CountDelta { count: 5, by_epoch: vec![(0, 2), (1, 3)] }.wire_bytes(true),
            12 + 16
        );
        let closed = Msg::GroupRemaining { remaining: 9, extra_ingested: 0, by_epoch: vec![] };
        assert_eq!(closed.wire_bytes(true), 16);
        let open = Msg::GroupRemaining { remaining: 9, extra_ingested: 2, by_epoch: vec![(1, 4)] };
        assert_eq!(open.wire_bytes(true), 28);
        // Old-format messages (without the new fields) still deserialize.
        let legacy: Msg = serde_json::from_str(r#"{"CountDelta":{"count":3}}"#).unwrap();
        assert_eq!(legacy, Msg::CountDelta { count: 3, by_epoch: vec![] });
        let legacy: Msg =
            serde_json::from_str(r#"{"TermToken":{"count":-1,"black":false}}"#).unwrap();
        assert_eq!(
            legacy,
            Msg::TermToken { count: -1, black: false, dead: vec![], extra_ingested: 0 }
        );
        let legacy: Msg = serde_json::from_str(r#"{"GroupRemaining":{"remaining":7}}"#).unwrap();
        assert_eq!(
            legacy,
            Msg::GroupRemaining { remaining: 7, extra_ingested: 0, by_epoch: vec![] }
        );
    }

    #[test]
    fn ingest_size_scales_with_batch() {
        assert_eq!(Msg::Ingest { epoch: 1, seeds: vec![] }.wire_bytes(true), 12);
        let seeds = (0..4).map(|i| (StreamlineId(i), Vec3::ZERO)).collect();
        assert_eq!(Msg::Ingest { epoch: 1, seeds }.wire_bytes(true), 12 + 4 * 28);
    }

    #[test]
    fn command_sizes() {
        let assign = Command::AssignSeeds {
            block: BlockId(0),
            seeds: (0..10).map(|i| (StreamlineId(i), Vec3::ZERO)).collect(),
        };
        assert_eq!(assign.wire_bytes(), 16 + 280);
        assert!(Command::Terminate.wire_bytes() < assign.wire_bytes());
    }
}
