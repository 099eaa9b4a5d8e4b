//! Reusable per-thread scratch for round costing — the allocation-free
//! steady state of the sweep loops (DESIGN.md §7h).
//!
//! Profiling a round ([`NetworkModel::round_profile`]) interns directed
//! rail-links into dense solver indices, builds per-flow link lists and
//! runs a contention solve;
//! bounding a round ([`NetworkModel::round_lower_bound`]) accumulates a
//! [`RoundLoad`] histogram. Done naively, every candidate order costed by
//! a sweep re-allocates all of that scratch thousands of times. A
//! [`RoundWorkspace`] owns every one of those buffers and is reused via a
//! thread-local, so after a few warm-up rounds the buffers sit at their
//! high-water marks and the hot loops perform **zero heap allocations**
//! besides the returned profiles (asserted by the counting-allocator test
//! in `crates/bench/tests/costing_kernel.rs`).
//!
//! Reuse is exact, not approximate: interning order, CSR layout, the
//! max-min freezing schedule and the load accumulation depend only on the
//! message sequence, never on buffer history, so workspace-pooled results
//! are **bit-identical** to fresh-buffer results (property-tested).
//!
//! Link interning is hash-free. Every directed rail-link already has an
//! arithmetic id in the model's [`RailLinkTable`], so
//! `LinkStamps` keeps one epoch stamp and one dense slot per id: a link
//! is new to the round when its stamp is stale, and bumping the epoch
//! clears the whole table in O(1). Slots are handed out in first-seen
//! order, so the dense indices depend only on the message sequence.
//!
//! [`RailLinkTable`]: crate::rail::RailLinkTable
//!
//! The thread-local is handed out by `with_thread_local`; re-entrant
//! borrows (a closure that itself profiles a round) fall back to a
//! temporary empty workspace, trading a few allocations for
//! deadlock-freedom.
//!
//! [`NetworkModel::round_profile`]: crate::network::NetworkModel::round_profile
//! [`NetworkModel::round_lower_bound`]: crate::network::NetworkModel::round_lower_bound

use crate::bound::RoundLoad;
use crate::contention::ContentionWorkspace;
use std::cell::RefCell;

/// Epoch-stamped dense interning over the rail-link ids of a
/// [`RailLinkTable`](crate::rail::RailLinkTable).
///
/// `stamp[id] == epoch` marks link `id` as seen in the current pass, and
/// `slot[id]` is then its dense index. [`begin`](Self::begin) starts a
/// pass by bumping the epoch, so nothing is cleared per round.
#[derive(Debug, Default)]
pub(crate) struct LinkStamps {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
}

impl LinkStamps {
    /// Starts a pass over a table of `num_links` ids.
    pub(crate) fn begin(&mut self, num_links: usize) {
        if self.stamp.len() < num_links {
            self.stamp.resize(num_links, 0);
            self.slot.resize(num_links, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: old stamps could alias the new epoch.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// The dense index of link `id`, handing out `next` if the link is
    /// new to this pass.
    #[inline]
    pub(crate) fn intern(&mut self, id: u32, next: usize) -> usize {
        let id = id as usize;
        if self.stamp[id] == self.epoch {
            self.slot[id] as usize
        } else {
            self.stamp[id] = self.epoch;
            self.slot[id] = next as u32;
            next
        }
    }

    /// Marks link `id` seen; true on its first visit in this pass.
    #[inline]
    pub(crate) fn first_visit(&mut self, id: u32) -> bool {
        let id = id as usize;
        let fresh = self.stamp[id] != self.epoch;
        self.stamp[id] = self.epoch;
        fresh
    }
}

/// Every scratch buffer one thread needs to profile and bound rounds:
/// the link stamps, CSR flow lists, solver rates, the contention
/// solver's own workspace and a [`RoundLoad`] accumulator.
///
/// All state is reset on entry to each operation; only capacity survives.
/// Obtain one with [`RoundWorkspace::new`] for explicit pooling, or let
/// the costing entry points use the thread-local via `with_thread_local`.
#[derive(Debug, Default)]
pub struct RoundWorkspace {
    /// Rail-link id → dense link index (profiles) or seen-mark (loads).
    pub(crate) stamps: LinkStamps,
    /// Capacity of each interned link, in interning order.
    pub(crate) capacities: Vec<f64>,
    /// CSR offsets: flow `f`'s links span `flow_links[o[f]..o[f + 1]]`.
    pub(crate) flow_offsets: Vec<usize>,
    /// CSR link indices, all flows concatenated.
    pub(crate) flow_links: Vec<usize>,
    /// Per-flow crossing level (`None` for a self-message).
    pub(crate) crossing: Vec<Option<usize>>,
    /// Solved per-flow rates (output buffer of the contention solve).
    pub(crate) rates: Vec<f64>,
    /// Per-link flow counts (equal-share mode's only scratch).
    pub(crate) counts: Vec<usize>,
    /// The max-min solver's internal buffers.
    pub(crate) contention: ContentionWorkspace,
    /// Reusable [`RoundLoad`] accumulator for bound evaluations
    /// (`None` until the first bound on this thread).
    pub(crate) load: Option<RoundLoad>,
    rounds: u64,
}

impl RoundWorkspace {
    /// An empty workspace; no buffer allocates until first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many rounds have been profiled through this workspace — the
    /// reuse counter the allocation-free acceptance check reads (every
    /// count past the first on a warm workspace reused all buffers).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    pub(crate) fn begin_round(&mut self) {
        self.rounds += 1;
        if mre_core::telemetry::enabled() {
            mre_core::telemetry::counter_add("simnet.workspace.rounds", 1);
        }
    }

    /// Fingerprint of the interned solver input: CSR offsets, dense link
    /// lists, capacity bits and per-flow crossing levels. Two rounds with
    /// equal inputs get bit-identical solves even when their endpoints
    /// differ (a relabelled copy of a round interns to the same input).
    /// A 64-bit hash, like every other cache key.
    pub(crate) fn solver_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.flow_offsets.hash(&mut h);
        self.flow_links.hash(&mut h);
        self.capacities.len().hash(&mut h);
        for c in &self.capacities {
            c.to_bits().hash(&mut h);
        }
        self.crossing.hash(&mut h);
        h.finish()
    }
}

thread_local! {
    static WORKSPACE: RefCell<RoundWorkspace> = RefCell::new(RoundWorkspace::new());
}

/// Runs `f` with this thread's [`RoundWorkspace`].
///
/// The workspace is *moved out* of the thread-local for the duration of
/// `f` (an empty placeholder takes its place), so a re-entrant call from
/// inside `f` sees a fresh temporary workspace instead of panicking on a
/// double borrow; the warmed buffers are put back afterwards. Moving an
/// idle `RoundWorkspace` is a few pointer copies — its buffers are not
/// touched.
pub(crate) fn with_thread_local<R>(f: impl FnOnce(&mut RoundWorkspace) -> R) -> R {
    WORKSPACE.with(|cell| {
        let mut ws = cell.replace(RoundWorkspace::new());
        let out = f(&mut ws);
        cell.replace(ws);
        out
    })
}

/// How many rounds the current thread's workspace has profiled — exposed
/// so harnesses can assert that steady-state costing actually reuses the
/// pooled buffers instead of silently falling back to fresh ones.
pub fn thread_workspace_rounds() -> u64 {
    WORKSPACE.with(|cell| cell.borrow().rounds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{ContentionMode, NetworkModel};
    use crate::schedule::Message;

    fn toy(mode: ContentionMode) -> NetworkModel {
        let h = mre_core::Hierarchy::new(vec![2, 2, 4]).unwrap();
        NetworkModel::new(
            h,
            vec![
                crate::network::LinkParams {
                    uplink_bandwidth: 10.0,
                    crossing_latency: 1e-5,
                },
                crate::network::LinkParams {
                    uplink_bandwidth: 40.0,
                    crossing_latency: 1e-6,
                },
                crate::network::LinkParams {
                    uplink_bandwidth: 100.0,
                    crossing_latency: 1e-7,
                },
            ],
            200.0,
        )
        .with_contention_mode(mode)
    }

    fn cross_round() -> Vec<Message> {
        vec![
            Message::new(0, 8, 1 << 20),
            Message::new(1, 9, 1 << 20),
            Message::new(4, 12, 1 << 20),
            Message::new(2, 2, 1 << 16),
            Message::new(3, 6, 1 << 18),
        ]
    }

    #[test]
    fn reused_workspace_profiles_bit_identically() {
        for mode in [ContentionMode::MaxMinFair, ContentionMode::EqualShare] {
            let net = toy(mode);
            let msgs = cross_round();
            let mut ws = RoundWorkspace::new();
            let fresh = net.round_profile_with(&mut RoundWorkspace::new(), &msgs);
            // Dirty the workspace with unrelated rounds, then re-profile.
            net.round_profile_with(&mut ws, &[Message::new(0, 15, 123)]);
            net.round_profile_with(&mut ws, &[Message::new(5, 5, 7), Message::new(6, 7, 9)]);
            let reused = net.round_profile_with(&mut ws, &msgs);
            assert_eq!(fresh.crossing, reused.crossing);
            assert_eq!(fresh.entries.len(), reused.entries.len());
            for (a, b) in fresh.entries.iter().zip(&reused.entries) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "latency drifted under reuse");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "rate drifted under reuse");
            }
            assert_eq!(ws.rounds(), 3);
        }
    }

    #[test]
    fn thread_local_counter_advances() {
        let net = toy(ContentionMode::MaxMinFair);
        let before = thread_workspace_rounds();
        net.round_profile(&cross_round());
        net.round_profile(&cross_round());
        assert_eq!(thread_workspace_rounds(), before + 2);
    }

    #[test]
    fn reused_load_matches_fresh_bounds() {
        let net = toy(ContentionMode::MaxMinFair);
        let msgs = cross_round();
        let fresh = net.round_lower_bound_from(&net.round_load(&msgs));
        // Dirty the thread-local load with a different round first.
        net.round_lower_bound(&[Message::new(0, 15, 1 << 24)]);
        let reused = net.round_lower_bound(&msgs);
        assert_eq!(fresh.to_bits(), reused.to_bits());
        let fresh_agg = net.round_lower_bound_aggregate_from(&net.round_load(&msgs));
        let reused_agg = net.round_lower_bound_aggregate(&msgs);
        assert_eq!(fresh_agg.to_bits(), reused_agg.to_bits());
    }
}
