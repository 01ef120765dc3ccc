//! Exact cycle-loss attribution: the [`StallCause`] taxonomy and the
//! per-layer [`LossLedger`].
//!
//! The paper's evaluation argument (Fig. 15 / Table 3) is about *where
//! utilization goes* — every lost PE-cycle has a reason. This module
//! makes that reason first-class: each [`crate::cycles::CycleEvent`]
//! carries a [`StallCause`], and [`LossLedger::from_timeline`] folds a
//! layer's event stream into per-cause lost-PE-cycle totals with a
//! hard exactness invariant:
//!
//! ```text
//! busy_pe_cycles + Σ attributed_lost == total_cycles × pe_count
//! ```
//!
//! There is no "unattributed" bucket: a ledger either balances
//! ([`LossLedger::is_exact`]) or the emitting simulator has a bug —
//! flexcheck rule `FXC09 attribution-exactness` turns an unbalanced
//! ledger into a gating diagnostic.

use crate::cycles::LayerTimeline;
use crate::metrics::Registry;
use std::fmt;

/// Why PE-cycles were lost. One variant per mechanism the four
/// simulators can lose utilization to; the emitters attach the cause at
/// the exact point the loss is scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// Pipeline ramp-in: operand preload and adder-tree depth before
    /// the first writeback (FlexFlow's one-off layer fill, the leading
    /// half of a systolic pass's chain bubble).
    PipelineFill,
    /// Pipeline ramp-out: accumulators still in flight after the last
    /// input streamed (the trailing half of a systolic chain bubble).
    PipelineDrain,
    /// Workload dimensions that do not divide the engine's: edge
    /// spatial tiles, clamped output-map lanes, partially filled
    /// m-groups.
    EdgeFragmentation,
    /// Adder-tree input ports that cannot all be fed this pass (Tiling
    /// edge n-tiles feed only `Tn_eff` of `Tn` lanes; FlexFlow row-port
    /// conflicts are statically excluded by flexcheck FXC03, so its
    /// bucket stays zero).
    AdderTreeContention,
    /// The array waiting on buffer bandwidth to deliver operands
    /// (2D-Mapping's initial window load injects through the array edge
    /// at buffer width).
    BufferBandwidthWait,
    /// Partial-sum spill round-trip: row accumulators written to the
    /// output buffer and read back at a segment boundary (Fig. 13f).
    PsumSpillRoundTrip,
    /// The chosen mapping itself leaves PEs idle even on full tiles
    /// (FlexFlow's `Ur·Uc < D²` unrolling residue, Systolic's `K² <
    /// ak²` array waste).
    MappingResidueIdle,
}

impl StallCause {
    /// Number of causes.
    pub const COUNT: usize = 7;

    /// Every cause, in stable order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::PipelineFill,
        StallCause::PipelineDrain,
        StallCause::EdgeFragmentation,
        StallCause::AdderTreeContention,
        StallCause::BufferBandwidthWait,
        StallCause::PsumSpillRoundTrip,
        StallCause::MappingResidueIdle,
    ];

    /// Stable kebab-case name (used as the Chrome-trace event name and
    /// the metrics `cause` label).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::PipelineFill => "pipeline-fill",
            StallCause::PipelineDrain => "pipeline-drain",
            StallCause::EdgeFragmentation => "edge-fragmentation",
            StallCause::AdderTreeContention => "adder-tree-contention",
            StallCause::BufferBandwidthWait => "buffer-bandwidth-wait",
            StallCause::PsumSpillRoundTrip => "psum-spill",
            StallCause::MappingResidueIdle => "mapping-residue-idle",
        }
    }

    /// Index into [`StallCause::ALL`].
    pub const fn index(self) -> usize {
        match self {
            StallCause::PipelineFill => 0,
            StallCause::PipelineDrain => 1,
            StallCause::EdgeFragmentation => 2,
            StallCause::AdderTreeContention => 3,
            StallCause::BufferBandwidthWait => 4,
            StallCause::PsumSpillRoundTrip => 5,
            StallCause::MappingResidueIdle => 6,
        }
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where one layer's PE-cycles went: busy MACs plus lost cycles split
/// by [`StallCause`], with the exactness identity checkable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LossLedger {
    /// Architecture the layer ran on.
    pub arch: String,
    /// Layer name.
    pub layer: String,
    /// Owning experiment id (empty outside sweeps).
    pub experiment: String,
    /// PEs in the engine (the loss denominator).
    pub pe_count: u32,
    /// Total simulated cycles of the layer.
    pub total_cycles: u64,
    /// Cycles covered by events (== `total_cycles` when the timeline
    /// tiles without gaps — a precondition of exactness).
    pub covered_cycles: u64,
    /// PE-cycles doing useful MACs.
    pub busy_pe_cycles: u64,
    lost: [u64; StallCause::COUNT],
}

impl LossLedger {
    /// Folds a layer timeline into a ledger. Each event contributes its
    /// MACs to `busy_pe_cycles` and its idle remainder
    /// (`cycles × pe_count − macs`) to the event's cause.
    pub fn from_timeline(tl: &LayerTimeline) -> LossLedger {
        let pes = u64::from(tl.ctx.pe_count);
        let mut ledger = LossLedger {
            arch: tl.ctx.arch.clone(),
            layer: tl.ctx.layer.clone(),
            experiment: tl.ctx.experiment.clone(),
            pe_count: tl.ctx.pe_count,
            total_cycles: tl.total_cycles(),
            covered_cycles: 0,
            busy_pe_cycles: 0,
            lost: [0; StallCause::COUNT],
        };
        for ev in &tl.events {
            let pe_cycles = ev.cycles * pes;
            debug_assert!(
                ev.macs <= pe_cycles,
                "{}/{}: event claims {} MACs in {} PE-cycles (flexcheck FXC09 \
                 attribution-exactness)",
                tl.ctx.arch,
                tl.ctx.layer,
                ev.macs,
                pe_cycles,
            );
            ledger.covered_cycles += ev.cycles;
            ledger.busy_pe_cycles += ev.macs;
            ledger.lost[ev.kind.cause().index()] += pe_cycles.saturating_sub(ev.macs);
        }
        ledger
    }

    /// Lost PE-cycles attributed to `cause`.
    pub fn lost(&self, cause: StallCause) -> u64 {
        self.lost[cause.index()]
    }

    /// Sum of all attributed losses.
    pub fn attributed_lost(&self) -> u64 {
        self.lost.iter().sum()
    }

    /// The identity's right-hand side: `total_cycles × pe_count`.
    pub fn total_pe_cycles(&self) -> u64 {
        self.total_cycles * u64::from(self.pe_count)
    }

    /// PE-cycles the identity cannot account for (0 on a balanced
    /// ledger; nonzero means the emitter left gaps, overlapped events,
    /// or under-attributed a loss).
    pub fn unattributed(&self) -> u64 {
        self.total_pe_cycles()
            .abs_diff(self.busy_pe_cycles + self.attributed_lost())
    }

    /// The exactness invariant:
    /// `busy + Σ lost == total_cycles × pe_count` with the events
    /// tiling the timeline exactly.
    pub fn is_exact(&self) -> bool {
        self.covered_cycles == self.total_cycles && self.unattributed() == 0
    }

    /// Nonzero causes, largest loss first (ties broken by taxonomy
    /// order, so output is deterministic).
    pub fn top_causes(&self) -> Vec<(StallCause, u64)> {
        let mut causes: Vec<(StallCause, u64)> = StallCause::ALL
            .iter()
            .map(|&c| (c, self.lost(c)))
            .filter(|&(_, lost)| lost > 0)
            .collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        causes
    }

    /// Folds another ledger of the same architecture into this one
    /// (network-level aggregation).
    pub fn absorb(&mut self, other: &LossLedger) {
        self.total_cycles += other.total_cycles;
        self.covered_cycles += other.covered_cycles;
        self.busy_pe_cycles += other.busy_pe_cycles;
        for cause in StallCause::ALL {
            self.lost[cause.index()] += other.lost(cause);
        }
    }

    /// Mirrors the ledger into a metrics registry:
    /// `sim_busy_pe_cycles{arch}` plus one
    /// `sim_lost_pe_cycles{arch, cause}` counter per nonzero cause —
    /// the chokepoint keeping `flexsim --metrics` and exported traces
    /// in agreement with the ledger.
    pub fn mirror(&self, registry: &Registry) {
        let arch = self.arch.as_str();
        registry.add("sim_busy_pe_cycles", &[("arch", arch)], self.busy_pe_cycles);
        for (cause, lost) in self.top_causes() {
            registry.add(
                "sim_lost_pe_cycles",
                &[("arch", arch), ("cause", cause.name())],
                lost,
            );
        }
    }
}

/// One ledger per completed layer timeline.
pub fn ledgers(timelines: &[LayerTimeline]) -> Vec<LossLedger> {
    timelines.iter().map(LossLedger::from_timeline).collect()
}

/// The attribution *delta* between two ledgers of the same layer — the
/// tuner's before/after report: which causes recovered lost PE-cycles
/// when the mapping changed, and which got worse.
///
/// A remapping never changes the useful work (`busy_pe_cycles` is the
/// layer's MAC count, a function of the layer shape alone), so a delta
/// is meaningful exactly when both ledgers agree on it —
/// [`LossDelta::between`] asserts that.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LossDelta {
    /// Layer name (shared by both ledgers).
    pub layer: String,
    /// PEs in the engine.
    pub pe_count: u32,
    /// Total cycles under the *before* mapping.
    pub before_cycles: u64,
    /// Total cycles under the *after* mapping.
    pub after_cycles: u64,
    /// PE-cycles doing useful MACs (identical before and after).
    pub busy_pe_cycles: u64,
    before_lost: [u64; StallCause::COUNT],
    after_lost: [u64; StallCause::COUNT],
}

impl LossDelta {
    /// Builds the delta from a *before* and an *after* ledger of the
    /// same layer.
    ///
    /// # Panics
    ///
    /// Panics if the ledgers disagree on the layer name, PE count, or
    /// busy PE-cycles — those would mean the two runs computed
    /// different layers, not the same layer under different mappings.
    pub fn between(before: &LossLedger, after: &LossLedger) -> LossDelta {
        assert_eq!(before.layer, after.layer, "delta across different layers");
        assert_eq!(before.pe_count, after.pe_count, "delta across engines");
        assert_eq!(
            before.busy_pe_cycles, after.busy_pe_cycles,
            "{}: remapping changed the useful work ({} vs {} busy PE-cycles)",
            before.layer, before.busy_pe_cycles, after.busy_pe_cycles,
        );
        LossDelta {
            layer: before.layer.clone(),
            pe_count: before.pe_count,
            before_cycles: before.total_cycles,
            after_cycles: after.total_cycles,
            busy_pe_cycles: before.busy_pe_cycles,
            before_lost: before.lost,
            after_lost: after.lost,
        }
    }

    /// Lost PE-cycles attributed to `cause` under the before mapping.
    pub fn before(&self, cause: StallCause) -> u64 {
        self.before_lost[cause.index()]
    }

    /// Lost PE-cycles attributed to `cause` under the after mapping.
    pub fn after(&self, cause: StallCause) -> u64 {
        self.after_lost[cause.index()]
    }

    /// Total lost PE-cycles under the before mapping, all causes.
    pub fn before_total(&self) -> u64 {
        self.before_lost.iter().sum()
    }

    /// Total lost PE-cycles under the after mapping, all causes.
    pub fn after_total(&self) -> u64 {
        self.after_lost.iter().sum()
    }

    /// PE-cycles recovered from `cause` (negative when the new mapping
    /// loses *more* to this cause — a trade the total must justify).
    pub fn recovered(&self, cause: StallCause) -> i64 {
        self.before(cause) as i64 - self.after(cause) as i64
    }

    /// Net PE-cycles recovered across all causes.
    pub fn total_recovered(&self) -> i64 {
        StallCause::ALL.iter().map(|&c| self.recovered(c)).sum()
    }

    /// Wall-clock cycles saved (negative on a regression).
    pub fn recovered_cycles(&self) -> i64 {
        self.before_cycles as i64 - self.after_cycles as i64
    }

    /// Causes with a nonzero delta, largest recovery first (ties broken
    /// by taxonomy order; regressions sort last).
    pub fn top_recoveries(&self) -> Vec<(StallCause, i64)> {
        let mut causes: Vec<(StallCause, i64)> = StallCause::ALL
            .iter()
            .map(|&c| (c, self.recovered(c)))
            .filter(|&(_, d)| d != 0)
            .collect();
        causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        causes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles::{CycleEvent, CycleEventKind, LayerCtx};

    fn tl(pes: u32, events: Vec<CycleEvent>) -> LayerTimeline {
        LayerTimeline {
            ctx: LayerCtx::new("TestArch", "C1", pes),
            events,
        }
    }

    #[test]
    fn names_and_indices_are_stable() {
        for (i, cause) in StallCause::ALL.iter().enumerate() {
            assert_eq!(cause.index(), i);
        }
        let names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
        assert_eq!(StallCause::PipelineFill.name(), "pipeline-fill");
        assert_eq!(StallCause::PsumSpillRoundTrip.to_string(), "psum-spill");
    }

    #[test]
    fn ledger_balances_a_tiling_timeline() {
        // 4 PEs: fill (8 cycles, all lost), pass (10 cycles, 30 of 40
        // PE-cycles busy), spill (2 cycles, all lost).
        let tl = tl(
            4,
            vec![
                CycleEvent::new(CycleEventKind::Stall(StallCause::PipelineFill), 0, 8, 0),
                CycleEvent::new(
                    CycleEventKind::Pass(StallCause::MappingResidueIdle),
                    8,
                    10,
                    30,
                ),
                CycleEvent::new(
                    CycleEventKind::Stall(StallCause::PsumSpillRoundTrip),
                    18,
                    2,
                    0,
                ),
            ],
        );
        let ledger = LossLedger::from_timeline(&tl);
        assert_eq!(ledger.total_cycles, 20);
        assert_eq!(ledger.busy_pe_cycles, 30);
        assert_eq!(ledger.lost(StallCause::PipelineFill), 32);
        assert_eq!(ledger.lost(StallCause::MappingResidueIdle), 10);
        assert_eq!(ledger.lost(StallCause::PsumSpillRoundTrip), 8);
        assert_eq!(ledger.attributed_lost(), 50);
        assert_eq!(ledger.total_pe_cycles(), 80);
        assert_eq!(ledger.unattributed(), 0);
        assert!(ledger.is_exact());
        assert_eq!(
            ledger.top_causes(),
            vec![
                (StallCause::PipelineFill, 32),
                (StallCause::MappingResidueIdle, 10),
                (StallCause::PsumSpillRoundTrip, 8),
            ]
        );
    }

    #[test]
    fn gapped_timeline_is_not_exact() {
        // An event starting at cycle 5 leaves [0, 5) uncovered.
        let tl = tl(
            2,
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::EdgeFragmentation),
                5,
                10,
                20,
            )],
        );
        let ledger = LossLedger::from_timeline(&tl);
        assert_eq!(ledger.covered_cycles, 10);
        assert_eq!(ledger.total_cycles, 15);
        assert!(!ledger.is_exact());
        assert_eq!(ledger.unattributed(), 10);
    }

    #[test]
    fn absorb_aggregates_layers() {
        let a = LossLedger::from_timeline(&tl(
            2,
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::EdgeFragmentation),
                0,
                10,
                15,
            )],
        ));
        let mut total = a.clone();
        total.absorb(&a);
        assert_eq!(total.total_cycles, 20);
        assert_eq!(total.busy_pe_cycles, 30);
        assert_eq!(total.lost(StallCause::EdgeFragmentation), 10);
        assert!(total.is_exact());
    }

    #[test]
    fn delta_reports_per_cause_recovery() {
        // Before: 20 cycles on 4 PEs — fill 32, residue 10, spill 8
        // lost. After: a better mapping drops the pass to 9 cycles with
        // the same 30 MACs (residue 6) and eliminates the spill.
        let before = LossLedger::from_timeline(&tl(
            4,
            vec![
                CycleEvent::new(CycleEventKind::Stall(StallCause::PipelineFill), 0, 8, 0),
                CycleEvent::new(
                    CycleEventKind::Pass(StallCause::MappingResidueIdle),
                    8,
                    10,
                    30,
                ),
                CycleEvent::new(
                    CycleEventKind::Stall(StallCause::PsumSpillRoundTrip),
                    18,
                    2,
                    0,
                ),
            ],
        ));
        let after = LossLedger::from_timeline(&tl(
            4,
            vec![
                CycleEvent::new(CycleEventKind::Stall(StallCause::PipelineFill), 0, 8, 0),
                CycleEvent::new(
                    CycleEventKind::Pass(StallCause::MappingResidueIdle),
                    8,
                    9,
                    30,
                ),
            ],
        ));
        let delta = LossDelta::between(&before, &after);
        assert_eq!(delta.busy_pe_cycles, 30);
        assert_eq!(delta.before_cycles, 20);
        assert_eq!(delta.after_cycles, 17);
        assert_eq!(delta.recovered_cycles(), 3);
        assert_eq!(delta.recovered(StallCause::PipelineFill), 0);
        assert_eq!(delta.recovered(StallCause::MappingResidueIdle), 4);
        assert_eq!(delta.recovered(StallCause::PsumSpillRoundTrip), 8);
        assert_eq!(delta.total_recovered(), 12);
        // total_recovered == recovered_cycles × pe_count (busy fixed).
        assert_eq!(delta.total_recovered(), delta.recovered_cycles() * 4);
        assert_eq!(
            delta.top_recoveries(),
            vec![
                (StallCause::PsumSpillRoundTrip, 8),
                (StallCause::MappingResidueIdle, 4),
            ]
        );
    }

    #[test]
    fn delta_surfaces_regressions_as_negative() {
        let before = LossLedger::from_timeline(&tl(
            2,
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::MappingResidueIdle),
                0,
                10,
                12,
            )],
        ));
        let after = LossLedger::from_timeline(&tl(
            2,
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::EdgeFragmentation),
                0,
                11,
                12,
            )],
        ));
        let delta = LossDelta::between(&before, &after);
        assert_eq!(delta.recovered(StallCause::MappingResidueIdle), 8);
        assert_eq!(delta.recovered(StallCause::EdgeFragmentation), -10);
        assert_eq!(delta.total_recovered(), -2);
        assert_eq!(delta.recovered_cycles(), -1);
        assert_eq!(
            delta.top_recoveries(),
            vec![
                (StallCause::MappingResidueIdle, 8),
                (StallCause::EdgeFragmentation, -10),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "remapping changed the useful work")]
    fn delta_rejects_mismatched_work() {
        let a = LossLedger::from_timeline(&tl(
            2,
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::MappingResidueIdle),
                0,
                10,
                12,
            )],
        ));
        let b = LossLedger::from_timeline(&tl(
            2,
            vec![CycleEvent::new(
                CycleEventKind::Pass(StallCause::MappingResidueIdle),
                0,
                10,
                13,
            )],
        ));
        let _ = LossDelta::between(&a, &b);
    }

    #[test]
    fn mirror_writes_per_cause_counters() {
        let registry = Registry::new();
        let ledger = LossLedger::from_timeline(&tl(
            4,
            vec![
                CycleEvent::new(
                    CycleEventKind::Stall(StallCause::BufferBandwidthWait),
                    0,
                    5,
                    0,
                ),
                CycleEvent::new(
                    CycleEventKind::Pass(StallCause::AdderTreeContention),
                    5,
                    10,
                    25,
                ),
            ],
        ));
        ledger.mirror(&registry);
        let snap = registry.snapshot();
        assert_eq!(
            snap.total("sim_busy_pe_cycles", &[("arch", "TestArch")]),
            25
        );
        assert_eq!(
            snap.total(
                "sim_lost_pe_cycles",
                &[("arch", "TestArch"), ("cause", "buffer-bandwidth-wait")],
            ),
            20
        );
        assert_eq!(
            snap.total(
                "sim_lost_pe_cycles",
                &[("arch", "TestArch"), ("cause", "adder-tree-contention")],
            ),
            15
        );
    }
}
