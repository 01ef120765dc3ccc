//! Shared plumbing for the baseline simulators, and [`StepGrid`], each
//! baseline's one timing model (DESIGN.md §9).

use flexsim_arch::dram::conv_layer_traffic;
use flexsim_arch::energy::EnergyModel;
use flexsim_arch::stats::{mirror_layer, EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_model::ConvLayer;
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::{Coalescer, CycleEventKind, LayerCtx, SinkHandle};
use flexsim_obs::spatial::{CellRect, HeatmapBuilder, SpatialHandle};
use std::ops::Range;

/// Table 5 on-chip buffer capacity per buffer, in 16-bit words
/// (32 KB each).
pub(crate) const BUFFER_WORDS: u64 = 16 * 1024;

/// Raw outcome of a layer simulation before energy pricing.
#[derive(Clone, Debug, Default)]
pub(crate) struct Outcome {
    pub cycles: u64,
    pub macs: u64,
    pub events: EventCounts,
    pub traffic: Traffic,
}

/// What every baseline carries besides its geometry — its energy model
/// and the attached observers — and the shared tail of `run_conv`.
#[derive(Clone, Debug)]
pub(crate) struct Shared {
    pub energy: EnergyModel,
    pub sink: SinkHandle,
    pub spatial: SpatialHandle,
}

impl Shared {
    /// The Table 5 energy model, no observers attached.
    pub fn new() -> Shared {
        Shared {
            energy: EnergyModel::tsmc65(),
            sink: SinkHandle::none(),
            spatial: SpatialHandle::none(),
        }
    }

    /// Finishes one layer `acc` analyzed into `grid` and `outcome`:
    /// records the grid into whichever observers are attached (the
    /// timeline, and a `heatmap.0 × heatmap.1` heatmap plus the buffer
    /// banks), then charges DRAM traffic and idle PE-cycles and prices
    /// energy into the [`LayerResult`].
    pub fn finish(
        &self,
        acc: &dyn Accelerator,
        layer: &ConvLayer,
        heatmap: (usize, usize),
        (grid, mut outcome): (StepGrid, Outcome),
    ) -> LayerResult {
        let (arch, pe_count) = (acc.name(), acc.pe_count());
        if self.sink.enabled() {
            let ctx = LayerCtx::new(arch, layer.name(), pe_count as u32);
            grid.emit_timeline(&self.sink, &ctx);
        }
        if self.spatial.enabled() {
            let mut hb =
                HeatmapBuilder::new(arch, layer.name(), heatmap.0, heatmap.1, outcome.cycles);
            grid.record_spatial(&mut hb);
            buffer_banks(&mut hb, layer, outcome.cycles);
            self.spatial.record_layer(hb.finish());
        }
        let dram = conv_layer_traffic(layer, BUFFER_WORDS, BUFFER_WORDS);
        outcome.events.dram_reads = dram.reads;
        outcome.events.dram_writes = dram.writes;
        let pe_cycles = outcome.cycles.saturating_mul(pe_count as u64);
        outcome.events.idle_pe_cycles = pe_cycles.saturating_sub(outcome.macs);
        let area_mm2 = acc.area().total_mm2();
        let energy_breakdown = self
            .energy
            .energy(&outcome.events, outcome.cycles, area_mm2);
        let result = LayerResult {
            arch: arch.to_owned(),
            layer: layer.name().to_owned(),
            pe_count,
            clock_ghz: 1.0,
            cycles: outcome.cycles,
            macs: outcome.macs,
            events: outcome.events,
            traffic: outcome.traffic,
            energy: energy_breakdown,
        };
        // Single chokepoint for all three baselines: every produced layer
        // is mirrored into the global metrics registry exactly once.
        mirror_layer(&result);
        result
    }
}

/// Ceiling division.
#[inline]
pub(crate) fn cdiv(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// The extent of one `tile`-wide slice of `total`: `tile`, or what
/// remains of `total` for the last slice.
pub(crate) fn extent(total: usize, tile: usize, last: bool) -> usize {
    if last {
        total - (cdiv(total, tile) - 1) * tile
    } else {
        tile
    }
}

/// What every step of one class costs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct StepClass {
    /// Whole-array stalls per step, as `(cause, cycles)`.
    pub stalls: Vec<(StallCause, u64)>,
    /// The residue cause of the step's compute pass.
    pub cause: StallCause,
    /// Compute-pass cycles per step.
    pub pass_cycles: u64,
    /// Useful MACs per step.
    pub macs: u64,
    /// The PE cells active during the pass.
    pub rects: Vec<CellRect>,
}

/// A layer's schedule as a `rows × cols` raster of steps, walked row by
/// row. Only the last row and column can be clamped, so one
/// [`StepClass`] per position kind covers a rectangle of the raster:
/// interior, last column, last row, corner (index
/// `2·last_row + last_col`).
#[derive(Clone, Debug)]
pub(crate) struct StepGrid {
    rows: u64,
    cols: u64,
    classes: [StepClass; 4],
}

impl StepGrid {
    /// A `rows × cols` grid whose step at (last row?, last column?) costs
    /// `class(last_row, last_col)`.
    pub fn new(rows: usize, cols: usize, class: impl Fn(bool, bool) -> StepClass) -> StepGrid {
        StepGrid {
            rows: rows as u64,
            cols: cols as u64,
            classes: [
                class(false, false),
                class(false, true),
                class(true, false),
                class(true, true),
            ],
        }
    }

    /// Total steps, `rows × cols`.
    pub fn steps(&self) -> u64 {
        self.rows * self.cols
    }

    /// The `(rows, cols)` rectangle of the raster class `idx` covers.
    fn shape(&self, idx: usize) -> (u64, u64) {
        let rows = if idx & 2 != 0 { 1 } else { self.rows - 1 };
        let cols = if idx & 1 != 0 { 1 } else { self.cols - 1 };
        (rows, cols)
    }

    /// Steps of each class among the raster positions `steps`, in O(1).
    fn counts(&self, steps: Range<u64>) -> [u64; 4] {
        let (a, b) = (steps.start, steps.end);
        let last_row_start = (self.rows - 1) * self.cols;
        let in_last_row = b.saturating_sub(a.max(last_row_start));
        let in_last_col = b / self.cols - a / self.cols;
        let corner = u64::from(steps.contains(&(self.steps() - 1)));
        [
            (b - a) + corner - in_last_row - in_last_col,
            in_last_col - corner,
            in_last_row - corner,
            corner,
        ]
    }

    /// Sums `f` over every step (`f` sees the step's class).
    pub fn sum(&self, f: impl Fn(&StepClass) -> u64) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .map(|(idx, class)| {
                let (rows, cols) = self.shape(idx);
                rows * cols * f(class)
            })
            .sum()
    }

    /// The layer's total cycles.
    pub fn cycles(&self) -> u64 {
        self.sum(|c| c.stalls.iter().map(|&(_, n)| n).sum::<u64>() + c.pass_cycles)
    }

    /// Emits the layer's cycle timeline into `sink`: one grid step per
    /// [`Coalescer`] step, each flush group's steps counted per class in
    /// closed form, so recording costs O(flush groups), not O(steps).
    pub fn emit_timeline(&self, sink: &SinkHandle, ctx: &LayerCtx) {
        sink.begin_layer(ctx);
        let mut co = Coalescer::new(sink, self.steps());
        for steps in co.groups() {
            for (class, n) in self.classes.iter().zip(self.counts(steps)) {
                if n == 0 {
                    continue;
                }
                for &(cause, cycles) in &class.stalls {
                    co.push(CycleEventKind::Stall(cause), n * cycles, 0);
                }
                co.push(
                    CycleEventKind::Pass(class.cause),
                    n * class.pass_cycles,
                    n * class.macs,
                );
            }
            co.end_group();
        }
        co.finish();
        sink.end_layer();
    }

    /// Folds the grid into a heatmap (flexcheck FXC13 holds by
    /// construction). A raster row folds into one pass per run of
    /// identical steps, repeated over the rows of its kind: a pass's MAC
    /// remainder lands on its first cells, so the run (a Systolic
    /// m-group's `N` steps) fixes where remainders go.
    pub fn record_spatial(&self, hb: &mut HeatmapBuilder) {
        for (idx, class) in self.classes.iter().enumerate() {
            let (rows, cols) = self.shape(idx);
            for &(cause, cycles) in &class.stalls {
                hb.stall(cause, rows * cols * cycles);
            }
        }
        for (row, rows) in [(0, self.rows - 1), (2, 1)] {
            let (body, last) = (&self.classes[row], &self.classes[row + 1]);
            let runs = if body == last {
                [(body, self.cols), (last, 0)]
            } else {
                [(body, self.cols - 1), (last, 1)]
            };
            for (class, steps) in runs {
                if rows * steps > 0 {
                    hb.pass(
                        class.cause,
                        &class.rects,
                        steps * class.pass_cycles,
                        steps * class.macs,
                        rows,
                    );
                }
            }
        }
    }
}

/// Samples the three Table 5 on-chip buffers into a layer's heatmap:
/// each bank holds the layer's working set clamped at capacity for the
/// full layer duration (the baselines stream operands, so residency is
/// flat). Every bank covers exactly `cycles` so flexcheck FXC13's
/// dropped-sample check holds.
pub(crate) fn buffer_banks(hb: &mut HeatmapBuilder, layer: &ConvLayer, cycles: u64) {
    hb.bank_sample(
        "neuron-in",
        BUFFER_WORDS,
        layer.input_neurons().min(BUFFER_WORDS),
        cycles,
    );
    hb.bank_sample(
        "kernel",
        BUFFER_WORDS,
        layer.synapses().min(BUFFER_WORDS),
        cycles,
    );
    hb.bank_sample(
        "neuron-out",
        BUFFER_WORDS,
        layer.output_neurons().min(BUFFER_WORDS),
        cycles,
    );
}

/// Runs one layer with a cycle and a spatial recorder attached and
/// returns the result, the recorded timeline and the heatmap — what the
/// baselines' walking-oracle tests compare.
#[cfg(test)]
pub(crate) fn record_one(
    acc: &mut dyn flexsim_arch::Accelerator,
    layer: &ConvLayer,
) -> (
    LayerResult,
    Vec<flexsim_obs::cycles::CycleEvent>,
    flexsim_obs::spatial::LayerSpatial,
) {
    use flexsim_obs::cycles::CycleRecorder;
    use flexsim_obs::spatial::SpatialRecorder;
    use std::sync::Arc;
    let cyc = Arc::new(CycleRecorder::new());
    let spa = Arc::new(SpatialRecorder::new());
    acc.attach_sink(SinkHandle::new(cyc.clone()));
    acc.attach_spatial(SpatialHandle::new(spa.clone()));
    let r = acc.run_conv(layer);
    acc.attach_sink(SinkHandle::none());
    acc.attach_spatial(SpatialHandle::none());
    (r, cyc.take().remove(0).events, spa.take().remove(0))
}

#[cfg(test)]
mod tests {
    use crate::{Mapping2d, Systolic, TilingArray};
    use flexsim_arch::Accelerator;
    use flexsim_obs::attrib::{LossLedger, StallCause};
    use flexsim_obs::cycles::{CycleRecorder, SinkHandle};
    use flexsim_obs::spatial::{SpatialHandle, SpatialRecorder};
    use std::sync::Arc;

    #[test]
    fn baseline_cycle_events_match_analytic_totals() {
        // LeNet-5 (even layers, clamps amortized) and PV (odd sizes,
        // edge tiles everywhere) exercise both the exact and the
        // clamped emission paths.
        for net in [
            flexsim_model::workloads::lenet5(),
            flexsim_model::workloads::pv(),
        ] {
            let mut accs: Vec<Box<dyn Accelerator>> = vec![
                Box::new(Systolic::dc_cnn()),
                Box::new(Mapping2d::shidiannao()),
                Box::new(TilingArray::diannao()),
            ];
            for acc in &mut accs {
                let rec = Arc::new(CycleRecorder::new());
                acc.attach_sink(SinkHandle::new(rec.clone()));
                let summary = acc.run_network(&net);
                let timelines = rec.take();
                assert_eq!(timelines.len(), summary.layers.len());
                for (tl, lr) in timelines.iter().zip(&summary.layers) {
                    let tag = format!("{}/{}/{}", lr.arch, net.name(), lr.layer);
                    assert_eq!(tl.ctx.arch, lr.arch, "{tag}");
                    assert_eq!(tl.total_cycles(), lr.cycles, "{tag}");
                    assert_eq!(tl.macs(), lr.macs, "{tag}");
                    // Trace-derived occupancy equals analytic
                    // utilization.
                    let occ = tl.occupancy().utilization();
                    assert!(
                        (occ - lr.utilization()).abs() < 1e-9,
                        "{tag}: {occ} vs {}",
                        lr.utilization()
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_spatial_records_reproduce_the_loss_ledgers() {
        for net in [
            flexsim_model::workloads::lenet5(),
            flexsim_model::workloads::pv(),
        ] {
            let mut accs: Vec<Box<dyn Accelerator>> = vec![
                Box::new(Systolic::dc_cnn()),
                Box::new(Mapping2d::shidiannao()),
                Box::new(TilingArray::diannao()),
            ];
            for acc in &mut accs {
                let cyc = Arc::new(CycleRecorder::new());
                let spa = Arc::new(SpatialRecorder::new());
                acc.attach_sink(SinkHandle::new(cyc.clone()));
                acc.attach_spatial(SpatialHandle::new(spa.clone()));
                acc.run_network(&net);
                let ledgers: Vec<LossLedger> =
                    cyc.take().iter().map(LossLedger::from_timeline).collect();
                let spatials = spa.take();
                assert_eq!(spatials.len(), ledgers.len());
                for (sp, led) in spatials.iter().zip(&ledgers) {
                    let tag = format!("{}/{}/{}", sp.arch, net.name(), sp.layer);
                    assert_eq!(sp.arch, led.arch, "{tag}");
                    assert_eq!(sp.pe_count() as u32, led.pe_count, "{tag}");
                    assert_eq!(sp.total_cycles, led.total_cycles, "{tag}");
                    assert_eq!(sp.busy_total(), led.busy_pe_cycles, "{tag}");
                    for cause in StallCause::ALL {
                        assert_eq!(sp.lost_total(cause), led.lost(cause), "{tag} {cause:?}");
                    }
                    assert_eq!(sp.banks.len(), 3, "{tag}");
                    for bank in &sp.banks {
                        assert_eq!(bank.sampled_cycles, sp.total_cycles, "{tag}/{}", bank.bank);
                    }
                }
            }
        }
    }
}
