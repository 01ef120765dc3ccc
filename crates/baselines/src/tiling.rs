//! The Tiling baseline (DianNao style, processing style `MFSNSS`).
//!
//! Section 3.3: `Tm` PEs, each holding `Tn` multipliers and an adder
//! tree. Every cycle, `Tn` input neurons and `Tm×Tn` synapses are loaded
//! from the buffers — there is no local operand storage, so nothing is
//! reused ("it acquires the poorest data sharing"). Each PE accumulates a
//! single output neuron over `K²` cycles (times the `N/Tn` input tiles),
//! then switches to the next.
//!
//! The functional simulator executes the exact tile schedule (adder-tree
//! reduction per cycle); the analytic path counts the schedule in closed
//! form and charges the per-cycle operand streaming that makes this
//! architecture's data volume the largest of the four (Fig. 17).

use crate::common::{cdiv, extent, Outcome, Shared, StepClass, StepGrid};
use flexsim_arch::area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
use flexsim_arch::energy::EnergyModel;
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Tensor3};
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::SinkHandle;
use flexsim_obs::spatial::{CellRect, SpatialHandle};
use flexsim_obs::telemetry;

/// The Tiling baseline simulator.
///
/// # Example
///
/// ```
/// use flexsim_arch::Accelerator;
/// use flexsim_baselines::TilingArray;
/// use flexsim_model::ConvLayer;
///
/// let mut tiling = TilingArray::diannao();
/// assert_eq!(tiling.pe_count(), 256);
/// // M=8, N=1: only 8 of 256 multiplier lanes ever fire (Table 3).
/// let r = tiling.run_conv(&ConvLayer::new("C1", 8, 1, 45, 6));
/// assert!(r.utilization() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct TilingArray {
    tm: usize,
    tn: usize,
    shared: Shared,
}

impl TilingArray {
    /// Creates an engine of `tm` PEs × `tn` multiplier lanes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tm: usize, tn: usize) -> Self {
        assert!(tm > 0 && tn > 0, "engine dimensions must be non-zero");
        TilingArray {
            tm,
            tn,
            shared: Shared::new(),
        }
    }

    /// The paper's configuration: `⟨Tm=16, Tn=16⟩`.
    pub fn diannao() -> Self {
        TilingArray::new(16, 16)
    }

    /// Replaces the energy model (for ablations).
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.shared.energy = energy;
        self
    }

    /// Output feature-map parallelism `Tm`.
    pub fn tm(&self) -> usize {
        self.tm
    }

    /// Input feature-map parallelism `Tn`.
    pub fn tn(&self) -> usize {
        self.tn
    }

    /// Functionally computes a CONV layer through the tile schedule,
    /// bit-exact with the golden reference.
    ///
    /// # Panics
    ///
    /// Panics if the layer is not a valid convolution.
    pub fn forward(&self, layer: &ConvLayer, input: &Tensor3, kernels: &KernelSet) -> Tensor3 {
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let (m, n, s, k, stride) = (layer.m(), layer.n(), layer.s(), layer.k(), layer.stride());
        let dilation = layer.dilation();
        let mut out = Tensor3::zeros(m, s, s);
        for r in 0..s {
            for c in 0..s {
                // Each PE of an m-tile accumulates one output neuron.
                for m0 in (0..m).step_by(self.tm) {
                    let tm = self.tm.min(m - m0);
                    let mut accs = vec![Acc32::ZERO; tm];
                    for n0 in (0..n).step_by(self.tn) {
                        let tn = self.tn.min(n - n0);
                        for i in 0..k {
                            for j in 0..k {
                                // One engine cycle: Tn neurons fan out to
                                // Tm PEs; each PE's adder tree reduces
                                // its Tn products into the accumulator.
                                for (pe, acc) in accs.iter_mut().enumerate() {
                                    for lane in 0..tn {
                                        acc.mac(
                                            kernels[(m0 + pe, n0 + lane, i, j)],
                                            input[(
                                                n0 + lane,
                                                r * stride + i * dilation,
                                                c * stride + j * dilation,
                                            )],
                                        );
                                    }
                                }
                            }
                        }
                    }
                    for (pe, acc) in accs.iter().enumerate() {
                        out[(m0 + pe, r, c)] = apply_activation(acc.to_fx16(), layer.activation());
                    }
                }
            }
        }
        out
    }

    /// The layer's step grid: `⌈M / Tm⌉ × ⌈N / Tn⌉` steps, one pass per
    /// `(m-tile, n-tile)`, its MACs the clamped lane product.
    ///
    /// Loss attribution per step uses the dominant residue component:
    /// an output-lane clamp (`Tm_eff < Tm`) idles whole PE rows —
    /// [`StallCause::EdgeFragmentation`] — while an input-lane clamp
    /// (`Tn_eff < Tn`) leaves every active row's `Tn`-input adder tree
    /// underfed — [`StallCause::AdderTreeContention`]. Corner tiles
    /// clamp both ways; their whole residue goes to whichever component
    /// is larger (row loss `(Tm−Tm_eff)·Tn` vs lane loss
    /// `Tm_eff·(Tn−Tn_eff)` per cycle), documented in DESIGN.md §9.
    ///
    /// Spatially the heatmap rows are the `Tm` PEs and the columns
    /// their `Tn` multiplier lanes; each pass lights the top-left
    /// `Tm_eff × Tn_eff` corner, so a starved engine (M or N below 16)
    /// shows as dark rows or lanes — Table 3's story per cell. The
    /// per-PE adder trees are private and there is no CDB, so both
    /// contention matrices stay empty.
    fn grid(&self, layer: &ConvLayer) -> StepGrid {
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let pass_cycles = (s * s * k * k) as u64;
        StepGrid::new(cdiv(m, self.tm), cdiv(n, self.tn), |last_m, last_n| {
            let tm_eff = extent(m, self.tm, last_m);
            let tn_eff = extent(n, self.tn, last_n);
            let row_loss = (self.tm - tm_eff) * self.tn;
            let lane_loss = tm_eff * (self.tn - tn_eff);
            StepClass {
                stalls: Vec::new(),
                cause: if lane_loss > row_loss {
                    StallCause::AdderTreeContention
                } else {
                    StallCause::EdgeFragmentation
                },
                pass_cycles,
                macs: (tm_eff * tn_eff) as u64 * pass_cycles,
                rects: vec![CellRect {
                    row: 0,
                    col: 0,
                    rows: tm_eff,
                    cols: tn_eff,
                }],
            }
        })
    }

    /// The layer's grid and its closed-form cost: cycles from the grid,
    /// traffic and events counted alongside.
    fn analyze(&self, layer: &ConvLayer) -> (StepGrid, Outcome) {
        let grid = self.grid(layer);
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let m_tiles = cdiv(m, self.tm) as u64;
        let cycles = grid.cycles();
        let macs = layer.macs();

        // Per cycle: Tn neurons + Tm·Tn synapses stream from the buffers
        // with no reuse. Effective (clamped) lane counts sum to N over
        // n-tiles and M over m-tiles.
        let neuron_in = m_tiles * (n * s * s * k * k) as u64;
        let kernel_in = (m * n * s * s * k * k) as u64;
        let out_words = (m * s * s) as u64;
        let traffic = Traffic {
            neuron_in,
            neuron_out: out_words,
            kernel_in,
            psum: 0,
        };

        // Events: operands stream wide from the buffers (line reads);
        // neurons are broadcast across PEs (bus); the only local storage
        // is each PE's partial-result register.
        let events = EventCounts {
            macs,
            local_store_reads: cycles * self.tm as u64,
            local_store_writes: cycles * self.tm as u64,
            neuron_in_buf: 0,
            neuron_out_buf: out_words,
            kernel_buf: 0,
            stream_words: neuron_in + kernel_in,
            bus_words: neuron_in,
            ..Default::default()
        };
        let outcome = Outcome {
            cycles,
            macs,
            events,
            traffic,
        };
        (grid, outcome)
    }

    fn area_spec(&self) -> AreaSpec {
        AreaSpec {
            pe_count: self.pe_count(),
            local_store_bytes_per_pe: 4, // partial-result register only
            fifo_bytes_total: 0,
            buffer_kb_total: 64,
            interconnect: InterconnectStyle::BroadcastTree,
            fixed_overhead_mm2: 0.30,
        }
    }
}

impl Accelerator for TilingArray {
    fn name(&self) -> &str {
        "Tiling"
    }

    fn pe_count(&self) -> usize {
        self.tm * self.tn
    }

    fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult {
        let analyzed = {
            let _schedule = telemetry::phase(telemetry::Phase::Schedule);
            self.analyze(layer)
        };
        self.shared
            .finish(self, layer, (self.tm, self.tn), analyzed)
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.shared.sink = sink;
    }

    fn attach_spatial(&mut self, sink: SpatialHandle) {
        self.shared.spatial = sink;
    }

    fn area(&self) -> AreaBreakdown {
        AreaModel::tsmc65().area(&self.area_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{buffer_banks, record_one};
    use flexsim_model::reference;
    use flexsim_model::workloads;
    use flexsim_obs::cycles::{Coalescer, CycleEvent, CycleEventKind, CycleRecorder, LayerCtx};
    use flexsim_obs::spatial::{HeatmapBuilder, LayerSpatial};
    use flexsim_testkit::prop;
    use std::sync::Arc;

    /// The timeline as the walking emitter produced it: one coalescer
    /// step per `(m-tile, n-tile)`.
    fn walked_timeline(t: &TilingArray, layer: &ConvLayer) -> Vec<CycleEvent> {
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone());
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let m_tiles = cdiv(m, t.tm);
        let n_tiles = cdiv(n, t.tn);
        let pass_cycles = (s * s * k * k) as u64;
        sink.begin_layer(&LayerCtx::new(t.name(), layer.name(), t.pe_count() as u32));
        let mut co = Coalescer::new(&sink, (m_tiles * n_tiles) as u64);
        for mt in 0..m_tiles {
            let tm_eff = t.tm.min(m - mt * t.tm) as u64;
            for nt in 0..n_tiles {
                let tn_eff = t.tn.min(n - nt * t.tn) as u64;
                let row_loss = (t.tm as u64 - tm_eff) * t.tn as u64;
                let lane_loss = tm_eff * (t.tn as u64 - tn_eff);
                let residue_cause = if lane_loss > row_loss {
                    StallCause::AdderTreeContention
                } else {
                    StallCause::EdgeFragmentation
                };
                co.push(
                    CycleEventKind::Pass(residue_cause),
                    pass_cycles,
                    tm_eff * tn_eff * pass_cycles,
                );
                co.step();
            }
        }
        co.finish();
        sink.end_layer();
        rec.take().remove(0).events
    }

    /// The heatmap as the walking emitter produced it: one pass per
    /// `(m-tile, n-tile)`.
    fn walked_spatial(t: &TilingArray, layer: &ConvLayer, total_cycles: u64) -> LayerSpatial {
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let m_tiles = cdiv(m, t.tm);
        let n_tiles = cdiv(n, t.tn);
        let pass_cycles = (s * s * k * k) as u64;
        let mut hb = HeatmapBuilder::new(t.name(), layer.name(), t.tm, t.tn, total_cycles);
        for mt in 0..m_tiles {
            let tm_eff = t.tm.min(m - mt * t.tm);
            for nt in 0..n_tiles {
                let tn_eff = t.tn.min(n - nt * t.tn);
                let row_loss = (t.tm - tm_eff) * t.tn;
                let lane_loss = tm_eff * (t.tn - tn_eff);
                let residue_cause = if lane_loss > row_loss {
                    StallCause::AdderTreeContention
                } else {
                    StallCause::EdgeFragmentation
                };
                hb.pass(
                    residue_cause,
                    &[CellRect {
                        row: 0,
                        col: 0,
                        rows: tm_eff,
                        cols: tn_eff,
                    }],
                    pass_cycles,
                    (tm_eff * tn_eff) as u64 * pass_cycles,
                    1,
                );
            }
        }
        buffer_banks(&mut hb, layer, total_cycles);
        hb.finish()
    }

    /// Records `layer` and checks its timeline event by event and its
    /// heatmap cell by cell against the walking oracles.
    fn assert_matches_the_walk(t: &mut TilingArray, layer: &ConvLayer) {
        let (r, events, spatial) = record_one(t, layer);
        let tag = format!("{}/{}x{}", layer.name(), t.tm, t.tn);
        assert_eq!(events, walked_timeline(t, layer), "{tag}");
        assert_eq!(spatial, walked_spatial(t, layer, r.cycles), "{tag}");
        assert_eq!(events.iter().map(|e| e.macs).sum::<u64>(), r.macs, "{tag}");
    }

    #[test]
    fn grid_matches_the_walk_on_table1_layers() {
        for net in workloads::all() {
            for layer in net.conv_layers() {
                assert_matches_the_walk(&mut TilingArray::diannao(), layer);
            }
        }
    }

    #[test]
    fn grid_matches_the_walk_on_random_layers() {
        // Ragged M mod Tm and N mod Tn, so corner tiles go to either
        // cause, and tile counts on both sides of the coalescer's cap.
        prop::check(
            "tiling_grid_matches_the_walk_on_random_layers",
            64,
            (
                (1usize..=60, 1usize..=60, 1usize..=6, 1usize..=4),
                (1usize..=16, 1usize..=16),
            ),
            |&((m, n, s, k), (tm, tn))| {
                let layer = ConvLayer::new("R", m, n, s, k);
                assert_matches_the_walk(&mut TilingArray::new(tm, tn), &layer);
                Ok(())
            },
        );
    }

    #[test]
    fn functional_matches_reference_small_layer() {
        let layer = ConvLayer::new("C", 5, 3, 6, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 17);
        let t = TilingArray::new(4, 2);
        assert_eq!(
            t.forward(&layer, &input, &kernels),
            reference::conv(&layer, &input, &kernels)
        );
    }

    #[test]
    fn functional_matches_reference_lenet_c3() {
        let net = workloads::lenet5();
        let c3 = net.conv_layer("C3").unwrap();
        let (input, kernels) = reference::random_layer_data(c3, 9);
        let t = TilingArray::diannao();
        assert_eq!(
            t.forward(c3, &input, &kernels),
            reference::conv(c3, &input, &kernels)
        );
    }

    #[test]
    fn functional_handles_stride() {
        let layer = ConvLayer::new("C", 2, 2, 4, 3).with_stride(2);
        let (input, kernels) = reference::random_layer_data(&layer, 4);
        let t = TilingArray::new(2, 2);
        assert_eq!(
            t.forward(&layer, &input, &kernels),
            reference::conv(&layer, &input, &kernels)
        );
    }

    #[test]
    fn few_feature_maps_starve_the_engine() {
        // Table 3: PV C1 on C3-opt gives 8/96 = 8.3%; at the paper's
        // 16x16 configuration M=8, N=1 -> 8/256 = 3.1%.
        let mut t = TilingArray::diannao();
        let r = t.run_conv(&ConvLayer::new("C1", 8, 1, 45, 6));
        assert!((r.utilization() - 8.0 / 256.0).abs() < 1e-9);
    }

    #[test]
    fn many_feature_maps_fill_the_engine() {
        // AlexNet C5: M=192, N=256 are multiples of 16 -> full occupancy
        // (the paper's explanation for Tiling's high AlexNet/VGG
        // utilization in Fig. 15).
        let mut t = TilingArray::diannao();
        let r = t.run_conv(&ConvLayer::new("C5", 192, 256, 13, 3).with_input_size(15));
        assert!((r.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn synapse_traffic_equals_macs() {
        // The no-reuse hallmark: one synapse word streamed per MAC.
        let mut t = TilingArray::diannao();
        let layer = ConvLayer::new("C", 16, 16, 8, 3);
        let r = t.run_conv(&layer);
        assert_eq!(r.traffic.kernel_in, layer.macs());
        assert!(r.traffic.total() > layer.macs());
    }

    #[test]
    fn area_near_paper() {
        let total = TilingArray::diannao().area().total_mm2();
        assert!(
            (total - 3.21).abs() / 3.21 < 0.08,
            "Tiling area {total:.2} vs paper 3.21"
        );
    }
}
