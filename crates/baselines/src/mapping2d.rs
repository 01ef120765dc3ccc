//! The 2D-Mapping baseline (ShiDiannao style, processing style `SFMNSS`).
//!
//! Section 3.2: a `Tr×Tc` PE array computes `Tr×Tc` output neurons of one
//! output feature map in place. Each of the `K²` steps broadcasts one
//! synapse to every PE while input neurons shift right-to-left /
//! down-to-up through inter-PE FIFOs; each PE accumulates its output
//! neuron locally until all partial results are complete, then the array
//! switches to the next tile.
//!
//! The functional simulator models the operand movement explicitly — a
//! sliding register window plus column/row injections, matching the
//! paper's Figure 5(b2) snapshot — and is validated bit-exactly against
//! the reference. The analytic path counts the same schedule in closed
//! form.

use crate::common::{cdiv, extent, Outcome, Shared, StepClass, StepGrid};
use flexsim_arch::area::{AreaBreakdown, AreaModel, AreaSpec, InterconnectStyle};
use flexsim_arch::energy::EnergyModel;
use flexsim_arch::stats::{EventCounts, LayerResult, Traffic};
use flexsim_arch::Accelerator;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Tensor2, Tensor3};
use flexsim_obs::attrib::StallCause;
use flexsim_obs::cycles::SinkHandle;
use flexsim_obs::spatial::{CellRect, SpatialHandle};
use flexsim_obs::telemetry;

/// Operand-movement statistics from the explicit shift simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Mapping2dStats {
    /// Neurons injected at the array edges (buffer → engine words).
    pub injected_words: u64,
    /// Register-to-register hops through the inter-PE FIFOs.
    pub fifo_shifts: u64,
}

/// The 2D-Mapping baseline simulator.
///
/// # Example
///
/// ```
/// use flexsim_arch::Accelerator;
/// use flexsim_baselines::Mapping2d;
/// use flexsim_model::ConvLayer;
///
/// let mut m2d = Mapping2d::shidiannao();
/// assert_eq!(m2d.pe_count(), 256);
/// // A 10x10 output map fills only 100 of 256 PEs (Fig. 15's story).
/// let r = m2d.run_conv(&ConvLayer::new("C3", 16, 6, 10, 5));
/// assert!(r.utilization() < 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct Mapping2d {
    tr: usize,
    tc: usize,
    shared: Shared,
}

impl Mapping2d {
    /// Creates a `tr × tc` neuron-parallel array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(tr: usize, tc: usize) -> Self {
        assert!(tr > 0 && tc > 0, "engine dimensions must be non-zero");
        Mapping2d {
            tr,
            tc,
            shared: Shared::new(),
        }
    }

    /// The paper's configuration: `⟨Tr=16, Tc=16⟩`, 256 output neurons at
    /// a time.
    pub fn shidiannao() -> Self {
        Mapping2d::new(16, 16)
    }

    /// Replaces the energy model (for ablations).
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.shared.energy = energy;
        self
    }

    /// Row dimension `Tr`.
    pub fn tr(&self) -> usize {
        self.tr
    }

    /// Column dimension `Tc`.
    pub fn tc(&self) -> usize {
        self.tc
    }

    /// Functionally computes a CONV layer tile by tile through the
    /// shifting dataflow, bit-exact with the golden reference.
    ///
    /// # Panics
    ///
    /// Panics if the stride is not 1 or the layer is not a valid
    /// convolution.
    pub fn forward(&self, layer: &ConvLayer, input: &Tensor3, kernels: &KernelSet) -> Tensor3 {
        self.forward_with_stats(layer, input, kernels).0
    }

    /// Functionally computes a CONV layer while modeling the operand
    /// movement explicitly: each PE holds one operand register; per
    /// synapse step the whole window shifts one hop through the
    /// inter-PE FIFOs in a zigzag (right-to-left on even kernel rows,
    /// back on odd ones, up between rows — Fig. 5(b2)), with fresh
    /// neurons injected only at the array edge. Returns the output plus
    /// movement statistics.
    ///
    /// # Panics
    ///
    /// Panics if the stride is not 1 or the layer is not a valid
    /// convolution.
    pub fn forward_with_stats(
        &self,
        layer: &ConvLayer,
        input: &Tensor3,
        kernels: &KernelSet,
    ) -> (Tensor3, Mapping2dStats) {
        assert_eq!(
            layer.stride(),
            1,
            "functional 2D-mapping model requires stride 1"
        );
        assert_eq!(
            layer.dilation(),
            1,
            "functional 2D-mapping model requires dilation 1"
        );
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let mut out = Tensor3::zeros(m, s, s);
        let mut stats = Mapping2dStats::default();
        for om in 0..m {
            for r0 in (0..s).step_by(self.tr) {
                for c0 in (0..s).step_by(self.tc) {
                    let tr = self.tr.min(s - r0);
                    let tc = self.tc.min(s - c0);
                    // Local accumulators for the tile's output neurons.
                    let mut acc: Tensor2<Acc32> = Tensor2::zeros(tr, tc);
                    for inm in 0..n {
                        // Operand registers: window[r][c] holds the
                        // neuron PE (r, c) multiplies this cycle.
                        // Initial fill for (i=0, j=0).
                        let mut window =
                            Tensor2::from_fn(tr, tc, |r, c| input[(inm, r0 + r, c0 + c)]);
                        stats.injected_words += (tr * tc) as u64;
                        let mut j = 0usize;
                        for i in 0..k {
                            let rightward = i % 2 == 0;
                            for step in 0..k {
                                if step > 0 {
                                    // One hop through the inter-PE
                                    // FIFOs; inject at the edge.
                                    if rightward {
                                        j += 1;
                                        for r in 0..tr {
                                            for c in 0..tc - 1 {
                                                window[(r, c)] = window[(r, c + 1)];
                                            }
                                            window[(r, tc - 1)] =
                                                input[(inm, r0 + r + i, c0 + tc - 1 + j)];
                                        }
                                    } else {
                                        j -= 1;
                                        for r in 0..tr {
                                            for c in (1..tc).rev() {
                                                window[(r, c)] = window[(r, c - 1)];
                                            }
                                            window[(r, 0)] = input[(inm, r0 + r + i, c0 + j)];
                                        }
                                    }
                                    stats.fifo_shifts += (tr * (tc - 1)) as u64;
                                    stats.injected_words += tr as u64;
                                }
                                let synapse = kernels[(om, inm, i, j)];
                                for r in 0..tr {
                                    for c in 0..tc {
                                        debug_assert_eq!(
                                            window[(r, c)],
                                            input[(inm, r0 + r + i, c0 + c + j)],
                                            "operand window out of sync"
                                        );
                                        acc[(r, c)].mac(synapse, window[(r, c)]);
                                    }
                                }
                            }
                            // Down-to-up shift between kernel rows; the
                            // bottom row is injected fresh.
                            if i + 1 < k {
                                for c in 0..tc {
                                    for r in 0..tr - 1 {
                                        window[(r, c)] = window[(r + 1, c)];
                                    }
                                    window[(tr - 1, c)] =
                                        input[(inm, r0 + tr - 1 + i + 1, c0 + c + j)];
                                }
                                stats.fifo_shifts += (tc * (tr - 1)) as u64;
                                stats.injected_words += tc as u64;
                            }
                        }
                    }
                    for r in 0..tr {
                        for c in 0..tc {
                            out[(om, r0 + r, c0 + c)] =
                                apply_activation(acc[(r, c)].to_fx16(), layer.activation());
                        }
                    }
                }
            }
        }
        (out, stats)
    }

    /// The layer's step grid: `⌈S / Tr⌉ × ⌈S / Tc⌉` steps, one per
    /// output tile. Each step is the tile's initial window load, then
    /// one merged pass covering its `M·N·K²` compute cycles (subsequent
    /// output maps overlap their window prefetch with the previous
    /// map's compute). The last row and column of tiles are clamped to
    /// `Tr_eff × Tc_eff`.
    ///
    /// Loss attribution: the window load is
    /// [`StallCause::BufferBandwidthWait`] — operands inject through
    /// the array edge at buffer width, so the whole array waits `Tc`
    /// cycles for the window to arrive. The pass residue comes only
    /// from `Tr_eff·Tc_eff` edge clamping, hence
    /// [`StallCause::EdgeFragmentation`] (interior tiles have zero
    /// residue).
    ///
    /// Spatially each tile computes in the top-left `Tr_eff × Tc_eff`
    /// corner of the array (output neurons map to PEs in place), so
    /// edge tiles darken the right and bottom margins — the paper's
    /// "feature map smaller than computing array" waste, per cell. No
    /// shared reduction ports or CDB exist here, so both contention
    /// matrices stay empty.
    fn grid(&self, layer: &ConvLayer) -> StepGrid {
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let pass_cycles = (m * n * k * k) as u64;
        StepGrid::new(cdiv(s, self.tr), cdiv(s, self.tc), |last_row, last_col| {
            let tr_eff = extent(s, self.tr, last_row);
            let tc_eff = extent(s, self.tc, last_col);
            StepClass {
                stalls: vec![(StallCause::BufferBandwidthWait, self.tc as u64)],
                cause: StallCause::EdgeFragmentation,
                pass_cycles,
                macs: (tr_eff * tc_eff) as u64 * pass_cycles,
                rects: vec![CellRect {
                    row: 0,
                    col: 0,
                    rows: tr_eff,
                    cols: tc_eff,
                }],
            }
        })
    }

    /// The layer's grid and its closed-form cost: cycles from the grid,
    /// traffic and events counted alongside.
    fn analyze(&self, layer: &ConvLayer) -> (StepGrid, Outcome) {
        let grid = self.grid(layer);
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let compute_cycles = (m * n * k * k) as u64 * grid.steps();
        let cycles = grid.cycles();
        let macs = layer.macs();

        // Traffic: each tile reads its haloed input region once per
        // (m, n) — the paper's "input feature maps are still needed to be
        // read multiple times corresponding to different output feature
        // maps". Kernels are broadcast one synapse per compute cycle.
        let halo_words = grid.sum(|tile| {
            let r = &tile.rects[0];
            ((r.rows + k - 1) * (r.cols + k - 1)) as u64
        });
        let neuron_in = (m * n) as u64 * halo_words;
        // One synapse is read from the kernel buffer and broadcast every
        // compute cycle; tiles re-read the same synapses.
        let kernel_in = compute_cycles;
        let out_words = (m * s * s) as u64;
        let traffic = Traffic {
            neuron_in,
            neuron_out: out_words,
            kernel_in,
            psum: 0,
        };

        // Events: every MAC pulls its input from a neighbour FIFO (one
        // read + one write as the operand window shifts) and updates the
        // local accumulator; the synapse broadcast is one bus word per
        // compute cycle; column/row injections are bus words too.
        let events = EventCounts {
            macs,
            local_store_reads: 2 * macs,
            local_store_writes: macs,
            neuron_in_buf: neuron_in,
            neuron_out_buf: out_words,
            kernel_buf: kernel_in,
            bus_words: compute_cycles + neuron_in,
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
            // Two small operand FIFOs per PE (Fig. 7b).
            local_store_bytes_per_pe: 32,
            fifo_bytes_total: 0,
            buffer_kb_total: 64,
            interconnect: InterconnectStyle::Mesh2d,
            fixed_overhead_mm2: 0.30,
        }
    }
}

impl Accelerator for Mapping2d {
    fn name(&self) -> &str {
        "2D-Mapping"
    }

    fn pe_count(&self) -> usize {
        self.tr * self.tc
    }

    fn run_conv(&mut self, layer: &ConvLayer) -> LayerResult {
        let analyzed = {
            let _schedule = telemetry::phase(telemetry::Phase::Schedule);
            self.analyze(layer)
        };
        self.shared
            .finish(self, layer, (self.tr, self.tc), analyzed)
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
    use flexsim_obs::cycles::{
        Coalescer, CycleEvent, CycleEventKind, CycleRecorder, LayerCtx, MAX_EVENTS_PER_LAYER,
    };
    use flexsim_obs::spatial::{HeatmapBuilder, LayerSpatial};
    use flexsim_testkit::prop;
    use std::sync::Arc;

    /// The timeline as the walking emitter produced it: one coalescer
    /// step per output tile.
    fn walked_timeline(m2d: &Mapping2d, layer: &ConvLayer) -> Vec<CycleEvent> {
        let rec = Arc::new(CycleRecorder::new());
        let sink = SinkHandle::new(rec.clone());
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let row_tiles = cdiv(s, m2d.tr);
        let col_tiles = cdiv(s, m2d.tc);
        let pass_cycles = (m * n * k * k) as u64;
        sink.begin_layer(&LayerCtx::new(
            m2d.name(),
            layer.name(),
            m2d.pe_count() as u32,
        ));
        let mut co = Coalescer::new(&sink, (row_tiles * col_tiles) as u64);
        for rt in 0..row_tiles {
            let tr_eff = m2d.tr.min(s - rt * m2d.tr) as u64;
            for ct in 0..col_tiles {
                let tc_eff = m2d.tc.min(s - ct * m2d.tc) as u64;
                co.push(
                    CycleEventKind::Stall(StallCause::BufferBandwidthWait),
                    m2d.tc as u64,
                    0,
                );
                co.push(
                    CycleEventKind::Pass(StallCause::EdgeFragmentation),
                    pass_cycles,
                    tr_eff * tc_eff * pass_cycles,
                );
                co.step();
            }
        }
        co.finish();
        sink.end_layer();
        rec.take().remove(0).events
    }

    /// The heatmap as the walking emitter produced it: one pass per
    /// output tile.
    fn walked_spatial(m2d: &Mapping2d, layer: &ConvLayer, total_cycles: u64) -> LayerSpatial {
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let row_tiles = cdiv(s, m2d.tr);
        let col_tiles = cdiv(s, m2d.tc);
        let pass_cycles = (m * n * k * k) as u64;
        let mut hb = HeatmapBuilder::new(m2d.name(), layer.name(), m2d.tr, m2d.tc, total_cycles);
        hb.stall(
            StallCause::BufferBandwidthWait,
            (row_tiles * col_tiles * m2d.tc) as u64,
        );
        for rt in 0..row_tiles {
            let tr_eff = m2d.tr.min(s - rt * m2d.tr);
            for ct in 0..col_tiles {
                let tc_eff = m2d.tc.min(s - ct * m2d.tc);
                hb.pass(
                    StallCause::EdgeFragmentation,
                    &[CellRect {
                        row: 0,
                        col: 0,
                        rows: tr_eff,
                        cols: tc_eff,
                    }],
                    pass_cycles,
                    (tr_eff * tc_eff) as u64 * pass_cycles,
                    1,
                );
            }
        }
        buffer_banks(&mut hb, layer, total_cycles);
        hb.finish()
    }

    /// Records `layer` and checks its timeline event by event and its
    /// heatmap cell by cell against the walking oracles.
    fn assert_matches_the_walk(m2d: &mut Mapping2d, layer: &ConvLayer) {
        let (r, events, spatial) = record_one(m2d, layer);
        let tag = format!("{}/{}x{}", layer.name(), m2d.tr, m2d.tc);
        assert_eq!(events, walked_timeline(m2d, layer), "{tag}");
        assert_eq!(spatial, walked_spatial(m2d, layer, r.cycles), "{tag}");
        assert_eq!(events.iter().map(|e| e.macs).sum::<u64>(), r.macs, "{tag}");
    }

    #[test]
    fn grid_matches_the_walk_on_table1_layers() {
        for net in workloads::all() {
            for layer in net.conv_layers() {
                assert_matches_the_walk(&mut Mapping2d::shidiannao(), layer);
            }
        }
    }

    #[test]
    fn grid_matches_the_walk_on_random_layers() {
        // Ragged S mod Tr and S mod Tc, and tile counts on both sides of
        // the coalescer's event cap.
        prop::check(
            "mapping2d_grid_matches_the_walk_on_random_layers",
            64,
            (
                (1usize..=6, 1usize..=4, 1usize..=60, 1usize..=5),
                (1usize..=16, 1usize..=16),
            ),
            |&((m, n, s, k), (tr, tc))| {
                let layer = ConvLayer::new("R", m, n, s, k);
                assert_matches_the_walk(&mut Mapping2d::new(tr, tc), &layer);
                Ok(())
            },
        );
    }

    #[test]
    fn huge_tile_counts_record_a_bounded_exact_timeline() {
        // S=4096 on 16×16 is 65,536 tiles: recording stays within the
        // coalescer's event cap and its totals equal the cost model's.
        let layer = ConvLayer::new("L", 2, 2, 4096, 3);
        let (r, events, _) = record_one(&mut Mapping2d::shidiannao(), &layer);
        assert!(
            events.len() <= 2 * MAX_EVENTS_PER_LAYER + 2,
            "{}",
            events.len()
        );
        assert_eq!(events.iter().map(|e| e.cycles).sum::<u64>(), r.cycles);
        assert_eq!(events.iter().map(|e| e.macs).sum::<u64>(), r.macs);
        assert_eq!(r.macs, layer.macs());
    }

    #[test]
    fn functional_matches_reference_small_layer() {
        let layer = ConvLayer::new("C", 3, 2, 7, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 5);
        let m2d = Mapping2d::new(4, 4);
        assert_eq!(
            m2d.forward(&layer, &input, &kernels),
            reference::conv(&layer, &input, &kernels)
        );
    }

    #[test]
    fn functional_matches_reference_lenet_c3() {
        let net = workloads::lenet5();
        let c3 = net.conv_layer("C3").unwrap();
        let (input, kernels) = reference::random_layer_data(c3, 21);
        let m2d = Mapping2d::shidiannao();
        assert_eq!(
            m2d.forward(c3, &input, &kernels),
            reference::conv(c3, &input, &kernels)
        );
    }

    #[test]
    fn shift_network_injections_match_closed_form() {
        // Per (m, n, tile): tr*tc initial fill + tr per lateral hop
        // (k*(k-1) hops) + tc per up-shift (k-1 of them).
        let layer = ConvLayer::new("C", 2, 3, 8, 4);
        let (input, kernels) = flexsim_model::reference::random_layer_data(&layer, 77);
        let m2d = Mapping2d::new(8, 8);
        let (out, stats) = m2d.forward_with_stats(&layer, &input, &kernels);
        assert_eq!(
            out,
            flexsim_model::reference::conv(&layer, &input, &kernels)
        );
        let (tr, tc, k) = (8u64, 8u64, 4u64);
        let per_pass = tr * tc + k * (k - 1) * tr + (k - 1) * tc;
        assert_eq!(stats.injected_words, 2 * 3 * per_pass);
        // Every lateral hop moves tr*(tc-1) registers, every up-shift
        // tc*(tr-1).
        let per_pass_shifts = k * (k - 1) * tr * (tc - 1) + (k - 1) * tc * (tr - 1);
        assert_eq!(stats.fifo_shifts, 2 * 3 * per_pass_shifts);
    }

    #[test]
    fn zigzag_survives_non_square_tiles() {
        // Edge tiles exercise tr != tc and 1-wide windows.
        let layer = ConvLayer::new("C", 2, 2, 9, 3);
        let (input, kernels) = flexsim_model::reference::random_layer_data(&layer, 78);
        for (tr, tc) in [(4usize, 4usize), (9, 2), (2, 9), (1, 9), (9, 1)] {
            let m2d = Mapping2d::new(tr, tc);
            assert_eq!(
                m2d.forward(&layer, &input, &kernels),
                flexsim_model::reference::conv(&layer, &input, &kernels),
                "tile {tr}x{tc}"
            );
        }
    }

    #[test]
    fn small_maps_underutilize() {
        // Paper Section 6.2.2: "the feature map size of the second or
        // later layers ... is smaller than computing array, which wastes
        // computing resources".
        let mut m2d = Mapping2d::shidiannao();
        let c3 = ConvLayer::new("C3", 16, 6, 10, 5);
        let r = m2d.run_conv(&c3);
        // 10x10 = 100 of 256 PEs.
        assert!(r.utilization() < 100.0 / 256.0 + 1e-9);
        assert!(r.utilization() > 0.30);
    }

    #[test]
    fn large_maps_utilize_well() {
        let mut m2d = Mapping2d::shidiannao();
        let c1 = ConvLayer::new("C1", 8, 1, 48, 5);
        let r = m2d.run_conv(&c1);
        assert!(r.utilization() > 0.85);
    }

    #[test]
    fn input_reread_per_output_map() {
        let mut m2d = Mapping2d::shidiannao();
        let layer = ConvLayer::new("C", 4, 2, 16, 3);
        let r = m2d.run_conv(&layer);
        // One haloed tile (18x18) per (m, n).
        assert_eq!(r.traffic.neuron_in, 4 * 2 * 18 * 18);
    }

    #[test]
    fn cycles_scale_with_kernel_area() {
        let mut m2d = Mapping2d::shidiannao();
        let k3 = m2d.run_conv(&ConvLayer::new("a", 4, 4, 16, 3)).cycles;
        let k5 = m2d.run_conv(&ConvLayer::new("b", 4, 4, 16, 5)).cycles;
        assert!(k5 > 2 * k3);
    }

    #[test]
    fn area_near_paper() {
        let total = Mapping2d::shidiannao().area().total_mm2();
        assert!(
            (total - 3.46).abs() / 3.46 < 0.08,
            "2D-Mapping area {total:.2} vs paper 3.46"
        );
    }
}
