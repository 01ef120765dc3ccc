//! Cycle-stepped functional simulation of the FlexFlow PE array.
//!
//! Executes the [`crate::analytic`] schedule on real data: every cycle,
//! every active PE reads one neuron and one synapse from its local
//! stores, multiplies, and its row's adder tree accumulates — exactly
//! the Section 4 dataflow. Operands are delivered lazily over the
//! vertical (neuron) and horizontal (kernel) buses into the per-PE local
//! stores, with per-stripe persistence so the Relax-Synchronization
//! preloading and column-sharing reuse are measured, not assumed.
//!
//! The simulator asserts the Relax-Alignment property as it runs: within
//! one cycle, the operands of every active row land on *distinct* PE
//! columns (no bus or store port conflict).
//!
//! # Bookkeeping without hashing or allocation
//!
//! Each MAC asks its PE "is this operand already in my local store, and
//! at which address?". A per-PE, per-store `Residency` table answers. It
//! is sized by the store, not by the layer: `2·STORE_WORDS` open-addressed
//! slots (the store never holds more than `STORE_WORDS` operands, so the
//! load factor stays at or below ½), probed linearly from a
//! multiplicative hash of the operand id. A slot packs the epoch it was
//! written in with the id and the store address, so a probe is one load
//! and clearing a store is one epoch increment. The clear-all-when-full
//! eviction is such a clear. "Was this operand already broadcast?" is
//! one bit of an `IdSet` over the layer's id range (`N·S_in²` neurons,
//! `M·N·K²` synapses). The per-cycle product buffer and the debug-only
//! column claims are allocated once per layer, and the adder tree
//! reduces the buffer in place in the hardware's pairing order
//! ([`adder_tree::reduce_in_place`]); saturating adds are not
//! associative, so that order is part of the result.
//!
//! A row-batch is stepped output by output rather than cycle by cycle.
//! Each output of a batch owns its own PE row, and each synapse is used
//! in one cycle of the batch only, so every PE sees the same operand
//! sequence and every bus carries the same words in either order — and
//! one row's PEs stay cache-resident across the batch's cycles.

use crate::adder_tree;
use crate::analytic::{schedule_default, Schedule};
use crate::cdb::CdbFabric;
use crate::local_store::STORE_WORDS;
use crate::mapping::Mapping;
use crate::pe::Pe;
use flexsim_dataflow::Unroll;
use flexsim_model::reference::apply_activation;
use flexsim_model::tensor::KernelSet;
use flexsim_model::{Acc32, ConvLayer, Tensor3};

/// What one functional layer run measured.
#[derive(Clone, Debug, PartialEq)]
pub struct FunctionalReport {
    /// The computed output feature maps.
    pub output: Tensor3,
    /// Engine cycles (compute + per-segment writeback).
    pub cycles: u64,
    /// PE-active compute steps: cycles in which the engine issued a
    /// tile of MACs (total cycles minus pipeline fill and segment
    /// stalls). `macs / (compute_steps · D²)` is the simulated
    /// occupancy the unrolling model's `Ut` predicts.
    pub compute_steps: u64,
    /// MACs executed.
    pub macs: u64,
    /// Words broadcast on the vertical (neuron) buses.
    pub vertical_bus_words: u64,
    /// Words broadcast on the horizontal (kernel) buses.
    pub horizontal_bus_words: u64,
    /// Words on the busiest vertical bus (bandwidth hot spot).
    pub max_vertical_bus_words: u64,
    /// Words on the busiest horizontal bus.
    pub max_horizontal_bus_words: u64,
    /// Local-store reads across all PEs.
    pub store_reads: u64,
    /// Local-store writes across all PEs.
    pub store_writes: u64,
    /// Adder-tree additions.
    pub adder_tree_adds: u64,
}

/// Slots per [`Residency`] table: twice the store capacity, rounded up
/// to a power of two for mask-based probing.
const SLOTS: usize = (2 * STORE_WORDS).next_power_of_two();
const SLOT_BITS: u32 = SLOTS.trailing_zeros();
const _: () = assert!(STORE_WORDS <= 256, "store addresses are kept in 8 bits");
/// Epochs are kept in the 24 bits above a slot's id and address.
const MAX_EPOCH: u64 = (1 << 24) - 1;

/// Which operand ids one local store holds, and at which address.
///
/// Open addressing with linear probing. A slot packs, from the top, the
/// epoch it was written in, the 32-bit operand id and the 8-bit store
/// address, so a probe reads one word per slot. A slot from an older
/// epoch is empty, so [`Residency::clear`] is O(1).
#[derive(Clone, Debug)]
struct Residency {
    slots: [u64; SLOTS],
    epoch: u64,
    /// Next free store address (stores fill sequentially).
    next: usize,
}

impl Residency {
    fn new() -> Self {
        Residency {
            slots: [0; SLOTS],
            epoch: 1,
            next: 0,
        }
    }

    /// Forgets every resident operand.
    fn clear(&mut self) {
        self.next = 0;
        self.epoch += 1;
        if self.epoch > MAX_EPOCH {
            self.slots = [0; SLOTS];
            self.epoch = 1;
        }
    }

    fn home(id: u32) -> usize {
        (id.wrapping_mul(0x9E37_79B9) >> (32 - SLOT_BITS)) as usize
    }

    /// The store address holding `id`, or the empty slot its insert
    /// would take.
    #[inline]
    fn find(&self, id: u32) -> Result<usize, usize> {
        let tag = self.epoch << 32 | u64::from(id);
        let mut slot = Self::home(id);
        loop {
            let v = self.slots[slot];
            if v >> 8 == tag {
                return Ok((v & 0xFF) as usize);
            }
            if v >> 40 != self.epoch {
                return Err(slot);
            }
            slot = (slot + 1) & (SLOTS - 1);
        }
    }

    /// Assigns `id` the next store address, first clearing the whole
    /// store if it is full. `slot` is what [`Self::find`] returned.
    fn insert(&mut self, id: u32, slot: usize) -> usize {
        let slot = if self.next >= STORE_WORDS {
            self.clear();
            Self::home(id)
        } else {
            slot
        };
        let addr = self.next;
        self.next += 1;
        self.slots[slot] = (self.epoch << 32 | u64::from(id)) << 8 | addr as u64;
        addr
    }
}

/// A set of operand ids `0..len`, one bit each.
#[derive(Clone, Debug)]
struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    fn new(len: usize) -> Self {
        IdSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Adds `id`; true if it was absent.
    #[inline]
    fn insert(&mut self, id: u32) -> bool {
        let word = &mut self.words[(id >> 6) as usize];
        let bit = 1u64 << (id & 63);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// Per-PE operand residency bookkeeping on top of the raw [`Pe`].
#[derive(Clone, Debug)]
struct PeState {
    pe: Pe,
    neurons: Residency,
    kernels: Residency,
}

impl PeState {
    fn new() -> Self {
        PeState {
            pe: Pe::new(),
            neurons: Residency::new(),
            kernels: Residency::new(),
        }
    }
}

/// One kernel-row (or kernel-column) tap of an output: the input row
/// (column) it reads and that coordinate's term of the PE column.
#[derive(Clone, Copy, Debug)]
struct Tap {
    input: usize,
    col: usize,
}

/// What one [`PeArray::run_layer`] call carries from output to output:
/// the operands, the buses and what they already carried, the cycle
/// walk of a row-batch, scratch, and the running counts.
struct LayerRun<'a> {
    input: &'a Tensor3,
    kernels: &'a KernelSet,
    n: usize,
    k: usize,
    s_in: usize,
    /// Every cycle of a row-batch as one `(origin, extent)` per chunked
    /// dimension: input map, kernel row, kernel column.
    chunks: Vec<[(usize, usize); 3]>,
    /// Input-map term of the residue mapping's PE column, per map.
    map_cols: Vec<usize>,
    fabric: CdbFabric,
    /// Neurons already broadcast in this stripe.
    neuron_broadcast: IdSet,
    /// Synapses already broadcast in this kernel residency epoch.
    kernel_broadcast: IdSet,
    /// One row's products in one cycle.
    products: Vec<Acc32>,
    /// RA guard (debug builds): the (output, cycle) claim that last
    /// used each PE column.
    col_owner: Vec<usize>,
    claim: usize,
    macs: u64,
    tree_adds: u64,
}

impl LayerRun<'_> {
    /// Steps output neuron `om` through every cycle of its row-batch on
    /// PE row `row` (`pe_row`) and returns its accumulated sum.
    /// `row_taps` and `col_taps` are the output's `K` kernel-row and
    /// kernel-column taps.
    fn output(
        &mut self,
        pe_row: &mut [PeState],
        row: usize,
        om: usize,
        row_taps: &[Tap],
        col_taps: &[Tap],
    ) -> Acc32 {
        let (n, k, s_in) = (self.n, self.k, self.s_in);
        let mut acc = Acc32::ZERO;
        for chunk in 0..self.chunks.len() {
            let [(n0, tn_eff), (i0, ti_eff), (j0, tj_eff)] = self.chunks[chunk];
            self.claim += 1;
            for inm in n0..n0 + tn_eff {
                for (i, rt) in (i0..).zip(&row_taps[i0..i0 + ti_eff]) {
                    let ir = rt.input;
                    let nid_row = (inm * s_in + ir) * s_in;
                    let kid_row = ((om * n + inm) * k + i) * k;
                    for (j, ct) in (j0..).zip(&col_taps[j0..j0 + tj_eff]) {
                        let ic = ct.input;
                        let col = self.map_cols[inm] + rt.col + ct.col;
                        // RA property: one column per operand.
                        debug_assert!(
                            std::mem::replace(&mut self.col_owner[col], self.claim) != self.claim,
                            "column conflict in one cycle (flexcheck FXC02 cdb-race)"
                        );
                        let nid = (nid_row + ic) as u32;
                        let kid = (kid_row + j) as u32;
                        let st = &mut pe_row[col];
                        // Lazy neuron delivery.
                        let naddr = match st.neurons.find(nid) {
                            Ok(a) => a,
                            Err(slot) => {
                                if self.neuron_broadcast.insert(nid) {
                                    self.fabric.vertical.broadcast(col);
                                }
                                let a = st.neurons.insert(nid, slot);
                                st.pe.load_neuron(a, self.input[(inm, ir, ic)]);
                                a
                            }
                        };
                        // Lazy kernel delivery (IPDR replica).
                        let kaddr = match st.kernels.find(kid) {
                            Ok(a) => a,
                            Err(slot) => {
                                if self.kernel_broadcast.insert(kid) {
                                    self.fabric.horizontal.broadcast(row);
                                }
                                let a = st.kernels.insert(kid, slot);
                                st.pe.load_kernel(a, self.kernels[(om, inm, i, j)]);
                                a
                            }
                        };
                        self.products.push(st.pe.multiply(naddr, kaddr));
                    }
                }
            }
            self.macs += self.products.len() as u64;
            let red = adder_tree::reduce_in_place(&mut self.products);
            self.products.clear();
            // Tree adds plus the row accumulator add.
            self.tree_adds += red.adds + 1;
            acc = acc.saturating_add(red.sum);
        }
        acc
    }
}

/// The `D×D` PE array.
///
/// # Example
///
/// ```
/// use flexflow::array::PeArray;
/// use flexsim_dataflow::Unroll;
/// use flexsim_model::{reference, ConvLayer};
///
/// let layer = ConvLayer::new("C1", 2, 1, 8, 4);
/// let (input, kernels) = reference::random_layer_data(&layer, 1);
/// let mut array = PeArray::new(4);
/// // The paper's Fig. 8 unrolling for this layer.
/// let report = array.run_layer(&layer, Unroll::new(2, 1, 1, 2, 1, 4), &input, &kernels);
/// assert_eq!(report.output, reference::conv(&layer, &input, &kernels));
/// ```
#[derive(Clone, Debug)]
pub struct PeArray {
    d: usize,
    pes: Vec<PeState>,
}

impl PeArray {
    /// Creates a `d×d` array.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "array side must be non-zero");
        PeArray {
            d,
            pes: (0..d * d).map(|_| PeState::new()).collect(),
        }
    }

    /// Engine side `D`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.d * self.d
    }

    /// Functionally executes one CONV layer under unrolling `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` violates the engine bounds, the layer is not a
    /// valid convolution (the functional model needs real operands for
    /// every window position), or its neuron or synapse count does not
    /// fit 32-bit operand ids.
    pub fn run_layer(
        &mut self,
        layer: &ConvLayer,
        u: Unroll,
        input: &Tensor3,
        kernels: &KernelSet,
    ) -> FunctionalReport {
        assert!(
            u.cols_used() <= self.d && u.rows_used() <= self.d,
            "unrolling exceeds the engine"
        );
        assert!(layer.is_valid_convolution(), "padded layers not supported");
        let sch: Schedule = schedule_default(layer, u, self.d);
        let mapping = Mapping::new(u);
        let (m, n, s, k) = (layer.m(), layer.n(), layer.s(), layer.k());
        let stride = layer.stride();
        let dilation = layer.dilation();
        let s_in = layer.input_size();
        let neuron_ids = n * s_in * s_in;
        let kernel_ids = m * n * k * k;
        assert!(
            u32::try_from(neuron_ids.max(kernel_ids)).is_ok(),
            "layer too large for 32-bit operand ids"
        );
        let kernels_persist = sch.m_groups.saturating_mul(sch.chunks) <= STORE_WORDS as u64;

        for st in self.pes.iter_mut() {
            st.neurons.clear();
            st.kernels.clear();
            st.pe.reset_counters();
        }

        // `(origin, extent)` of each tile of `len` by `t`.
        let steps = |len: usize, t: usize| (0..len).step_by(t).map(move |o| (o, t.min(len - o)));
        let mut run = LayerRun {
            input,
            kernels,
            n,
            k,
            s_in,
            chunks: steps(n, u.tn)
                .flat_map(|cn| {
                    steps(k, u.ti).flat_map(move |ci| steps(k, u.tj).map(move |cj| [cn, ci, cj]))
                })
                .collect(),
            // The residue mapping's column is a sum of an input-map, an
            // input-row and an input-column term; each is computed once
            // per map, per stripe and per column tile respectively.
            map_cols: (0..n).map(|inm| mapping.input_col(inm, 0, 0)).collect(),
            fabric: CdbFabric::new(self.d),
            neuron_broadcast: IdSet::new(neuron_ids),
            kernel_broadcast: IdSet::new(kernel_ids),
            products: Vec::with_capacity(u.cols_used()),
            col_owner: vec![usize::MAX; self.d],
            claim: 0,
            macs: 0,
            tree_adds: 0,
        };
        // The `K` taps of every output row (column) of a stripe (column
        // tile), output-major.
        let fill_taps =
            |taps: &mut Vec<Tap>, origin: usize, eff: usize, col: &dyn Fn(usize) -> usize| {
                taps.clear();
                for o in origin..origin + eff {
                    taps.extend((0..k).map(|t| {
                        let input = o * stride + t * dilation;
                        Tap {
                            input,
                            col: col(input),
                        }
                    }));
                }
            };
        let mut row_taps = Vec::with_capacity(u.tr * k);
        let mut col_taps = Vec::with_capacity(u.tc * k);
        let mut out = Tensor3::zeros(m, s, s);
        let mut cycles = 0u64;

        for (r0, tr_eff) in steps(s, u.tr) {
            fill_taps(&mut row_taps, r0, tr_eff, &|ir| mapping.input_col(0, ir, 0));
            // RS persistence: neurons stay resident along the stripe's
            // column-tile walk.
            run.neuron_broadcast.clear();
            for st in self.pes.iter_mut() {
                st.neurons.clear();
            }
            for (c0, tc_eff) in steps(s, u.tc) {
                fill_taps(&mut col_taps, c0, tc_eff, &|ic| mapping.input_col(0, 0, ic));
                if !kernels_persist {
                    run.kernel_broadcast.clear();
                    for st in self.pes.iter_mut() {
                        st.kernels.clear();
                    }
                }
                for (m0, tm_eff) in steps(m, u.tm) {
                    // One row-batch, stepped output by output (see the
                    // module docs): each output owns a PE row for all of
                    // the batch's cycles.
                    cycles += run.chunks.len() as u64;
                    for om in m0..m0 + tm_eff {
                        for r in r0..r0 + tr_eff {
                            for c in c0..c0 + tc_eff {
                                let row = mapping.output_row(om, r, c);
                                let acc = run.output(
                                    &mut self.pes[row * self.d..][..self.d],
                                    row,
                                    om,
                                    &row_taps[(r - r0) * k..][..k],
                                    &col_taps[(c - c0) * k..][..k],
                                );
                                // Writeback is pipelined under the next
                                // batch; only segment-boundary spills
                                // stall (added after the loop, mirroring
                                // the analytic model).
                                out[(om, r, c)] =
                                    apply_activation(acc.to_fx16(), layer.activation());
                            }
                        }
                    }
                }
            }
        }

        let compute_steps = cycles;
        cycles += sch.row_batches * (sch.segments - 1) * crate::analytic::SEGMENT_STALL_CYCLES
            + crate::analytic::PIPELINE_FILL_CYCLES;
        let store_reads: u64 = self.pes.iter().map(|s| s.pe.store_reads()).sum();
        let store_writes: u64 = self.pes.iter().map(|s| s.pe.store_writes()).sum();
        FunctionalReport {
            output: out,
            cycles,
            compute_steps,
            macs: run.macs,
            vertical_bus_words: run.fabric.vertical.total_words(),
            horizontal_bus_words: run.fabric.horizontal.total_words(),
            max_vertical_bus_words: run.fabric.vertical.max_bus_words(),
            max_horizontal_bus_words: run.fabric.horizontal.max_bus_words(),
            store_reads,
            store_writes,
            adder_tree_adds: run.tree_adds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim_dataflow::search;
    use flexsim_model::{reference, workloads};

    fn check_layer(layer: &ConvLayer, u: Unroll, d: usize, seed: u64) -> FunctionalReport {
        let (input, kernels) = reference::random_layer_data(layer, seed);
        let mut array = PeArray::new(d);
        let report = array.run_layer(layer, u, &input, &kernels);
        assert_eq!(
            report.output,
            reference::conv(layer, &input, &kernels),
            "functional output mismatch for {} under {u}",
            layer.name()
        );
        report
    }

    #[test]
    fn paper_example_c1_bit_exact() {
        let net = workloads::paper_example();
        let c1 = net.conv_layer("C1").unwrap();
        check_layer(c1, Unroll::new(2, 1, 1, 2, 1, 4), 4, 42);
    }

    #[test]
    fn paper_example_c2_bit_exact() {
        let net = workloads::paper_example();
        let c2 = net.conv_layer("C2").unwrap();
        check_layer(c2, Unroll::new(2, 2, 1, 2, 1, 2), 4, 43);
    }

    #[test]
    fn lenet_c3_with_planned_factors_bit_exact() {
        let net = workloads::lenet5();
        let plan = search::plan_network(&net, 16);
        for (layer, choice) in net.conv_layers().zip(&plan) {
            check_layer(layer, choice.unroll, 16, 7);
        }
    }

    #[test]
    fn cycles_match_analytic_schedule() {
        let layer = ConvLayer::new("C", 5, 3, 9, 3);
        for u in [
            Unroll::new(2, 3, 1, 3, 1, 3),
            Unroll::new(5, 1, 2, 1, 3, 3),
            Unroll::scalar(),
        ] {
            let report = check_layer(&layer, u, 16, 3);
            let sch = schedule_default(&layer, u, 16);
            assert_eq!(report.cycles, sch.cycles, "cycle mismatch under {u}");
            assert_eq!(report.macs, sch.macs);
        }
    }

    #[test]
    fn bus_words_match_analytic_traffic_when_resident() {
        // Small layer, everything fits: functional bus counts equal the
        // closed-form traffic model exactly.
        let layer = ConvLayer::new("C", 4, 2, 8, 3);
        let u = Unroll::new(4, 2, 1, 4, 1, 3);
        let report = check_layer(&layer, u, 16, 9);
        let sch = schedule_default(&layer, u, 16);
        assert_eq!(report.vertical_bus_words, sch.traffic.neuron_in);
        assert_eq!(report.horizontal_bus_words, sch.traffic.kernel_in);
    }

    #[test]
    fn store_reads_are_two_per_mac() {
        let layer = ConvLayer::new("C", 2, 2, 4, 2);
        let u = Unroll::new(2, 2, 1, 2, 2, 2);
        let report = check_layer(&layer, u, 16, 5);
        assert_eq!(report.store_reads, 2 * report.macs);
    }

    #[test]
    fn odd_unrollings_still_bit_exact() {
        // Factors that don't divide the layer dimensions exercise the
        // edge-clamping paths.
        let layer = ConvLayer::new("C", 5, 3, 7, 4);
        for u in [
            Unroll::new(3, 2, 2, 2, 2, 2),
            Unroll::new(4, 3, 1, 2, 2, 2),
            Unroll::new(1, 1, 3, 3, 1, 1),
        ] {
            check_layer(&layer, u, 16, 13);
        }
    }

    #[test]
    fn bus_load_is_balanced_across_columns() {
        // The residue mapping spreads neuron broadcasts across the
        // occupied vertical buses: the busiest bus carries no more than
        // a small multiple of the average.
        let layer = ConvLayer::new("C", 4, 2, 8, 3);
        let u = Unroll::new(4, 2, 1, 4, 1, 3);
        let (input, kernels) = reference::random_layer_data(&layer, 23);
        let mut array = PeArray::new(16);
        let report = array.run_layer(&layer, u, &input, &kernels);
        let avg = report.vertical_bus_words as f64 / u.cols_used() as f64;
        assert!(
            (report.max_vertical_bus_words as f64) < 3.0 * avg,
            "max {} vs avg {avg:.1}",
            report.max_vertical_bus_words
        );
    }

    #[test]
    fn strided_layer_bit_exact() {
        let layer = ConvLayer::new("C", 3, 2, 5, 3).with_stride(2);
        check_layer(&layer, Unroll::new(3, 2, 1, 5, 1, 3), 16, 15);
    }

    #[test]
    fn dilated_layer_bit_exact() {
        // dilation=2 with Ti=Tj=3 (coprime, so RA columns stay
        // distinct) and with the trivial Ti=Tj=1 mapping.
        let layer = ConvLayer::new("C", 3, 2, 5, 3).with_dilation(2);
        check_layer(&layer, Unroll::new(2, 1, 1, 2, 3, 3), 16, 15);
        check_layer(&layer, Unroll::new(2, 2, 2, 2, 1, 1), 16, 16);
    }

    #[test]
    fn strided_dilated_layer_bit_exact() {
        let layer = ConvLayer::new("C", 2, 1, 4, 3)
            .with_stride(2)
            .with_dilation(3);
        check_layer(&layer, Unroll::new(2, 1, 2, 2, 2, 2), 16, 17);
    }

    /// Operands that are mostly extremes or zero, so products are about
    /// ±2³⁰, partial sums saturate, and near-cancelling rows land back in
    /// range: the pinned outputs then depend on the adder tree's pairing
    /// order.
    fn saturating_layer_data(layer: &ConvLayer, seed: u64) -> (Tensor3, KernelSet) {
        let mut rng = flexsim_testkit::rng::SplitMix64::seed_from_u64(seed);
        let s_in = layer.input_size();
        let mut raw = || {
            flexsim_model::Fx16::from_raw(match rng.gen_range(0u8..=3) {
                0 => i16::MIN,
                1 => i16::MAX,
                2 => 0,
                _ => rng.gen_range(i16::MIN..=i16::MAX),
            })
        };
        let input = Tensor3::from_fn(layer.n(), s_in, s_in, |_, _, _| raw());
        let kernels = KernelSet::from_fn(layer.m(), layer.n(), layer.k(), |_, _, _, _| raw());
        (input, kernels)
    }

    /// Every [`FunctionalReport`] field of one run, on one line: the
    /// output as an FNV-1a digest of its raw Q7.8 words, then each
    /// counter by name.
    fn report_line(name: &str, u: Unroll, r: &FunctionalReport) -> String {
        let o = &r.output;
        let mut bytes = Vec::new();
        for m in 0..o.maps() {
            for row in 0..o.rows() {
                for c in 0..o.cols() {
                    bytes.extend_from_slice(&o[(m, row, c)].raw().to_le_bytes());
                }
            }
        }
        format!(
            "{name} {tm},{tn},{tr},{tc},{ti},{tj} out={maps}x{side} {digest:016x} \
             cycles={} steps={} macs={} vbus={} hbus={} vmax={} hmax={} \
             reads={} writes={} adds={}",
            r.cycles,
            r.compute_steps,
            r.macs,
            r.vertical_bus_words,
            r.horizontal_bus_words,
            r.max_vertical_bus_words,
            r.max_horizontal_bus_words,
            r.store_reads,
            r.store_writes,
            r.adder_tree_adds,
            tm = u.tm,
            tn = u.tn,
            tr = u.tr,
            tc = u.tc,
            ti = u.ti,
            tj = u.tj,
            maps = o.maps(),
            side = o.rows(),
            digest = flexsim_testkit::prop::fnv1a(&bytes),
        )
    }

    /// Every counter of [`FunctionalReport`] — not just the output —
    /// pinned on a fixed layer set. The set covers the Table 1 small
    /// layers under their planned unrollings, stride 2, dilation 2,
    /// ragged edge tiles in every dimension, a layer whose kernels do
    /// not persist (`m_groups·chunks > STORE_WORDS`, so the kernel
    /// stores also clear when full), a layer whose per-PE neuron
    /// footprint overflows the store (clear-on-full), and saturating
    /// operands that pin the adder tree's pairing order.
    #[test]
    fn every_report_field_is_pinned() {
        let table1 = |net: flexsim_model::Network, name: &str| {
            net.conv_layer(name).expect("Table 1 layer").clone()
        };
        let cases: Vec<(ConvLayer, Unroll)> = vec![
            (
                table1(workloads::lenet5(), "C1"),
                Unroll::new(2, 1, 4, 2, 5, 3),
            ),
            (
                table1(workloads::lenet5(), "C3"),
                Unroll::new(16, 3, 1, 1, 5, 1),
            ),
            (table1(workloads::pv(), "C7"), Unroll::new(2, 5, 4, 2, 3, 1)),
            (
                table1(workloads::fr(), "C3"),
                Unroll::new(16, 1, 1, 1, 4, 4),
            ),
            (table1(workloads::hg(), "C3"), Unroll::new(4, 1, 4, 1, 4, 4)),
            (
                ConvLayer::new("stride2", 4, 3, 7, 3).with_stride(2),
                Unroll::new(2, 3, 1, 4, 1, 3),
            ),
            (
                ConvLayer::new("dilation2", 3, 2, 7, 3).with_dilation(2),
                Unroll::new(2, 1, 1, 2, 3, 3),
            ),
            (
                ConvLayer::new("ragged", 5, 3, 11, 4),
                Unroll::new(3, 2, 2, 2, 2, 3),
            ),
            (
                ConvLayer::new("kernels_evict", 16, 16, 6, 3),
                Unroll::new(1, 1, 2, 2, 1, 1),
            ),
            (
                ConvLayer::new("neurons_overflow", 2, 4, 40, 3),
                Unroll::new(2, 1, 1, 2, 1, 1),
            ),
            // The ragged kernel-row chunk leaves some PEs with exactly
            // STORE_WORDS synapses per tile, the same ones every tile
            // (Tj = 1), so only the per-tile clear evicts them.
            (
                ConvLayer::new("kernels_evict_ragged", 8, 4, 6, 4),
                Unroll::new(1, 1, 2, 2, 3, 1),
            ),
        ];
        // Odd product counts (7 per row and cycle) make the tree carry
        // an operand up a level.
        let saturating = [
            (
                ConvLayer::new("saturating", 3, 4, 5, 3),
                Unroll::new(3, 4, 1, 1, 3, 1),
            ),
            (
                ConvLayer::new("saturating_odd", 2, 7, 4, 3),
                Unroll::new(2, 7, 1, 1, 1, 1),
            ),
        ];

        for (layer, u) in [&cases[8], &cases[10]] {
            let sch = schedule_default(layer, *u, 16);
            assert!(sch.m_groups * sch.chunks > STORE_WORDS as u64);
        }

        let mut got: Vec<String> = cases
            .iter()
            .enumerate()
            .map(|(seed, (layer, u))| {
                let r = check_layer(layer, *u, 16, 100 + seed as u64);
                report_line(layer.name(), *u, &r)
            })
            .collect();
        for (seed, (layer, u)) in (7..).zip(&saturating) {
            let (input, kernels) = saturating_layer_data(layer, seed);
            let r = PeArray::new(16).run_layer(layer, *u, &input, &kernels);
            got.push(report_line(layer.name(), *u, &r));
        }

        let want = [
            "C1 2,1,4,2,5,3 out=6x28 f98ba4738893b65c cycles=596 steps=588 macs=117600 vbus=1792 hbus=150 vmax=132 hmax=75 reads=235200 writes=35360 adds=117600",
            "C3 16,3,1,1,5,1 out=16x10 ef6644ff238dc0ae cycles=1008 steps=1000 macs=240000 vbus=4200 hbus=2400 vmax=280 hmax=150 reads=480000 writes=79200 adds=240000",
            "C7 2,5,4,2,3,1 out=6x4 9546056d23d739cd cycles=44 steps=36 macs=8640 vbus=360 hbus=540 vmax=24 hmax=270 reads=17280 writes=6720 adds=8640",
            "C3 16,1,1,1,4,4 out=16x10 47fb9d5141b26c41 cycles=408 steps=400 macs=102400 vbus=2080 hbus=1024 vmax=160 hmax=64 reads=204800 writes=49664 adds=102400",
            "C3 4,1,4,1,4,4 out=12x8 fe3d09b8ad58340c cycles=296 steps=288 macs=73728 vbus=924 hbus=1152 vmax=72 hmax=288 reads=147456 writes=26880 adds=73728",
            "stride2 2,3,1,4,1,3 out=4x7 e220684cf180b6e1 cycles=92 steps=84 macs=5292 vbus=945 hbus=108 vmax=105 hmax=54 reads=10584 writes=3402 adds=5292",
            "dilation2 2,1,1,2,3,3 out=3x7 92040748ce43e6c2 cycles=120 steps=112 macs=2646 vbus=462 hbus=54 vmax=56 hmax=36 reads=5292 writes=1896 adds=2646",
            "ragged 3,2,2,2,2,3 out=5x11 7a5dc019a01edc42 cycles=584 steps=576 macs=29040 vbus=1218 hbus=240 vmax=170 hmax=96 reads=58080 writes=13176 adds=29040",
            "kernels_evict 1,1,2,2,1,1 out=16x6 88b2b3f1e7e777c4 cycles=21032 steps=20736 macs=82944 vbus=1536 hbus=20736 vmax=1536 hmax=20736 reads=165888 writes=165888 adds=82944",
            "neurons_overflow 2,1,1,2,1,1 out=2x40 7a7c568018c7c4ac cycles=28808 steps=28800 macs=115200 vbus=20160 hbus=72 vmax=20160 hmax=36 reads=230400 writes=85104 adds=115200",
            "kernels_evict_ragged 1,1,2,2,3,1 out=8x6 c889216bd3e5b62a cycles=2312 steps=2304 macs=18432 vbus=540 hbus=4608 vmax=180 hmax=4608 reads=36864 writes=19968 adds=18432",
            "saturating 3,4,1,1,3,1 out=3x5 91c72343c484e35d cycles=83 steps=75 macs=2700 vbus=420 hbus=108 vmax=35 hmax=36 reads=5400 writes=1584 adds=2700",
            "saturating_odd 2,7,1,1,1,1 out=2x4 82ceab9783aa59cc cycles=152 steps=144 macs=2016 vbus=504 hbus=126 vmax=72 hmax=63 reads=4032 writes=1134 adds=2016",
        ];
        assert_eq!(got, want);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "FXC02")]
    fn column_conflict_trips_the_ra_guard() {
        // dilation 2 with Ti = 2: taps i = 0 and i = 1 read input rows
        // r and r + 2, which share a residue mod Ti, so two operands of
        // one cycle land on the same PE column.
        let layer = ConvLayer::new("C", 2, 1, 4, 3).with_dilation(2);
        let (input, kernels) = reference::random_layer_data(&layer, 1);
        PeArray::new(16).run_layer(&layer, Unroll::new(1, 1, 1, 1, 2, 1), &input, &kernels);
    }
}
