//! Spatial observability: per-PE heatmaps, per-bank occupancy
//! watermarks, and contention matrices.
//!
//! Every surface in [`crate::attrib`] is *aggregate*: a
//! [`LossLedger`] says how many PE-cycles a layer lost to
//! `edge-fragmentation`, but not **which rows and columns** of the
//! array sat idle. This module adds the spatial axis. Each simulator
//! folds its per-step activity into a [`LayerSpatial`] — one per
//! (architecture, layer) — through a [`HeatmapBuilder`] whose
//! accounting is *exact by construction*:
//!
//! * a uniform stall of `c` cycles costs every cell exactly `c` lost
//!   PE-cycles (the array is idle wall-to-wall), so stalls accumulate
//!   in one per-cause scalar folded into every cell at
//!   [`HeatmapBuilder::finish`];
//! * a compute pass of `cap` cycles per cell distributes its useful
//!   MACs over the active cells with [`distribute`] (floor share plus
//!   one for the first `total % n` cells — deterministic and
//!   remainder-exact), charging each active cell `cap − share` and
//!   each inactive cell the full `cap` to the pass's residue cause.
//!
//! Summing any cause over all cells therefore reproduces the ledger's
//! `lost(cause)` *exactly*, and summing the busy plane reproduces
//! `busy_pe_cycles` — the FXC13 spatial-exactness identity flexcheck
//! verifies per layer.
//!
//! Delivery mirrors [`crate::cycles`]: simulators hold a cheap
//! [`SpatialHandle`] (disabled by default, one branch per layer when
//! detached) and submit one finished [`LayerSpatial`] per layer;
//! the [`SpatialRecorder`] collects them in memory for the
//! `flexsim heatmap` report, Chrome-trace counter tracks, and metrics
//! mirrors.
//!
//! [`LossLedger`]: crate::attrib::LossLedger

use crate::attrib::StallCause;
use crate::metrics::Registry;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A rectangular block of active PE cells, in array coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellRect {
    /// First active row.
    pub row: usize,
    /// First active column.
    pub col: usize,
    /// Active rows.
    pub rows: usize,
    /// Active columns.
    pub cols: usize,
}

impl CellRect {
    /// The whole `rows × cols` array.
    pub fn full(rows: usize, cols: usize) -> CellRect {
        CellRect {
            row: 0,
            col: 0,
            rows,
            cols,
        }
    }

    /// Number of cells covered.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the rect covers no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Splits `total` over `n` slots exactly: every slot gets
/// `total / n`, and the first `total % n` slots get one more. The
/// shares always sum to `total`.
pub fn distribute(total: u64, n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    let base = total / n as u64;
    let extra = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < extra)).collect()
}

/// A symmetric who-collided-with-whom matrix over `ports` resource
/// ports (adder-tree row ports, CDB writeback slots). Pairs are
/// normalized to `(lo, hi)` so each unordered pair is counted once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContentionMatrix {
    ports: usize,
    counts: Vec<u64>,
}

impl ContentionMatrix {
    /// An empty matrix over `ports` ports.
    pub fn new(ports: usize) -> ContentionMatrix {
        ContentionMatrix {
            ports,
            counts: vec![0; ports * ports],
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Records `weight` collisions between ports `a` and `b`
    /// (self-pairs are ignored — a port cannot collide with itself).
    ///
    /// # Panics
    ///
    /// Panics when a port index is out of range.
    pub fn record(&mut self, a: usize, b: usize, weight: u64) {
        assert!(a < self.ports && b < self.ports, "port out of range");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        self.counts[lo * self.ports + hi] += weight;
    }

    /// The collision count of the unordered pair `(a, b)`.
    pub fn get(&self, a: usize, b: usize) -> u64 {
        if a == b || a >= self.ports || b >= self.ports {
            return 0;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        self.counts[lo * self.ports + hi]
    }

    /// Total collisions across all pairs.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Non-zero pairs as `(a, b, count)` with `a < b`, ascending.
    pub fn pairs(&self) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for a in 0..self.ports {
            for b in (a + 1)..self.ports {
                let c = self.counts[a * self.ports + b];
                if c > 0 {
                    out.push((a, b, c));
                }
            }
        }
        out
    }

    /// True when no collision was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// Occupancy watermarks for one buffer bank: the high-water word
/// count and the cycle-weighted mean over the layer's duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BankWatermark {
    /// Bank name (`"neuron-in"`, `"kernel"`, `"neuron-out"`,
    /// `"local-store"`).
    pub bank: String,
    /// Bank capacity in 16-bit words.
    pub capacity_words: u64,
    /// Highest observed resident word count.
    pub high_water_words: u64,
    /// Σ words × cycles over every sample (the mean's numerator).
    pub weighted_word_cycles: u64,
    /// Σ cycles over every sample. FXC13 requires this to equal the
    /// layer's total cycles — a dropped sample is a hole in the
    /// occupancy story and fails the gate.
    pub sampled_cycles: u64,
}

impl BankWatermark {
    /// A bank with no samples yet.
    pub fn new(bank: impl Into<String>, capacity_words: u64) -> BankWatermark {
        BankWatermark {
            bank: bank.into(),
            capacity_words,
            high_water_words: 0,
            weighted_word_cycles: 0,
            sampled_cycles: 0,
        }
    }

    /// Records `words` resident for `cycles` cycles.
    pub fn sample(&mut self, words: u64, cycles: u64) {
        self.high_water_words = self.high_water_words.max(words);
        self.weighted_word_cycles += words * cycles;
        self.sampled_cycles += cycles;
    }

    /// Time-weighted mean resident words (0 with no samples).
    pub fn mean_words(&self) -> f64 {
        if self.sampled_cycles == 0 {
            return 0.0;
        }
        self.weighted_word_cycles as f64 / self.sampled_cycles as f64
    }
}

/// The finished spatial record of one (architecture, layer) pair: the
/// per-PE busy/loss planes, bank watermarks, and contention matrices.
///
/// Planes are row-major `rows × cols` with `rows * cols ==` the
/// simulator's PE count. The exactness contract (flexcheck FXC13):
/// `Σ busy == ledger.busy_pe_cycles` and for every cause
/// `Σ lost[cause] == ledger.lost(cause)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerSpatial {
    /// Architecture name.
    pub arch: String,
    /// Layer name.
    pub layer: String,
    /// Array rows.
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// The layer's total cycles.
    pub total_cycles: u64,
    /// Row-major busy PE-cycles per cell.
    pub busy: Vec<u64>,
    /// Row-major lost PE-cycles per cell, indexed by
    /// [`StallCause::index`].
    pub lost: Vec<[u64; StallCause::COUNT]>,
    /// Buffer-bank occupancy watermarks.
    pub banks: Vec<BankWatermark>,
    /// Adder-tree row-port contention (who shared a port with whom).
    pub adder_tree: ContentionMatrix,
    /// CDB writeback contention.
    pub cdb: ContentionMatrix,
}

impl LayerSpatial {
    /// `rows × cols`.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Busy PE-cycles of cell `(row, col)`.
    pub fn busy_at(&self, row: usize, col: usize) -> u64 {
        self.busy[row * self.cols + col]
    }

    /// Lost PE-cycles of cell `(row, col)` attributed to `cause`.
    pub fn lost_at(&self, row: usize, col: usize, cause: StallCause) -> u64 {
        self.lost[row * self.cols + col][cause.index()]
    }

    /// Σ busy over all cells (== `busy_pe_cycles` under FXC13).
    pub fn busy_total(&self) -> u64 {
        self.busy.iter().sum()
    }

    /// Σ `lost[cause]` over all cells (== `ledger.lost(cause)` under
    /// FXC13).
    pub fn lost_total(&self, cause: StallCause) -> u64 {
        self.lost.iter().map(|l| l[cause.index()]).sum()
    }

    /// Busy fraction of cell `(row, col)` in `[0, 1]`.
    pub fn busy_frac(&self, row: usize, col: usize) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.busy_at(row, col) as f64 / self.total_cycles as f64
    }

    /// Mirrors this record into the metrics registry: per-cell busy
    /// and lost planes, per-cause loss totals, per-bank high-water
    /// marks, and contention totals — so live metrics and the heatmap
    /// report can never disagree.
    pub fn mirror(&self, reg: &Registry) {
        let arch = self.arch.as_str();
        let layer = self.layer.as_str();
        for row in 0..self.rows {
            for col in 0..self.cols {
                let (r, c) = (row.to_string(), col.to_string());
                let labels = [
                    ("arch", arch),
                    ("layer", layer),
                    ("row", r.as_str()),
                    ("col", c.as_str()),
                ];
                reg.add("spatial_busy_pe_cycles", &labels, self.busy_at(row, col));
                let lost: u64 = self.lost[row * self.cols + col].iter().sum();
                reg.add("spatial_lost_pe_cycles", &labels, lost);
            }
        }
        for cause in StallCause::ALL {
            reg.add(
                "spatial_lost_pe_cycles_by_cause",
                &[("arch", arch), ("layer", layer), ("cause", cause.name())],
                self.lost_total(cause),
            );
        }
        for bank in &self.banks {
            reg.add(
                "spatial_bank_high_water_words",
                &[("arch", arch), ("layer", layer), ("bank", &bank.bank)],
                bank.high_water_words,
            );
        }
        reg.add(
            "spatial_adder_tree_collisions",
            &[("arch", arch), ("layer", layer)],
            self.adder_tree.total(),
        );
        reg.add(
            "spatial_cdb_collisions",
            &[("arch", arch), ("layer", layer)],
            self.cdb.total(),
        );
    }
}

/// Accumulates one layer's spatial activity with remainder-exact
/// accounting (see the module docs for the identity argument).
///
/// Internally loss is kept factored: a per-cause *uniform* scalar
/// (stall cycles plus per-cell pass capacity, both charged to every
/// cell identically) and a per-cell *credit* plane (the MAC share an
/// active cell earned back). [`HeatmapBuilder::finish`] resolves
/// `lost[cell][cause] = uniform[cause] − credit[cell][cause]`.
#[derive(Clone, Debug)]
pub struct HeatmapBuilder {
    arch: String,
    layer: String,
    rows: usize,
    cols: usize,
    total_cycles: u64,
    busy: Vec<u64>,
    credit: Vec<[u64; StallCause::COUNT]>,
    uniform: [u64; StallCause::COUNT],
    banks: Vec<BankWatermark>,
    adder_tree: ContentionMatrix,
    cdb: ContentionMatrix,
}

impl HeatmapBuilder {
    /// A builder for one `rows × cols` layer run of `total_cycles`.
    pub fn new(
        arch: impl Into<String>,
        layer: impl Into<String>,
        rows: usize,
        cols: usize,
        total_cycles: u64,
    ) -> HeatmapBuilder {
        let cells = rows * cols;
        HeatmapBuilder {
            arch: arch.into(),
            layer: layer.into(),
            rows,
            cols,
            total_cycles,
            busy: vec![0; cells],
            credit: vec![[0; StallCause::COUNT]; cells],
            uniform: [0; StallCause::COUNT],
            banks: Vec::new(),
            adder_tree: ContentionMatrix::new(0),
            cdb: ContentionMatrix::new(0),
        }
    }

    /// A whole-array stall of `cycles` cycles attributed to `cause`:
    /// every cell loses exactly `cycles` PE-cycles.
    pub fn stall(&mut self, cause: StallCause, cycles: u64) {
        self.uniform[cause.index()] += cycles;
    }

    /// `repeat` identical compute passes, each of `cap_per_cell` cycles
    /// per cell whose `macs` useful work ran on the cells covered by
    /// `rects` (disjoint, in-bounds). Each pass's active cells split its
    /// `macs` via [`distribute`] and lose the rest to `cause`; cells
    /// outside the rects lose the full `cap_per_cell`. The result is
    /// exactly that of `repeat` single passes: one pass's shares are
    /// split once and multiplied, never the `repeat · macs` total (whose
    /// remainder would land on different cells).
    ///
    /// # Panics
    ///
    /// Panics when a rect runs out of bounds or `macs` exceeds the
    /// active capacity `cap_per_cell × Σ rect cells`.
    pub fn pass(
        &mut self,
        cause: StallCause,
        rects: &[CellRect],
        cap_per_cell: u64,
        macs: u64,
        repeat: u64,
    ) {
        let mut active: Vec<usize> = Vec::new();
        for rect in rects {
            assert!(
                rect.row + rect.rows <= self.rows && rect.col + rect.cols <= self.cols,
                "active rect out of array bounds"
            );
            for r in rect.row..rect.row + rect.rows {
                for c in rect.col..rect.col + rect.cols {
                    active.push(r * self.cols + c);
                }
            }
        }
        assert!(
            macs <= cap_per_cell.saturating_mul(active.len() as u64),
            "pass MACs exceed active capacity"
        );
        self.uniform[cause.index()] += repeat * cap_per_cell;
        let shares = distribute(macs, active.len());
        for (cell, share) in active.into_iter().zip(shares) {
            self.busy[cell] += repeat * share;
            self.credit[cell][cause.index()] += repeat * share;
        }
    }

    /// Records `words` resident in `bank` for `cycles` cycles,
    /// creating the bank (with `capacity_words`) on first touch.
    pub fn bank_sample(&mut self, bank: &str, capacity_words: u64, words: u64, cycles: u64) {
        let entry = match self.banks.iter_mut().find(|b| b.bank == bank) {
            Some(b) => b,
            None => {
                self.banks.push(BankWatermark::new(bank, capacity_words));
                self.banks.last_mut().expect("just pushed")
            }
        };
        entry.sample(words, cycles);
    }

    /// Installs the adder-tree row-port contention matrix.
    pub fn set_adder_tree(&mut self, m: ContentionMatrix) {
        self.adder_tree = m;
    }

    /// Installs the CDB writeback contention matrix.
    pub fn set_cdb(&mut self, m: ContentionMatrix) {
        self.cdb = m;
    }

    /// Resolves the factored loss planes into the finished record.
    ///
    /// # Panics
    ///
    /// Panics if any cell earned more credit than the uniform charge —
    /// impossible when every pass respected its capacity bound.
    pub fn finish(self) -> LayerSpatial {
        let lost = self
            .credit
            .iter()
            .map(|credit| {
                let mut cell = [0u64; StallCause::COUNT];
                for (i, c) in cell.iter_mut().enumerate() {
                    *c = self.uniform[i]
                        .checked_sub(credit[i])
                        .expect("cell credit exceeds uniform charge");
                }
                cell
            })
            .collect();
        LayerSpatial {
            arch: self.arch,
            layer: self.layer,
            rows: self.rows,
            cols: self.cols,
            total_cycles: self.total_cycles,
            busy: self.busy,
            lost,
            banks: self.banks,
            adder_tree: self.adder_tree,
            cdb: self.cdb,
        }
    }
}

/// Receives one finished [`LayerSpatial`] per simulated layer.
///
/// All methods default to no-ops so a detached simulator pays one
/// branch per *layer* (not per step) for the instrumentation.
pub trait SpatialSink: Send + Sync {
    /// Accepts a finished layer record.
    fn record_layer(&self, _layer: LayerSpatial) {}

    /// Whether emission is worth the work. Simulators skip building
    /// heatmaps entirely when this is false.
    fn enabled(&self) -> bool {
        false
    }
}

/// The unit sink: discards everything (useful as an explicit no-op).
impl SpatialSink for () {}

/// A cheaply clonable handle to an optional shared [`SpatialSink`] —
/// the spatial twin of [`crate::cycles::SinkHandle`]. The default
/// handle is detached: not attached, not enabled, all emission
/// no-ops.
#[derive(Clone, Default)]
pub struct SpatialHandle(Option<Arc<dyn SpatialSink>>);

impl fmt::Debug for SpatialHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("SpatialHandle(attached)"),
            None => f.write_str("SpatialHandle(none)"),
        }
    }
}

impl SpatialHandle {
    /// The detached handle.
    pub fn none() -> SpatialHandle {
        SpatialHandle(None)
    }

    /// A handle delivering to `sink`.
    pub fn new(sink: Arc<dyn SpatialSink>) -> SpatialHandle {
        SpatialHandle(Some(sink))
    }

    /// Whether a sink is attached at all.
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// Whether the attached sink wants events.
    pub fn enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|s| s.enabled())
    }

    /// Forwards a finished layer record to the sink, if any.
    pub fn record_layer(&self, layer: LayerSpatial) {
        if let Some(sink) = &self.0 {
            sink.record_layer(layer);
        }
    }
}

/// An in-memory [`SpatialSink`] that collects every submitted layer
/// record, in submission order.
#[derive(Debug, Default)]
pub struct SpatialRecorder {
    inner: Mutex<Vec<LayerSpatial>>,
}

impl SpatialRecorder {
    /// An empty recorder.
    pub fn new() -> SpatialRecorder {
        SpatialRecorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<LayerSpatial>> {
        // A panicked submitter cannot corrupt a Vec of finished
        // records; recover the data rather than poisoning the run.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Removes and returns everything recorded so far.
    pub fn take(&self) -> Vec<LayerSpatial> {
        std::mem::take(&mut *self.lock())
    }
}

impl SpatialSink for SpatialRecorder {
    fn record_layer(&self, layer: LayerSpatial) {
        self.lock().push(layer);
    }

    fn enabled(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_is_remainder_exact() {
        for (total, n) in [(0u64, 4usize), (7, 3), (12, 4), (5, 1), (3, 7)] {
            let shares = distribute(total, n);
            assert_eq!(shares.len(), n);
            assert_eq!(shares.iter().sum::<u64>(), total, "total={total} n={n}");
            let spread = shares.iter().max().unwrap_or(&0) - shares.iter().min().unwrap_or(&0);
            assert!(spread <= 1, "uneven split {shares:?}");
        }
        assert!(distribute(9, 0).is_empty());
    }

    #[test]
    fn builder_accounts_exactly() {
        // 2×2 array, one 3-cycle fill stall, one pass of 10 cycles/cell
        // on a 1×2 active rect carrying 14 MACs.
        let mut b = HeatmapBuilder::new("A", "L", 2, 2, 13);
        b.stall(StallCause::PipelineFill, 3);
        b.pass(
            StallCause::MappingResidueIdle,
            &[CellRect {
                row: 0,
                col: 0,
                rows: 1,
                cols: 2,
            }],
            10,
            14,
            1,
        );
        let s = b.finish();
        // Busy: 14 MACs split 7/7 over the two active cells.
        assert_eq!(s.busy_total(), 14);
        assert_eq!(s.busy_at(0, 0), 7);
        assert_eq!(s.busy_at(0, 1), 7);
        assert_eq!(s.busy_at(1, 0), 0);
        // Fill: 3 lost per cell, uniformly.
        assert_eq!(s.lost_total(StallCause::PipelineFill), 3 * 4);
        // Residue: active cells lose 10−7=3 each, inactive the full 10.
        assert_eq!(s.lost_at(0, 0, StallCause::MappingResidueIdle), 3);
        assert_eq!(s.lost_at(1, 1, StallCause::MappingResidueIdle), 10);
        assert_eq!(
            s.lost_total(StallCause::MappingResidueIdle),
            3 + 3 + 10 + 10
        );
        // The ledger identity: busy + Σ lost == cycles × PEs.
        let lost: u64 = StallCause::ALL.iter().map(|&c| s.lost_total(c)).sum();
        assert_eq!(s.busy_total() + lost, 13 * 4);
    }

    #[test]
    fn uneven_macs_spill_to_lowest_index_cells() {
        let mut b = HeatmapBuilder::new("A", "L", 1, 3, 5);
        b.pass(
            StallCause::EdgeFragmentation,
            &[CellRect::full(1, 3)],
            5,
            7,
            1,
        );
        let s = b.finish();
        assert_eq!(s.busy, vec![3, 2, 2]);
        assert_eq!(s.lost_total(StallCause::EdgeFragmentation), 15 - 7);
    }

    #[test]
    fn repeated_pass_equals_that_many_single_passes() {
        // 7 MACs over 3 cells leave a remainder: repeating the split
        // shares ([3, 2, 2] × 4) differs from splitting 28 ([10, 9, 9]).
        let rects = [
            CellRect::full(1, 3),
            CellRect {
                row: 1,
                col: 1,
                rows: 1,
                cols: 1,
            },
        ];
        for repeat in [0u64, 1, 4, 13] {
            let mut once = HeatmapBuilder::new("A", "L", 2, 3, 5 * repeat);
            once.pass(StallCause::EdgeFragmentation, &rects, 5, 7, repeat);
            let mut each = HeatmapBuilder::new("A", "L", 2, 3, 5 * repeat);
            for _ in 0..repeat {
                each.pass(StallCause::EdgeFragmentation, &rects, 5, 7, 1);
            }
            assert_eq!(once.finish(), each.finish(), "repeat {repeat}");
        }
        let mut b = HeatmapBuilder::new("A", "L", 1, 3, 20);
        b.pass(
            StallCause::EdgeFragmentation,
            &[CellRect::full(1, 3)],
            5,
            7,
            4,
        );
        assert_eq!(b.finish().busy, vec![12, 8, 8]);
    }

    #[test]
    #[should_panic(expected = "pass MACs exceed active capacity")]
    fn overfull_pass_is_rejected() {
        let mut b = HeatmapBuilder::new("A", "L", 2, 2, 10);
        b.pass(
            StallCause::MappingResidueIdle,
            &[CellRect::full(1, 1)],
            10,
            11,
            1,
        );
    }

    #[test]
    fn bank_samples_track_high_water_and_mean() {
        let mut b = HeatmapBuilder::new("A", "L", 1, 1, 30);
        b.bank_sample("neuron-in", 100, 80, 10);
        b.bank_sample("neuron-in", 100, 20, 20);
        b.bank_sample("kernel", 50, 50, 30);
        let s = b.finish();
        assert_eq!(s.banks.len(), 2);
        let nin = &s.banks[0];
        assert_eq!(nin.bank, "neuron-in");
        assert_eq!(nin.high_water_words, 80);
        assert_eq!(nin.sampled_cycles, 30);
        assert!((nin.mean_words() - 40.0).abs() < 1e-12);
        assert_eq!(s.banks[1].high_water_words, 50);
    }

    #[test]
    fn contention_matrix_normalizes_pairs() {
        let mut m = ContentionMatrix::new(4);
        m.record(2, 1, 5);
        m.record(1, 2, 3);
        m.record(3, 3, 100); // self-pair: ignored
        assert_eq!(m.get(1, 2), 8);
        assert_eq!(m.get(2, 1), 8);
        assert_eq!(m.get(3, 3), 0);
        assert_eq!(m.total(), 8);
        assert_eq!(m.pairs(), vec![(1, 2, 8)]);
        assert!(!m.is_empty());
        assert!(ContentionMatrix::new(0).is_empty());
    }

    #[test]
    fn default_handle_is_detached_and_silent() {
        let h = SpatialHandle::default();
        assert!(!h.is_attached());
        assert!(!h.enabled());
        h.record_layer(HeatmapBuilder::new("A", "L", 1, 1, 0).finish());
        // The unit sink is attached but still disabled.
        let unit = SpatialHandle::new(Arc::new(()));
        assert!(unit.is_attached());
        assert!(!unit.enabled());
        assert_eq!(format!("{h:?}"), "SpatialHandle(none)");
        assert_eq!(format!("{unit:?}"), "SpatialHandle(attached)");
    }

    #[test]
    fn recorder_round_trips_layers_in_order() {
        let rec = Arc::new(SpatialRecorder::new());
        let h = SpatialHandle::new(rec.clone());
        assert!(h.enabled());
        h.record_layer(HeatmapBuilder::new("A", "L1", 2, 2, 10).finish());
        h.record_layer(HeatmapBuilder::new("A", "L2", 2, 2, 20).finish());
        let layers = rec.take();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].layer, "L1");
        assert_eq!(layers[1].layer, "L2");
        assert!(rec.take().is_empty());
    }

    #[test]
    fn mirror_writes_cell_and_summary_counters() {
        let mut b = HeatmapBuilder::new("FlexFlow", "C1", 1, 2, 10);
        b.pass(
            StallCause::MappingResidueIdle,
            &[CellRect::full(1, 2)],
            10,
            12,
            1,
        );
        b.bank_sample("kernel", 64, 32, 10);
        let s = b.finish();
        let reg = Registry::new();
        s.mirror(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get(
                "spatial_busy_pe_cycles",
                &[
                    ("arch", "FlexFlow"),
                    ("layer", "C1"),
                    ("row", "0"),
                    ("col", "0")
                ],
            ),
            6
        );
        assert_eq!(
            snap.get(
                "spatial_lost_pe_cycles_by_cause",
                &[
                    ("arch", "FlexFlow"),
                    ("layer", "C1"),
                    ("cause", "mapping-residue-idle"),
                ],
            ),
            8
        );
        assert_eq!(
            snap.get(
                "spatial_bank_high_water_words",
                &[("arch", "FlexFlow"), ("layer", "C1"), ("bank", "kernel")],
            ),
            32
        );
    }
}
