//! The report layer's metric sketches and the budgets [`MetricsConfig`] hands them.
//!
//! Both accumulation modes record into the same sketches: exact mode gives them no
//! budget, streaming mode fixes one, so report memory is O(budgets + nodes) instead
//! of O(events) and run length is capped by the engine, not the report layer.
//!
//! * [`FixedBinHistogram`] — integer-count latency histogram with an exact,
//!   commutative merge and a deterministic ceil-rank quantile that is within one
//!   bin width of the exact order statistic.
//! * [`CurveRing`] — a bounded curve buffer that downsamples by merging adjacent
//!   sample pairs (keeping the later sample, correct for cumulative/monotone
//!   curves) whenever the budget fills; the effective sampling stride doubles at
//!   each merge level.
//! * [`WindowLedger`] — per-window expected/delivered counters over a block tree
//!   that coarsens by merging adjacent windows when the block budget fills. The
//!   final coarsening level is a function of the *content* only (the smallest
//!   level whose distinct block count fits the budget), so any insertion or
//!   shard-merge order converges to the same blocks — the property that makes
//!   streaming reports shard-count invariant.
//! * [`SeqDedup`] — per-receiver sequence-number bitmaps for duplicate detection:
//!   one bit per sequence, circular over a fixed window when budgeted.
//!
//! All sketches merge with integer arithmetic in any order (or, for `SeqDedup`,
//! over node-disjoint pieces), which is what keeps the sharded engine's streaming
//! reports byte-identical across shard counts.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Streaming latency histogram bin width: 2 ms.
const LATENCY_BIN_WIDTH_NS: u64 = 2_000_000;
/// Streaming latency histogram bins; later delays land in the overflow counter.
const LATENCY_BINS: u32 = 512;
/// Streaming availability-ledger block budget.
const WINDOW_BUDGET: usize = 512;
/// Streaming lifetime-curve point budget.
const CURVE_BUDGET: usize = 512;
/// Streaming per-receiver duplicate-detection window, in sequence numbers.
const DEDUP_WINDOW: u64 = 1024;

/// How the report layer accumulates per-packet and per-epoch observations, carried by
/// `Scenario`/`SimSetup`. Both modes record into the same sketches and differ only in
/// the budgets those sketches get.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricsConfig {
    /// No budgets: duplicate state never lapses, the availability ledger and the
    /// lifetime curves keep every window and sample, and no latency histogram is kept.
    /// Its reports are the ones the byte-identical goldens pin.
    #[default]
    Exact,
    /// Fixed budgets: a 512 × 2 ms latency histogram, 512 availability blocks, 512
    /// points per lifetime curve and a 1024-sequence dedup window per receiver, so
    /// memory is O(budgets + nodes), not O(events). Scalar metrics (PDR, mean latency,
    /// energy totals, time-to-first-death) stay bit-equal to `Exact`; quantiles come
    /// from the histogram (within one bin width), curves are downsampled, and a
    /// reception lapping the dedup window counts as a duplicate.
    Streaming,
}

impl MetricsConfig {
    /// Exact accumulation — the historical default.
    pub fn exact() -> Self {
        MetricsConfig::Exact
    }

    /// Streaming accumulation.
    pub fn streaming() -> Self {
        MetricsConfig::Streaming
    }

    /// True when the sketches run on their streaming budgets.
    pub fn is_streaming(&self) -> bool {
        *self == MetricsConfig::Streaming
    }

    /// The per-receiver window for [`SeqDedup::new`]; never lapses in exact mode.
    pub fn dedup_window(&self) -> u64 {
        if self.is_streaming() {
            DEDUP_WINDOW
        } else {
            u64::MAX
        }
    }

    /// The block budget for [`WindowLedger::bounded`]; unbounded in exact mode.
    pub fn window_budget(&self) -> usize {
        if self.is_streaming() {
            WINDOW_BUDGET
        } else {
            usize::MAX
        }
    }

    /// The point budget for [`CurveRing::with_budget`]; unbounded in exact mode.
    pub fn curve_budget(&self) -> usize {
        if self.is_streaming() {
            CURVE_BUDGET
        } else {
            usize::MAX
        }
    }

    /// An empty latency histogram in streaming mode; exact mode keeps none.
    pub fn latency_histogram(&self) -> Option<FixedBinHistogram> {
        self.is_streaming().then(|| FixedBinHistogram::new(LATENCY_BIN_WIDTH_NS, LATENCY_BINS))
    }
}

/// Summary of the streaming sketches attached to a report produced in
/// [`MetricsConfig::Streaming`]. Quantiles are computed from the (shard-)merged
/// histogram, never from an order-dependent estimator, so they are identical
/// for any shard count.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamingStats {
    /// Latency histogram bin width (ms); quantiles are exact to within one bin.
    pub latency_bin_width_ms: f64,
    /// Median delivery latency (ms) from the merged histogram.
    pub latency_p50_ms: f64,
    /// 95th-percentile delivery latency (ms) from the merged histogram.
    pub latency_p95_ms: f64,
    /// Exact maximum delivery latency (ms).
    pub latency_max_ms: f64,
    /// Deliveries whose latency exceeded the histogram range.
    pub latency_overflow: u64,
    /// Availability-ledger coarsening level (windows per block = 2^level).
    pub window_level: u32,
    /// Availability-ledger blocks retained after merging.
    pub window_blocks: u64,
    /// Approximate report-layer bytes held by the merged traces (data-size
    /// lower bound; excludes allocator/hash overhead).
    pub report_bytes: u64,
}

/// Fixed-width integer-count histogram with an exact commutative merge.
///
/// `quantile_ns` uses the ceil-rank convention (the rank-`⌈q·n⌉` order
/// statistic) with deterministic within-bin linear interpolation, clamped to
/// the exact tracked maximum, so the result is always within one bin width of
/// the exact order statistic.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedBinHistogram {
    bin_width_ns: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    max_ns: u64,
}

impl FixedBinHistogram {
    /// A histogram with `bins` bins of `bin_width_ns` nanoseconds each.
    pub fn new(bin_width_ns: u64, bins: u32) -> Self {
        FixedBinHistogram {
            bin_width_ns: bin_width_ns.max(1),
            counts: vec![0; bins.max(1) as usize],
            overflow: 0,
            total: 0,
            max_ns: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        let bin = (ns / self.bin_width_ns) as usize;
        match self.counts.get_mut(bin) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Merge another histogram of identical shape. Integer sums, so merges
    /// commute and associate exactly.
    pub fn absorb(&mut self, other: &FixedBinHistogram) {
        assert_eq!(self.bin_width_ns, other.bin_width_ns, "histogram bin widths must match");
        assert_eq!(self.counts.len(), other.counts.len(), "histogram bin counts must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples beyond the binned range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Exact maximum recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Bin width in nanoseconds.
    pub fn bin_width_ns(&self) -> u64 {
        self.bin_width_ns
    }

    /// The `q`-quantile in nanoseconds (ceil-rank, interpolated within the
    /// bin, clamped to the exact maximum). Overflowed ranks report the maximum.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if rank <= next {
                let lo = (i as u64 * self.bin_width_ns) as f64;
                let frac = (rank - cum) as f64 / c as f64;
                return (lo + frac * self.bin_width_ns as f64).min(self.max_ns as f64);
            }
            cum = next;
        }
        self.max_ns as f64
    }

    /// Approximate bytes held (data-size lower bound).
    pub fn mem_bytes(&self) -> u64 {
        self.counts.len() as u64 * 8 + 40
    }
}

/// Bounded curve buffer. While within budget it stores every pushed sample;
/// when the budget fills it merges adjacent sample pairs keeping the *later*
/// sample of each (the right law for cumulative/monotone curves such as alive
/// counts and delivery ratios) and doubles the sampling stride. With a
/// `usize::MAX` budget it never merges and holds every sample, like a plain `Vec`.
#[derive(Clone, Debug, PartialEq)]
pub struct CurveRing<T> {
    budget: usize,
    level: u32,
    raw: u64,
    samples: Vec<T>,
}

impl<T: Copy> CurveRing<T> {
    /// A ring holding at most `budget` points (forced even, minimum 2; `usize::MAX`
    /// is unbounded).
    pub fn with_budget(budget: usize) -> Self {
        let budget = if budget == usize::MAX { budget } else { budget.max(2) & !1 };
        CurveRing { budget, level: 0, raw: 0, samples: Vec::new() }
    }

    /// Push the next raw sample. At level `L` only every `2^L`-th raw sample is
    /// committed; a commit that fills the budget halves the buffer (keeping the
    /// later sample of each adjacent pair) and increments the level.
    pub fn push(&mut self, v: T) {
        self.raw += 1;
        let stride = 1u64 << self.level.min(63);
        if !self.raw.is_multiple_of(stride) {
            return;
        }
        self.samples.push(v);
        if self.samples.len() >= self.budget {
            let mut w = 0;
            let mut r = 1;
            while r < self.samples.len() {
                self.samples[w] = self.samples[r];
                w += 1;
                r += 2;
            }
            self.samples.truncate(w);
            self.level = (self.level + 1).min(63);
        }
    }

    /// The committed samples; sample `i` is the raw sample at index
    /// `(i + 1) * stride()` (1-based) of the pushed sequence.
    pub fn samples(&self) -> &[T] {
        &self.samples
    }

    /// Raw samples represented per committed point.
    pub fn stride(&self) -> u64 {
        1u64 << self.level.min(63)
    }

    /// Number of budget-halving merges performed.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Total raw samples pushed.
    pub fn raw_len(&self) -> u64 {
        self.raw
    }

    /// Committed samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no sample has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// One availability block: deliveries expected and observed for a (possibly
/// coarsened) run of adjacent windows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WindowCell {
    expected: u64,
    delivered: u64,
}

/// Per-window expected/delivered counters with a fixed block budget.
///
/// Blocks are keyed by `window >> level`. When the budget is exceeded the level
/// increments and adjacent blocks merge by integer sums. The final level is
/// `min { L : |{window >> L}| <= budget }`, a function of the recorded content
/// only — every insertion order, and every partition into [`absorb`]-merged
/// pieces, converges to the same blocks. This makes streaming unavailability
/// shard-count invariant. With a `usize::MAX` budget the level stays 0: one block
/// per window.
///
/// [`absorb`]: WindowLedger::absorb
#[derive(Clone, Debug, PartialEq)]
pub struct WindowLedger {
    budget: usize,
    level: u32,
    blocks: BTreeMap<u64, WindowCell>,
}

impl WindowLedger {
    /// A ledger holding at most `budget` blocks (minimum 1; `usize::MAX` never
    /// coarsens).
    pub fn bounded(budget: usize) -> Self {
        WindowLedger { budget: budget.max(1), level: 0, blocks: BTreeMap::new() }
    }

    /// Add expected deliveries for a window.
    pub fn add_expected(&mut self, window: u64, n: u64) {
        self.blocks.entry(window >> self.level).or_default().expected += n;
        self.coarsen_to_budget();
    }

    /// Add observed deliveries for a window.
    pub fn add_delivered(&mut self, window: u64, n: u64) {
        self.blocks.entry(window >> self.level).or_default().delivered += n;
        self.coarsen_to_budget();
    }

    fn coarsen_once(&mut self) {
        self.level += 1;
        let old = std::mem::take(&mut self.blocks);
        for (k, cell) in old {
            let e = self.blocks.entry(k >> 1).or_default();
            e.expected += cell.expected;
            e.delivered += cell.delivered;
        }
    }

    fn coarsen_to_budget(&mut self) {
        while self.blocks.len() > self.budget {
            self.coarsen_once();
        }
    }

    /// Merge another ledger (same budget). Pieces are aligned to the maximum
    /// level, summed, then coarsened back under budget; because the final level
    /// depends only on the merged content, any merge order yields identical
    /// blocks.
    pub fn absorb(&mut self, other: &WindowLedger) {
        debug_assert_eq!(self.budget, other.budget, "ledger budgets must match");
        let target = self.level.max(other.level);
        while self.level < target {
            self.coarsen_once();
        }
        let shift = target - other.level;
        for (k, cell) in &other.blocks {
            let e = self.blocks.entry(k >> shift).or_default();
            e.expected += cell.expected;
            e.delivered += cell.delivered;
        }
        self.coarsen_to_budget();
    }

    /// Fraction of blocks with expected deliveries where observed deliveries
    /// fell below `threshold` × expected; 1.0 when no block expected anything.
    pub fn unavailability(&self, threshold: f64) -> f64 {
        let mut windows = 0u64;
        let mut bad = 0u64;
        for cell in self.blocks.values() {
            if cell.expected == 0 {
                continue;
            }
            windows += 1;
            if (cell.delivered as f64) < threshold * cell.expected as f64 {
                bad += 1;
            }
        }
        if windows == 0 {
            1.0
        } else {
            bad as f64 / windows as f64
        }
    }

    /// Current coarsening level (windows per block = `2^level`).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Blocks currently held.
    pub fn blocks_len(&self) -> usize {
        self.blocks.len()
    }

    /// Approximate bytes held (data-size lower bound).
    pub fn mem_bytes(&self) -> u64 {
        self.blocks.len() as u64 * 40 + 32
    }
}

/// Per-receiver duplicate detection over sequence-number bitmaps.
///
/// Each receiving node gets one bit per sequence number, allocated on its first
/// delivery. With a finite `window` the bitmap is circular over the newest `window`
/// sequences, so memory is O(nodes), and a sequence more than `window` behind the
/// newest seen for its node is conservatively counted as a duplicate. With a
/// `u64::MAX` window nothing lapses and the bitmap grows to the largest sequence
/// seen. Pieces merged with [`absorb`] must be node-disjoint, which the sharded
/// engine guarantees (each node is owned by exactly one shard).
///
/// [`absorb`]: SeqDedup::absorb
#[derive(Clone, Debug, PartialEq)]
pub struct SeqDedup {
    window: u64,
    nodes: BTreeMap<u32, NodeWindow>,
}

#[derive(Clone, Debug, PartialEq)]
struct NodeWindow {
    base: u64,
    bits: Vec<u64>,
}

impl SeqDedup {
    /// A deduper with a `window`-sequence horizon per node (rounded up to a power
    /// of two, minimum 64; `u64::MAX` never lapses).
    pub fn new(window: u64) -> Self {
        let window = if window == u64::MAX { window } else { window.max(64).next_power_of_two() };
        SeqDedup { window, nodes: BTreeMap::new() }
    }

    /// Record `(node, seq)`; returns `true` when the pair is new.
    pub fn insert(&mut self, node: u32, seq: u64) -> bool {
        let w = self.window;
        let nw = self.nodes.entry(node).or_insert_with(|| NodeWindow {
            base: seq.saturating_add(1).saturating_sub(w),
            // A circular window is allocated whole; an unbounded one grows on demand.
            bits: vec![0; if w == u64::MAX { 0 } else { (w / 64) as usize }],
        });
        if seq < nw.base {
            // Lapsed out of the window: conservatively a duplicate.
            return false;
        }
        if seq - nw.base >= w {
            // Slide the window forward, clearing slots that now map to the
            // not-yet-seen sequences taking their place. Amortized O(1): the
            // total slots cleared over a run is bounded by the largest seq.
            let new_base = seq + 1 - w;
            if new_base - nw.base >= w {
                nw.bits.iter_mut().for_each(|b| *b = 0);
            } else {
                for s in nw.base..new_base {
                    let ix = (s % w) as usize;
                    nw.bits[ix / 64] &= !(1u64 << (ix % 64));
                }
            }
            nw.base = new_base;
        }
        let ix = (seq % w) as usize;
        let (word, mask) = (ix / 64, 1u64 << (ix % 64));
        if word >= nw.bits.len() {
            nw.bits.resize(word + 1, 0);
        }
        let fresh = nw.bits[word] & mask == 0;
        nw.bits[word] |= mask;
        fresh
    }

    /// Merge a node-disjoint piece (panics on overlap — overlapping pieces
    /// would mean two shards both recorded deliveries for one node, which the
    /// ownership partition rules out).
    pub fn absorb(&mut self, other: &SeqDedup) {
        debug_assert_eq!(self.window, other.window, "dedup windows must match");
        for (node, nw) in &other.nodes {
            assert!(
                self.nodes.insert(*node, nw.clone()).is_none(),
                "SeqDedup::absorb requires node-disjoint pieces"
            );
        }
    }

    /// Number of receiving nodes tracked.
    pub fn nodes_tracked(&self) -> usize {
        self.nodes.len()
    }

    /// Approximate bytes held (data-size lower bound).
    pub fn mem_bytes(&self) -> u64 {
        self.nodes.values().map(|nw| nw.bits.len() as u64 * 8 + 24).sum::<u64>() + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 64-bit LCG (Knuth MMIX constants) — no wall-clock entropy.
    struct Lcg(u64);

    impl Lcg {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0
        }
    }

    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn config_defaults_to_exact() {
        let cfg = MetricsConfig::default();
        assert_eq!(cfg, MetricsConfig::exact());
        assert!(!cfg.is_streaming());
        assert!(cfg.latency_histogram().is_none());
        let streaming = MetricsConfig::streaming();
        assert!(streaming.is_streaming());
        assert_eq!(streaming.latency_histogram().map(|h| h.bin_width_ns()), Some(2_000_000));
    }

    #[test]
    fn histogram_quantile_within_one_bin_width() {
        let mut rng = Lcg(7);
        let mut hist = FixedBinHistogram::new(1_000, 256);
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let v = rng.next_u64() % 250_000;
            hist.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_quantile(&samples, q) as f64;
            let est = hist.quantile_ns(q);
            assert!(
                (est - exact).abs() <= hist.bin_width_ns() as f64,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(hist.max_ns(), *samples.last().unwrap());
        assert_eq!(hist.overflow(), 0);
    }

    #[test]
    fn histogram_overflow_reports_exact_max() {
        let mut hist = FixedBinHistogram::new(10, 4);
        hist.record(5);
        hist.record(1_000);
        assert_eq!(hist.overflow(), 1);
        assert_eq!(hist.max_ns(), 1_000);
        assert_eq!(hist.quantile_ns(1.0), 1_000.0);
    }

    #[test]
    fn histogram_merge_is_exact_and_order_free() {
        let mut rng = Lcg(42);
        let mut whole = FixedBinHistogram::new(500, 128);
        let mut a = FixedBinHistogram::new(500, 128);
        let mut b = FixedBinHistogram::new(500, 128);
        for i in 0..5_000 {
            let v = rng.next_u64() % 100_000;
            whole.record(v);
            if i % 3 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn curve_ring_unbounded_matches_plain_vec() {
        let mut ring = CurveRing::with_budget(usize::MAX);
        let vals: Vec<u64> = (0..1_000).collect();
        for &v in &vals {
            ring.push(v);
        }
        assert_eq!(ring.samples(), &vals[..]);
        assert_eq!(ring.level(), 0);
        assert_eq!(ring.stride(), 1);
    }

    #[test]
    fn curve_ring_downsamples_keeping_later_samples() {
        let mut ring = CurveRing::with_budget(4);
        for v in 1..=8u64 {
            ring.push(v);
        }
        // Budget 4: after 8 pushes the ring has merged twice; sample i is the
        // raw sample at 1-based index (i + 1) * stride.
        assert_eq!(ring.samples(), &[4, 8]);
        assert_eq!(ring.stride(), 4);
        assert_eq!(ring.level(), 2);
        assert_eq!(ring.raw_len(), 8);
    }

    #[test]
    fn curve_ring_stays_within_budget() {
        let mut ring = CurveRing::with_budget(16);
        for v in 0..100_000u64 {
            ring.push(v);
            assert!(ring.len() <= 16);
        }
        // Every committed sample is a real raw sample from the stream.
        let stride = ring.stride();
        for (i, &s) in ring.samples().iter().enumerate() {
            assert_eq!(s, (i as u64 + 1) * stride - 1);
        }
    }

    #[test]
    fn window_ledger_exact_matches_naive_counts() {
        let mut ledger = WindowLedger::bounded(usize::MAX);
        let events = [(0u64, 4u64, 4u64), (1, 4, 1), (5, 2, 2), (9, 3, 0)];
        for &(w, exp, del) in &events {
            ledger.add_expected(w, exp);
            ledger.add_delivered(w, del);
        }
        assert_eq!(ledger.level(), 0);
        assert_eq!(ledger.blocks_len(), 4);
        // Bad windows under threshold 0.9: window 1 (1/4) and window 9 (0/3).
        assert!((ledger.unavailability(0.9) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn window_ledger_coarsens_to_content_determined_level() {
        // 64 distinct windows, budget 16: level must be exactly
        // min { L : ceil-distinct(64 windows >> L) <= 16 } = 2.
        let mut ledger = WindowLedger::bounded(16);
        for w in 0..64u64 {
            ledger.add_expected(w, 1);
        }
        assert_eq!(ledger.level(), 2);
        assert_eq!(ledger.blocks_len(), 16);
    }

    #[test]
    fn window_ledger_merge_is_order_and_partition_invariant() {
        let mut rng = Lcg(9);
        let events: Vec<(u64, u64, u64)> = (0..500)
            .map(|_| (rng.next_u64() % 300, 1 + rng.next_u64() % 5, rng.next_u64() % 5))
            .collect();

        let build = |evs: &[(u64, u64, u64)]| {
            let mut l = WindowLedger::bounded(32);
            for &(w, exp, del) in evs {
                l.add_expected(w, exp);
                l.add_delivered(w, del);
            }
            l
        };

        let sequential = build(&events);

        // Reversed insertion order.
        let reversed: Vec<_> = events.iter().rev().copied().collect();
        assert_eq!(build(&reversed), sequential);

        // Partitioned into 1, 2 and 8 pieces merged in arbitrary orders.
        for pieces in [2usize, 8] {
            let mut parts: Vec<Vec<(u64, u64, u64)>> = vec![Vec::new(); pieces];
            for (i, ev) in events.iter().enumerate() {
                parts[i % pieces].push(*ev);
            }
            let mut merged = build(&parts[0]);
            for part in parts[1..].iter().rev() {
                merged.absorb(&build(part));
            }
            assert_eq!(merged, sequential, "{pieces}-way merge must match sequential");
        }
    }

    #[test]
    fn seq_dedup_detects_duplicates_within_window() {
        let mut d = SeqDedup::new(64);
        assert!(d.insert(3, 10));
        assert!(!d.insert(3, 10));
        assert!(d.insert(3, 11));
        assert!(d.insert(4, 10), "per-node windows are independent");
        assert_eq!(d.nodes_tracked(), 2);
    }

    #[test]
    fn seq_dedup_slides_and_lapsed_seqs_count_as_duplicates() {
        let mut d = SeqDedup::new(64);
        assert!(d.insert(0, 0));
        assert!(d.insert(0, 200), "far jump slides the window");
        assert!(!d.insert(0, 0), "lapsed sequence is conservatively a duplicate");
        assert!(d.insert(0, 150), "still inside the slid window");
        assert!(!d.insert(0, 150));
        // Slots vacated by the slide are clean: a sequence reusing slot
        // 200 % 64 == 8's old position must not be mistaken for seen.
        assert!(d.insert(0, 196));
    }

    #[test]
    fn seq_dedup_unbounded_never_lapses() {
        let mut d = SeqDedup::new(u64::MAX);
        assert!(d.insert(0, 5_000));
        assert!(d.insert(0, 0), "an unbounded window never lapses");
        assert!(!d.insert(0, 0));
        assert!(d.insert(0, 1 << 20));
        assert!(!d.insert(0, 5_000));
        assert_eq!(d.mem_bytes(), ((1 << 20) / 64 + 1) * 8 + 24 + 24);
    }

    #[test]
    fn seq_dedup_absorbs_disjoint_pieces() {
        let mut a = SeqDedup::new(128);
        let mut b = SeqDedup::new(128);
        a.insert(0, 7);
        b.insert(1, 7);
        a.absorb(&b);
        assert_eq!(a.nodes_tracked(), 2);
        assert!(!a.insert(1, 7), "absorbed state detects duplicates");
    }

    #[test]
    #[should_panic(expected = "node-disjoint")]
    fn seq_dedup_rejects_overlapping_pieces() {
        let mut a = SeqDedup::new(128);
        let mut b = SeqDedup::new(128);
        a.insert(0, 1);
        b.insert(0, 2);
        a.absorb(&b);
    }
}
