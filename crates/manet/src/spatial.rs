//! Uniform-grid spatial index over node positions.
//!
//! Broadcast propagation and snapshot neighbour queries are range queries: "which nodes
//! lie within `r` metres of this point?". The brute-force answer scans all `n` nodes per
//! query; [`SpatialIndex`] buckets nodes into a uniform grid whose cell side is the
//! maximum radio range, so a query only inspects the O(1) cells overlapping the query
//! disc and touches O(k) candidates.
//!
//! Exactness: candidates from the overlapping cells are filtered with the same
//! `distance² ≤ r²` predicate a brute-force scan uses, and results are returned in
//! ascending [`NodeId`] order, so callers that consume randomness per neighbour (the
//! channel loss draws in the runtime) see *byte-identical* sequences regardless of which
//! query path produced the set. The property tests at the bottom of this file assert the
//! set equality against the brute-force scan across random and boundary-straddling
//! placements.

use crate::geometry::Vec2;
use crate::node::NodeId;

/// Hard cap on the number of grid cells: pathological inputs (a huge position spread with
/// a tiny cell size) coarsen the grid instead of exhausting memory. Queries stay exact —
/// coarser cells only mean more candidates per cell. The effective cap also scales with
/// the node count (see [`SpatialIndex::rebuild`]) so the per-rebuild CSR work stays O(n)
/// for sparse wide-area inputs.
const MAX_CELLS: usize = 1 << 18;

/// Query results up to this many ids are ordered by rank (see [`order_distinct`]);
/// larger ones are sorted.
const RANK_ORDER_MAX: usize = 32;

/// A uniform bucket grid over a fixed set of positions.
///
/// The index keeps its own copy of the positions, stored next to the node ids in cell
/// (CSR) order, so a query reads one contiguous `(id, position)` span per grid row
/// instead of chasing ids into a buffer indexed by node. Rebuilds reuse the internal
/// allocations.
#[derive(Clone, Debug, Default)]
pub struct SpatialIndex {
    origin: Vec2,
    cell_w: f64,
    cell_h: f64,
    cols: usize,
    rows: usize,
    /// CSR layout: `starts[c]..starts[c + 1]` indexes `items` and `points` for cell `c`
    /// (row-major), so the cells of one grid row form one contiguous span.
    starts: Vec<u32>,
    /// Node ids grouped by cell, ascending within each cell.
    items: Vec<u32>,
    /// `points[k]` is the position of node `items[k]`.
    points: Vec<Vec2>,
    /// Scratch cursor reused across rebuilds.
    cursor: Vec<u32>,
}

impl SpatialIndex {
    /// Build an index over `positions` with the given nominal cell size (normally the
    /// maximum radio range, so any clamped transmission disc overlaps at most 3×3 cells).
    pub fn build(positions: &[Vec2], cell_size: f64) -> Self {
        let mut index = SpatialIndex::default();
        index.rebuild(positions, cell_size);
        index
    }

    /// Rebuild in place over a new position buffer, reusing allocations. Node `i` is the
    /// node at `positions[i]`; the index copies the positions it needs.
    pub fn rebuild(&mut self, positions: &[Vec2], cell_size: f64) {
        let n = positions.len();
        self.items.clear();
        self.points.clear();
        if n == 0 {
            self.cols = 0;
            self.rows = 0;
            self.starts.clear();
            return;
        }
        let cell = if cell_size.is_finite() && cell_size > 0.0 { cell_size } else { f64::MAX };
        let (mut min, mut max) = (positions[0], positions[0]);
        for p in &positions[1..] {
            min = Vec2::new(min.x.min(p.x), min.y.min(p.y));
            max = Vec2::new(max.x.max(p.x), max.y.max(p.y));
        }
        let span_w = (max.x - min.x).max(0.0);
        let span_h = (max.y - min.y).max(0.0);
        // Never allocate far more cells than there are nodes: rebuilds zero and
        // prefix-sum the whole `starts` vector, so the cell count must stay O(n).
        let cap = MAX_CELLS.min(4 * n + 64);
        let mut cols = ((span_w / cell).ceil() as usize).clamp(1, cap);
        let mut rows = ((span_h / cell).ceil() as usize).clamp(1, cap);
        while cols * rows > cap {
            if cols >= rows {
                cols = cols.div_ceil(2);
            } else {
                rows = rows.div_ceil(2);
            }
        }
        self.origin = min;
        self.cols = cols;
        self.rows = rows;
        // Effective cell extents: dividing the observed span keeps the point→cell map
        // total even when the cap coarsened the grid. Degenerate spans fall back to the
        // nominal cell so the map stays finite.
        self.cell_w = if span_w > 0.0 { span_w / cols as f64 } else { cell.min(1.0) };
        self.cell_h = if span_h > 0.0 { span_h / rows as f64 } else { cell.min(1.0) };

        let n_cells = cols * rows;
        self.starts.clear();
        self.starts.resize(n_cells + 1, 0);
        for p in positions {
            let c = self.cell_of(p);
            self.starts[c + 1] += 1;
        }
        for c in 0..n_cells {
            self.starts[c + 1] += self.starts[c];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..n_cells]);
        self.items.resize(n, 0);
        self.points.resize(n, Vec2::ZERO);
        // Placing ids in ascending order keeps each cell's slice id-sorted (stable
        // counting sort).
        for (i, p) in positions.iter().enumerate() {
            let c = self.cell_of(p);
            let k = self.cursor[c] as usize;
            self.items[k] = i as u32;
            self.points[k] = *p;
            self.cursor[c] += 1;
        }
    }

    /// Row-major cell index of a position (clamped onto the grid).
    fn cell_of(&self, p: &Vec2) -> usize {
        let cx = (((p.x - self.origin.x) / self.cell_w) as usize).min(self.cols - 1);
        let cy = (((p.y - self.origin.y) / self.cell_h) as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    /// True when the index was built over exactly `positions`, bit for bit, so a
    /// rebuild over them would change nothing.
    pub(crate) fn holds(&self, positions: &[Vec2]) -> bool {
        let same =
            |a: &Vec2, b: &Vec2| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits();
        self.items.len() == positions.len()
            && self.items.iter().zip(&self.points).all(|(&id, p)| same(p, &positions[id as usize]))
    }

    /// Number of grid cells (for tests and diagnostics).
    pub fn cell_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Collect every node within `radius` of `center` (including a node located exactly
    /// at `center`, if any) other than `except` into `out`, ascending by node id.
    ///
    /// The grid yields ids in cell order. A result of up to `RANK_ORDER_MAX` (32) ids is
    /// put in id order by rank: each id's slot is the count of smaller ids, a branch-free
    /// loop. Larger results are sorted. A transmission disc at the benchmark densities
    /// holds about 13 ids.
    pub fn query_disc(
        &self,
        center: Vec2,
        radius: f64,
        except: Option<NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        let r2 = radius * radius;
        self.for_each_row_span(center, radius, |s, e| {
            let pairs = self.items[s..e].iter().copied().zip(&self.points[s..e]);
            push_within(pairs, center, r2, except, out);
        });
        // Rows are visited in order, so ids are sorted within each cell but not across
        // cells.
        order_distinct(out);
    }

    /// Call `visit` once for every node [`Self::query_disc`] would return, but in cell
    /// order rather than id order and without allocating. For callers whose result does
    /// not depend on visit order (reachability, counting).
    pub fn for_each_in_disc(
        &self,
        center: Vec2,
        radius: f64,
        except: Option<NodeId>,
        mut visit: impl FnMut(NodeId),
    ) {
        let r2 = radius * radius;
        self.for_each_row_span(center, radius, |s, e| {
            for (&id, p) in self.items[s..e].iter().zip(&self.points[s..e]) {
                if p.distance_sq(&center) <= r2 && Some(NodeId(id)) != except {
                    visit(NodeId(id));
                }
            }
        });
    }

    /// Call `span(s, e)` with the `items`/`points` range of each grid row's cells that
    /// overlap the bounding box of the disc. The cells of one row are adjacent in CSR
    /// order, so each row contributes one contiguous range.
    fn for_each_row_span(&self, center: Vec2, radius: f64, mut span: impl FnMut(usize, usize)) {
        if self.cols == 0 || radius < 0.0 {
            return;
        }
        let lo_x = ((center.x - radius - self.origin.x) / self.cell_w).floor();
        let hi_x = ((center.x + radius - self.origin.x) / self.cell_w).floor();
        let lo_y = ((center.y - radius - self.origin.y) / self.cell_h).floor();
        let hi_y = ((center.y + radius - self.origin.y) / self.cell_h).floor();
        let (Some((cx0, cx1)), Some((cy0, cy1))) =
            (clamp_cell_range(lo_x, hi_x, self.cols), clamp_cell_range(lo_y, hi_y, self.rows))
        else {
            return;
        };
        for cy in cy0..=cy1 {
            let row = cy * self.cols;
            span(self.starts[row + cx0] as usize, self.starts[row + cx1 + 1] as usize);
        }
    }
}

/// Append to `out`, in order, every id of `pairs` whose paired point lies within squared
/// distance `r2` of `center`, skipping `except`.
///
/// Branch-free: each id is written unconditionally and the length advances by the
/// predicate, so a hit rate near one half costs no mispredicted branches.
pub(crate) fn push_within<'p>(
    pairs: impl ExactSizeIterator<Item = (u32, &'p Vec2)>,
    center: Vec2,
    r2: f64,
    except: Option<NodeId>,
    out: &mut Vec<NodeId>,
) {
    // No node has id `u32::MAX`: ids index vectors of at most `u32::MAX` entries.
    let skip = except.map_or(u32::MAX, |n| n.0);
    let mut len = out.len();
    out.resize(len + pairs.len(), NodeId(0));
    for (id, p) in pairs {
        out[len] = NodeId(id);
        len += usize::from((p.distance_sq(&center) <= r2) & (id != skip));
    }
    out.truncate(len);
}

/// Sort distinct ids ascending: by rank up to [`RANK_ORDER_MAX`] ids, else by
/// `sort_unstable`.
///
/// Because the ids are distinct, each one's slot is the number of smaller ids. Counting
/// them has no data-dependent branch, where a small sort branches on every comparison.
fn order_distinct(ids: &mut [NodeId]) {
    let n = ids.len();
    if n > RANK_ORDER_MAX {
        return ids.sort_unstable();
    }
    // Keys are the ids with the top bit flipped, so that a signed comparison (which
    // baseline x86-64 vectorizes) orders them as unsigned ids. The padding is the key of
    // `u32::MAX`, which is no node's id, so it never counts as smaller.
    const FLIP: u32 = 1 << 31;
    let mut keys = [i32::MAX; RANK_ORDER_MAX];
    for (key, id) in keys.iter_mut().zip(ids.iter()) {
        *key = (id.0 ^ FLIP) as i32;
    }
    // Whole groups of eight, so the counting loop has no scalar tail.
    let counted = &keys[..n.next_multiple_of(8)];
    for &key in &keys[..n] {
        let rank = counted.iter().map(|&k| u32::from(k < key)).sum::<u32>();
        ids[rank as usize] = NodeId(key as u32 ^ FLIP);
    }
}

/// Clamp a floating cell span onto `[0, n)`; `None` means the disc misses the grid.
///
/// Points on the grid's max boundary have cell ratio exactly `n` but are stored in cell
/// `n - 1` (the point→cell map clamps), so a span starting at exactly `n` must still
/// inspect the last cell — only `lo > n` is truly off-grid.
fn clamp_cell_range(lo: f64, hi: f64, n: usize) -> Option<(usize, usize)> {
    if hi < 0.0 || lo > n as f64 || hi < lo {
        return None;
    }
    let lo = if lo <= 0.0 { 0 } else { (lo as usize).min(n - 1) };
    let hi = if hi >= (n - 1) as f64 { n - 1 } else { hi as usize };
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The reference implementation the index must match exactly.
    fn brute_force(
        center: Vec2,
        radius: f64,
        except: Option<NodeId>,
        positions: &[Vec2],
    ) -> Vec<NodeId> {
        let r2 = radius * radius;
        (0..positions.len() as u32)
            .map(NodeId)
            .filter(|&id| Some(id) != except && positions[id.index()].distance_sq(&center) <= r2)
            .collect()
    }

    fn assert_matches_brute_force(positions: &[Vec2], cell: f64, center: Vec2, radius: f64) {
        assert_matches_brute_force_excluding(positions, cell, center, radius, 0);
    }

    /// Compare both queries with the brute-force scan, with no exclusion, excluding the
    /// `pick`-th id of the full result (inside it), and excluding an id outside it.
    fn assert_matches_brute_force_excluding(
        positions: &[Vec2],
        cell: f64,
        center: Vec2,
        radius: f64,
        pick: usize,
    ) {
        let index = SpatialIndex::build(positions, cell);
        let all = brute_force(center, radius, None, positions);
        let inside = all.get(pick % all.len().max(1)).copied();
        let outside = (0..positions.len() as u32).map(NodeId).find(|id| !all.contains(id));
        for except in [None, inside, outside, Some(NodeId(positions.len() as u32))] {
            let want = brute_force(center, radius, except, positions);
            let mut got = vec![NodeId(u32::MAX)];
            index.query_disc(center, radius, except, &mut got);
            assert_eq!(
                got,
                want,
                "disc({center:?}, r={radius}) except {except:?} over {} nodes, cell={cell}",
                positions.len()
            );
            // The unsorted visitor sees the same set, each node once.
            let mut visited = Vec::new();
            index.for_each_in_disc(center, radius, except, |id| visited.push(id));
            visited.sort_unstable();
            assert_eq!(
                visited, want,
                "visitor over disc({center:?}, r={radius}) except {except:?}"
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        let index = SpatialIndex::build(&[], 100.0);
        let mut out = vec![NodeId(9)];
        index.query_disc(Vec2::ZERO, 50.0, None, &mut out);
        assert!(out.is_empty());

        let pos = [Vec2::new(10.0, 10.0)];
        let index = SpatialIndex::build(&pos, 100.0);
        index.query_disc(Vec2::ZERO, 50.0, None, &mut out);
        assert_eq!(out, vec![NodeId(0)]);
        index.query_disc(Vec2::ZERO, 5.0, None, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn an_index_holds_exactly_the_bits_it_was_built_over() {
        let mut positions: Vec<Vec2> =
            (0..30).map(|i| Vec2::new((i % 6) as f64 * 90.0, (i / 6) as f64 * 70.0)).collect();
        let index = SpatialIndex::build(&positions, 250.0);
        assert!(index.holds(&positions));
        assert!(!SpatialIndex::default().holds(&positions));
        assert!(!index.holds(&positions[1..]));
        // Node 0 sits at (0, 0): a sign flip of one coordinate is a change of bits.
        positions[0].x = -0.0;
        assert!(!index.holds(&positions));
        positions[0].x = 0.0;
        positions[17].y += 1e-9;
        assert!(!index.holds(&positions));
    }

    #[test]
    fn results_are_sorted_and_exact_on_a_grid_layout() {
        // 10×10 lattice with 100 m spacing, cell size 250 m: queries straddle cells.
        let positions: Vec<Vec2> =
            (0..100).map(|i| Vec2::new((i % 10) as f64 * 100.0, (i / 10) as f64 * 100.0)).collect();
        for r in [0.0, 99.9, 100.0, 141.5, 250.0, 2_000.0] {
            assert_matches_brute_force(&positions, 250.0, Vec2::new(450.0, 450.0), r);
        }
        // Query centred far off the grid.
        assert_matches_brute_force(&positions, 250.0, Vec2::new(-500.0, 2_000.0), 600.0);
        assert_matches_brute_force(&positions, 250.0, Vec2::new(5_000.0, 5_000.0), 10.0);
    }

    #[test]
    fn degenerate_cell_sizes_fall_back_to_one_cell() {
        let positions: Vec<Vec2> = (0..20).map(|i| Vec2::new(i as f64 * 10.0, 0.0)).collect();
        for cell in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let index = SpatialIndex::build(&positions, cell);
            assert_eq!(index.cell_count(), 1, "cell={cell}");
            let mut out = Vec::new();
            index.query_disc(Vec2::new(45.0, 0.0), 25.0, None, &mut out);
            assert_eq!(out, brute_force(Vec2::new(45.0, 0.0), 25.0, None, &positions));
        }
    }

    #[test]
    fn coincident_points_and_zero_radius() {
        let positions = vec![Vec2::new(5.0, 5.0); 4];
        assert_matches_brute_force(&positions, 10.0, Vec2::new(5.0, 5.0), 0.0);
        let index = SpatialIndex::build(&positions, 10.0);
        let mut out = Vec::new();
        index.query_disc(Vec2::new(5.0, 5.0), 0.0, None, &mut out);
        assert_eq!(out, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn all_nodes_in_one_cell_matches_brute_force() {
        // 30 nodes clustered inside a fraction of a single 250 m cell: the index
        // degenerates to one populated bucket and must still answer every disc exactly.
        let mut rng = StdRng::seed_from_u64(17);
        let positions: Vec<Vec2> = (0..30)
            .map(|_| Vec2::new(rng.gen_range(10.0..60.0), rng.gen_range(10.0..60.0)))
            .collect();
        let index = SpatialIndex::build(&positions, 250.0);
        assert_eq!(index.cell_count(), 1, "a 50 m cloud fits one 250 m cell");
        for r in [0.0, 5.0, 25.0, 70.0] {
            assert_matches_brute_force(&positions, 250.0, positions[7], r);
            // A centre outside the populated cell must see in, too.
            assert_matches_brute_force(&positions, 250.0, Vec2::new(300.0, 300.0), r + 260.0);
        }
    }

    #[test]
    fn positions_exactly_on_cell_boundaries_are_never_lost() {
        // Deterministic companion to the boundary proptest: every point sits exactly on
        // a multiple of the cell size (the worst case for the point→cell floor), and a
        // radius equal to the lattice pitch must pick up the full cross every time.
        let cell = 100.0;
        let positions: Vec<Vec2> =
            (0..25).map(|i| Vec2::new((i % 5) as f64 * cell, (i / 5) as f64 * cell)).collect();
        for centre in [Vec2::new(200.0, 200.0), Vec2::new(0.0, 0.0), Vec2::new(400.0, 200.0)] {
            for r in [0.0, cell, cell * (2.0f64).sqrt(), 2.0 * cell] {
                assert_matches_brute_force(&positions, cell, centre, r);
            }
        }
        let index = SpatialIndex::build(&positions, cell);
        let mut out = Vec::new();
        index.query_disc(Vec2::new(200.0, 200.0), cell, None, &mut out);
        assert_eq!(out.len(), 5, "centre + the 4-neighbour cross, nothing dropped");
    }

    #[test]
    fn capped_cell_count_still_matches_brute_force_for_dense_queries() {
        // Enough spread that the uncapped grid would want thousands of cells per node;
        // the cap must coarsen the grid without losing a single candidate.
        let mut rng = StdRng::seed_from_u64(23);
        let positions: Vec<Vec2> = (0..50)
            .map(|_| Vec2::new(rng.gen_range(0.0..1.0e6), rng.gen_range(0.0..1.0e6)))
            .collect();
        let index = SpatialIndex::build(&positions, 10.0);
        assert!(index.cell_count() <= 4 * positions.len() + 64, "cap must engage");
        for i in [0usize, 13, 49] {
            for r in [0.0, 1_000.0, 250_000.0, 2.0e6] {
                assert_matches_brute_force(&positions, 10.0, positions[i], r);
            }
        }
    }

    #[test]
    fn huge_spread_is_capped_but_exact() {
        // A tiny cell over a vast spread would want ~10^12 cells; the cap coarsens it
        // down to O(n) cells so rebuild work tracks the node count, not the area.
        let positions =
            vec![Vec2::ZERO, Vec2::new(1.0e6, 1.0e6), Vec2::new(5.0e5, 5.0e5), Vec2::new(3.0, 4.0)];
        let index = SpatialIndex::build(&positions, 1.0);
        assert!(index.cell_count() <= 4 * positions.len() + 64);
        let mut out = Vec::new();
        index.query_disc(Vec2::ZERO, 6.0, None, &mut out);
        assert_eq!(out, vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    fn rebuilds_over_shrinking_and_growing_buffers_never_return_stale_nodes() {
        // One index rebuilt over buffers of different lengths in turn: every answer must
        // come from the latest buffer alone, never from a longer earlier one.
        let mut rng = StdRng::seed_from_u64(31);
        let mut index = SpatialIndex::default();
        let mut out = Vec::new();
        for n in [60usize, 5, 0, 1, 40, 3, 60, 2] {
            let positions: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)))
                .collect();
            index.rebuild(&positions, 100.0);
            for center in [Vec2::new(250.0, 250.0), Vec2::ZERO, Vec2::new(500.0, 0.0)] {
                for r in [0.0, 120.0, 1_000.0] {
                    index.query_disc(center, r, None, &mut out);
                    assert_eq!(out, brute_force(center, r, None, &positions), "n={n} r={r}");
                    let mut seen = Vec::new();
                    index.for_each_in_disc(center, r, None, |id| {
                        seen.push((id, positions[id.index()]));
                    });
                    assert!(seen.iter().all(|&(id, _)| id.index() < n), "stale id at n={n}");
                    assert!(
                        seen.iter().all(|(_, p)| p.distance_sq(&center) <= r * r),
                        "visited a node outside the disc at n={n}"
                    );
                }
            }
            // The whole-field disc returns every node of this buffer exactly once.
            index.query_disc(Vec2::new(250.0, 250.0), 1_000.0, None, &mut out);
            assert_eq!(out.len(), n);
        }
    }

    #[test]
    fn rank_order_equals_a_sort_at_every_length_up_to_past_the_threshold() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in 0..=RANK_ORDER_MAX + 2 {
            // Distinct random ids, with the smallest and the largest possible id mixed in.
            let mut random: Vec<u32> = vec![0, u32::MAX - 1];
            while random.len() < n {
                let id = rng.gen_range(0..u32::MAX);
                if !random.contains(&id) {
                    random.push(id);
                }
            }
            random.truncate(n);
            for i in (1..n).rev() {
                random.swap(i, rng.gen_range(0..=i));
            }
            let ascending: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
            let descending: Vec<u32> = ascending.iter().rev().copied().collect();
            for input in [random, ascending, descending] {
                let mut ranked: Vec<NodeId> = input.iter().copied().map(NodeId).collect();
                let mut sorted = ranked.clone();
                order_distinct(&mut ranked);
                sorted.sort_unstable();
                assert_eq!(ranked, sorted, "n={n} input {input:?}");
            }
        }
    }

    #[test]
    fn discs_on_both_sides_of_the_rank_threshold_match_brute_force() {
        // 300 nodes on a 300 m square: a 100 m disc holds about 100 ids, a 20 m disc a
        // handful, so both the rank order and the sort run.
        let mut rng = StdRng::seed_from_u64(43);
        let positions: Vec<Vec2> = (0..300)
            .map(|_| Vec2::new(rng.gen_range(0.0..300.0), rng.gen_range(0.0..300.0)))
            .collect();
        let mut sizes = Vec::new();
        for (k, &center) in positions.iter().step_by(37).enumerate() {
            for radius in [20.0, 40.0, 100.0] {
                assert_matches_brute_force_excluding(&positions, 100.0, center, radius, k);
                sizes.push(brute_force(center, radius, None, &positions).len());
            }
        }
        assert!(sizes.iter().any(|&n| n > RANK_ORDER_MAX), "a disc past the threshold");
        assert!(sizes.iter().any(|&n| (2..=RANK_ORDER_MAX).contains(&n)), "a ranked disc");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random clouds: the index must return exactly the brute-force neighbour set for
        /// arbitrary centres, radii and cell sizes, with and without an excluded id.
        #[test]
        fn random_clouds_match_brute_force(
            seed in 0u64..1_000,
            n in 1usize..80,
            cell in 10.0f64..400.0,
            radius in 0.0f64..900.0,
            pick in 0usize..80,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let positions: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range(0.0..750.0), rng.gen_range(0.0..750.0)))
                .collect();
            let center =
                Vec2::new(rng.gen_range(-200.0..950.0), rng.gen_range(-200.0..950.0));
            assert_matches_brute_force_excluding(&positions, cell, center, radius, pick);
        }

        /// Positions snapped onto cell corners and edges: the adversarial case for an
        /// off-by-one in the point→cell map or the query's cell-range arithmetic.
        #[test]
        fn boundary_straddling_points_match_brute_force(
            seed in 0u64..1_000,
            n in 1usize..60,
            radius in 0.0f64..600.0,
        ) {
            let cell = 250.0;
            let mut rng = StdRng::seed_from_u64(seed);
            let positions: Vec<Vec2> = (0..n)
                .map(|_| {
                    // Multiples of half a cell land exactly on cell boundaries.
                    let snap = |v: f64| (v / (cell / 2.0)).round() * (cell / 2.0);
                    Vec2::new(snap(rng.gen_range(0.0..1_000.0)), snap(rng.gen_range(0.0..1_000.0)))
                })
                .collect();
            let center = positions[0];
            assert_matches_brute_force(&positions, cell, center, radius);
            // Also query from exactly one cell-width away.
            assert_matches_brute_force(
                &positions,
                cell,
                Vec2::new(center.x + cell, center.y),
                radius,
            );
        }
    }
}
