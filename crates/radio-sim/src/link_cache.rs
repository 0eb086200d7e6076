//! Per-topology-epoch cache of link budgets and audible-neighbor lists.
//!
//! Path-loss and shadowing math is deterministic in the endpoint
//! positions, so between position changes every `(a, b)` pair has a
//! fixed received power. Recomputing it (two `log10` calls and a
//! `powf`) for every pair on every frame was the dominant cost of large
//! simulations. [`LinkCache`] computes each
//! link budget **once per topology epoch**:
//!
//! * Rows are filled lazily: the first transmission from node `i` in an
//!   epoch computes row `i`; later frames are lookups.
//! * Links are symmetric (equal antenna gains, per-pair shadowing), so a
//!   row reuses entries already computed by other rows bit-for-bit.
//! * Each row carries the node's **audible-neighbor list** — the sorted
//!   indices of nodes that can hear it — so transmission fan-out,
//!   interferer seeding and CAD scans iterate only nodes that matter
//!   instead of all N.
//!
//! Rows are **sparse**: a row holds links only for the *candidate set*
//! it was filled with — the 3×3-cell neighborhood from
//! [`crate::grid::Grid`]. A node absent from the candidate set is farther than
//! `max_audible_range`, so [`LinkRow::get`] answers [`Link::silent`] for
//! it: the audibility flag matches what a fresh computation would
//! conclude, and sub-sensitivity powers are never read (interference
//! sums are audibility-gated), so sparse and dense rows are
//! behaviourally identical. This drops both the O(n) scan per row fill
//! and the O(n²) memory of dense rows.
//!
//! The cache holds *values*, never decisions: the simulator invalidates
//! it on every mobility tick, node addition and explicit position
//! change, which keeps runs byte-identical to the uncached engine it
//! replaced (whose fingerprints `tests/engine_golden.rs` pins).

use lora_phy::power::Dbm;

/// The cached budget of one directed link (symmetric in practice).
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Received power in dBm.
    pub power: Dbm,
    /// Received power in linear milliwatts (interference sums).
    pub power_mw: f64,
    /// Whether the power exceeds the shared modulation's sensitivity.
    pub audible: bool,
}

impl Link {
    /// A self-link / beyond-range placeholder carrying no power.
    #[must_use]
    pub fn silent() -> Self {
        Link {
            power: Dbm::new(f64::NEG_INFINITY),
            power_mw: 0.0,
            audible: false,
        }
    }
}

/// One node's cached links to its audibility candidates.
#[derive(Clone, Debug)]
pub struct LinkRow {
    /// Sorted node indices this row holds links for: the candidate set
    /// at fill time.
    cand: Vec<usize>,
    /// Link budgets parallel to `cand`.
    links: Vec<Link>,
    /// Sorted indices of the nodes that can hear this node (⊆ `cand`).
    pub audible: Vec<usize>,
}

impl LinkRow {
    /// The link toward node `j`; [`Link::silent`] when `j` is not a
    /// candidate (which proves `j` is beyond audible range).
    #[must_use]
    pub fn get(&self, j: usize) -> Link {
        // Dense rows (grid off) have cand[k] == k: O(1) fast path.
        if let (Some(&cj), Some(&link)) = (self.cand.get(j), self.links.get(j)) {
            if cj == j {
                return link;
            }
        }
        match self.cand.binary_search(&j) {
            Ok(k) => self.links.get(k).copied().unwrap_or_else(Link::silent),
            Err(_) => Link::silent(),
        }
    }

    /// Iterates `(node index, link)` pairs in ascending index order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, Link)> + '_ {
        self.cand.iter().copied().zip(self.links.iter().copied())
    }
}

/// Lazily filled symmetric matrix of link budgets, invalidated wholesale
/// whenever any position may have changed — or row-by-row by the sharded
/// engine, which knows which spatial bands a mobility tick touched.
#[derive(Debug, Default)]
pub struct LinkCache {
    rows: Vec<Option<LinkRow>>,
    /// Rows filled since construction (cache-rebuild accounting for the
    /// scoped-invalidation regression tests; not part of any metric).
    rebuilds: u64,
}

impl LinkCache {
    /// An empty cache for a simulation with no nodes yet.
    #[must_use]
    pub fn new() -> Self {
        LinkCache::default()
    }

    /// Number of nodes the cache is sized for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the cache is sized for zero nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resizes for `n` nodes, dropping every cached row (a new node
    /// changes neighbor lists).
    pub fn resize(&mut self, n: usize) {
        self.rows.clear();
        self.rows.resize_with(n, || None);
    }

    /// Drops every cached row. Called on any event that may move a node
    /// (mobility tick, explicit position change).
    pub fn invalidate_all(&mut self) {
        for row in &mut self.rows {
            *row = None;
        }
    }

    /// Drops one node's cached row, leaving the others in place. The
    /// sharded engine calls this for exactly the rows a mobility tick
    /// could have changed; rows it leaves cached may retain stale
    /// *sub-sensitivity* powers toward moved far-away nodes, which the
    /// simulator provably never reads (interference is audibility-gated).
    pub fn invalidate_row(&mut self, i: usize) {
        if let Some(row) = self.rows.get_mut(i) {
            *row = None;
        }
    }

    /// Whether row `i` is currently cached (prefetch planning).
    #[must_use]
    pub fn has_row(&self, i: usize) -> bool {
        self.rows.get(i).is_some_and(Option::is_some)
    }

    /// The cached row for `i`, if one is filled this epoch.
    #[must_use]
    pub fn cached(&self, i: usize) -> Option<&LinkRow> {
        self.rows.get(i).and_then(Option::as_ref)
    }

    /// Number of row fills since construction — how many times a
    /// (re-)computation of some node's links actually ran.
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Row `i`, computing it on first access this epoch over the given
    /// sorted candidate set. `compute(j)` must return the link budget
    /// between nodes `i` and `j`; it is only invoked for pairs no other
    /// cached row already covers (links are symmetric, so entry `i` of a
    /// cached row `j` is reused directly).
    pub fn row(
        &mut self,
        i: usize,
        cands: &[usize],
        compute: impl FnMut(usize) -> Link,
    ) -> &LinkRow {
        if !self.has_row(i) {
            let row = self.compute_row(i, cands, compute);
            self.install(i, row);
        }
        self.rows
            .get(i)
            .and_then(Option::as_ref)
            .expect("row just filled")
    }

    /// Installs a row computed elsewhere (the parallel prefetch path).
    /// Counts as a rebuild; an already-cached row is left untouched so
    /// prefetch can never clobber fresher lazy fills.
    pub fn install(&mut self, i: usize, row: LinkRow) {
        if !self.has_row(i) {
            self.rebuilds += 1;
            if let Some(slot) = self.rows.get_mut(i) {
                *slot = Some(row);
            }
        }
    }

    /// Computes the row value for `i` over `cands` without touching the
    /// cache — the pure function worker threads evaluate during parallel
    /// prefetch. Symmetric reuse only consults rows already cached at
    /// call time (deterministic: the cached set is fixed while workers
    /// run), so an installed prefetched row is bit-identical to the row
    /// a lazy fill would have produced.
    #[must_use]
    pub fn compute_row(
        &self,
        i: usize,
        cands: &[usize],
        mut compute: impl FnMut(usize) -> Link,
    ) -> LinkRow {
        let mut links = Vec::with_capacity(cands.len());
        let mut audible = Vec::new();
        for &j in cands {
            let link = if j == i {
                Link::silent()
            } else if let Some(other) = self.rows.get(j).and_then(Option::as_ref) {
                other.get(i)
            } else {
                compute(j)
            };
            if link.audible {
                audible.push(j);
            }
            links.push(link);
        }
        LinkRow {
            cand: cands.to_vec(),
            links,
            audible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(power_dbm: f64, audible: bool) -> Link {
        Link {
            power: Dbm::new(power_dbm),
            power_mw: Dbm::new(power_dbm).to_milliwatts().value(),
            audible,
        }
    }

    fn all(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn rows_fill_lazily_and_reuse_symmetry() {
        let mut cache = LinkCache::new();
        cache.resize(4);
        let mut computed = Vec::new();
        let row0 = cache.row(0, &all(4), |j| {
            computed.push((0, j));
            link(-80.0 - j as f64, true)
        });
        assert_eq!(row0.audible, vec![1, 2, 3]);
        assert_eq!(computed, vec![(0, 1), (0, 2), (0, 3)]);

        // Row 1 must reuse (0,1) from row 0 and only compute (1,2), (1,3).
        let mut computed = Vec::new();
        let row1 = cache.row(1, &all(4), |j| {
            computed.push((1, j));
            link(-90.0, false)
        });
        assert_eq!(computed, vec![(1, 2), (1, 3)]);
        assert!((row1.get(0).power.value() - (-81.0)).abs() < 1e-12);
        assert_eq!(row1.audible, vec![0]);

        // A second access computes nothing.
        let _ = cache.row(0, &all(4), |_| panic!("row 0 is cached"));
    }

    #[test]
    fn sparse_rows_answer_silent_for_non_candidates() {
        let mut cache = LinkCache::new();
        cache.resize(5);
        // Row 2's candidates are {1, 2, 3} only.
        let row = cache.row(2, &[1, 2, 3], |_| link(-70.0, true));
        assert_eq!(row.audible, vec![1, 3]);
        assert!(row.get(1).audible);
        assert!(!row.get(0).audible, "non-candidate must read silent");
        assert!(!row.get(4).audible);
        assert_eq!(row.get(4).power_mw, 0.0);
        // Entries iterate the candidate set in order.
        let idx: Vec<usize> = row.entries().map(|(j, _)| j).collect();
        assert_eq!(idx, vec![1, 2, 3]);
    }

    #[test]
    fn symmetric_reuse_across_sparse_rows() {
        let mut cache = LinkCache::new();
        cache.resize(4);
        let _ = cache.row(0, &[0, 1], |_| link(-77.0, true));
        // Row 1 reuses (0,1) from row 0; only (1,2) is fresh.
        let mut computed = Vec::new();
        let row1 = cache.row(1, &[0, 1, 2], |j| {
            computed.push(j);
            link(-95.0, false)
        });
        assert_eq!(computed, vec![2]);
        assert!((row1.get(0).power.value() - (-77.0)).abs() < 1e-12);
    }

    #[test]
    fn invalidate_all_recomputes() {
        let mut cache = LinkCache::new();
        cache.resize(2);
        let _ = cache.row(0, &all(2), |_| link(-80.0, true));
        cache.invalidate_all();
        let mut calls = 0;
        let _ = cache.row(0, &all(2), |_| {
            calls += 1;
            link(-80.0, true)
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn invalidate_row_is_scoped_and_counted() {
        let mut cache = LinkCache::new();
        cache.resize(3);
        let _ = cache.row(0, &all(3), |_| link(-80.0, true));
        let _ = cache.row(1, &all(3), |_| link(-85.0, true));
        assert_eq!(cache.rebuilds(), 2);
        cache.invalidate_row(0);
        // Row 1 must survive; row 0 must refill (one more rebuild).
        let _ = cache.row(1, &all(3), |_| panic!("row 1 was not invalidated"));
        let mut calls = 0;
        let _ = cache.row(0, &all(3), |_| {
            calls += 1;
            link(-80.0, true)
        });
        assert_eq!(calls, 1, "only the uncached pair (0,2) is recomputed");
        assert_eq!(cache.rebuilds(), 3);
    }

    #[test]
    fn resize_clears_and_grows() {
        let mut cache = LinkCache::new();
        cache.resize(2);
        let _ = cache.row(1, &all(2), |_| link(-80.0, true));
        cache.resize(3);
        assert_eq!(cache.len(), 3);
        let mut calls = 0;
        let row = cache.row(1, &all(3), |_| {
            calls += 1;
            link(-120.0, false)
        });
        assert_eq!(calls, 2, "old rows must not survive a resize");
        assert!(row.audible.is_empty());
    }

    #[test]
    fn compute_row_matches_lazy_fill_bit_for_bit() {
        let budget = |i: usize, j: usize| link(-70.0 - (i + j) as f64, !(i + j).is_multiple_of(3));
        let mut lazy = LinkCache::new();
        lazy.resize(4);
        let _ = lazy.row(1, &all(4), |j| budget(1, j));
        let expected = lazy.row(2, &all(4), |j| budget(2, j)).clone();

        let mut pre = LinkCache::new();
        pre.resize(4);
        let _ = pre.row(1, &all(4), |j| budget(1, j));
        let computed = pre.compute_row(2, &all(4), |j| budget(2, j));
        pre.install(2, computed);
        let row = pre.row(2, &all(4), |_| panic!("row 2 was installed"));
        assert_eq!(row.audible, expected.audible);
        for j in 0..4 {
            assert_eq!(
                row.get(j).power.value().to_bits(),
                expected.get(j).power.value().to_bits()
            );
            assert_eq!(
                row.get(j).power_mw.to_bits(),
                expected.get(j).power_mw.to_bits()
            );
            assert_eq!(row.get(j).audible, expected.get(j).audible);
        }
        assert_eq!(pre.rebuilds(), lazy.rebuilds());
    }

    #[test]
    fn install_never_clobbers_a_cached_row() {
        let mut cache = LinkCache::new();
        cache.resize(2);
        let _ = cache.row(0, &all(2), |_| link(-60.0, true));
        let stale = cache.compute_row(0, &all(2), |_| link(-120.0, false));
        cache.install(0, stale);
        assert!(cache.row(0, &all(2), |_| panic!("cached")).get(1).audible);
    }
}
