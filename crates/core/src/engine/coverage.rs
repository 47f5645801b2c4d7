//! The flat coverage index behind the [`Ledger`](super::Ledger)'s query
//! API.
//!
//! Purchases are recorded twice, in two flat structures:
//!
//! * **Start runs** — per `(element, type_index)` slot, a sorted
//!   `Vec<(start, copies)>` of lease start times. Arrivals are near-sorted
//!   in every workload, so recording is an amortized O(1) append (an
//!   out-of-order start falls back to a binary-search insert whose shift
//!   work is tracked in [`CoverageStats::shift_work`]); exact-triple
//!   queries ([`owns`](CoverageIndex::owns)) and per-type window queries
//!   ([`covering_start`](CoverageIndex::covering_start)) are one binary
//!   search over contiguous memory.
//! * **Coverage profiles** — per element, the *merged union* of every
//!   purchased validity window as a sorted list of disjoint `[start, end)`
//!   intervals. Overlapping leases collapse, so point coverage
//!   ([`covered_element`](CoverageIndex::covered_element)), window
//!   coverage and the distinct-element count
//!   ([`count_covered_elements`](CoverageIndex::count_covered_elements))
//!   run over a list that is usually a handful of entries regardless of
//!   how many leases were bought.
//!
//! Both are `Vec`s indexed by the element's dense slot in the index's
//! [`ElementIndex`], which the [`Ledger`](super::Ledger) shares for its
//! per-element statistics: runs at `slot * K + k`, profiles at `slot`.
//! Every container keeps its allocation across
//! [`reset`](CoverageIndex::reset) so a recycled ledger records purchases
//! without touching the allocator.

use super::elements::ElementIndex;
use crate::time::TimeStep;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Size diagnostics of a [`CoverageIndex`] — used by the long-horizon
/// scaling tests to pin the amortized-append contract without relying on
/// wall-clock measurements.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Start-run slots allocated: `K` per element plus one per purchased
    /// `(element, type)` pair of an out-of-range type.
    pub slots: usize,
    /// Total `(start, copies)` runs across all slots.
    pub start_runs: usize,
    /// Total merged coverage intervals across all elements.
    pub intervals: usize,
    /// Total elements shifted by out-of-order (non-append) inserts since
    /// the last reset. Near-sorted arrivals keep this at zero; a value
    /// growing superlinearly in the purchase count means the append fast
    /// path stopped applying.
    pub shift_work: u64,
    /// Elements interned into dense slots.
    pub elements: usize,
    /// Entries of the element id → slot table (see
    /// [`ElementIndex::table_entries`]).
    pub table_entries: usize,
}

/// Sorted `(start, copies)` runs of one `(element, type)` slot; duplicate
/// purchases merge into `copies`.
type Starts = Vec<(TimeStep, u32)>;

/// Merged coverage profile of one element: sorted, disjoint, non-adjacent
/// `[start, end)` intervals — exactly the union of every purchased window.
type Profile = Vec<(TimeStep, TimeStep)>;

/// The stabbing-count index behind
/// [`count_covered_elements`](CoverageIndex::count_covered_elements).
///
/// Profile intervals are disjoint per element, so at most one interval of
/// any element contains a given `t` — the distinct-covered-element count
/// is exactly the number of intervals stabbed by `t`, which two
/// independently sorted arrays answer in two binary searches:
/// `#starts ≤ t − #ends ≤ t`. Built lazily on the first count query and
/// dropped by any mutation, so a populated ledger answers count sweeps in
/// `O(log I)` per query with one `O(I log I)` build amortized over the
/// whole mutation-free query run.
#[derive(Clone, Debug, Default)]
struct StabIndex {
    starts: Vec<TimeStep>,
    ends: Vec<TimeStep>,
}

/// The flat per-element coverage index maintained incrementally by
/// [`Ledger::buy`](super::Ledger::buy)/[`Ledger::buy_priced`](super::Ledger::buy_priced).
///
/// Elements are addressed by their slot ([`intern`](Self::intern),
/// [`slot`](Self::slot)). The index is append-only — advancing the clock
/// never removes entries — so coverage queries are valid at arbitrary
/// time steps, including backdated and future ones. The opt-in
/// [`prune_expired`](CoverageIndex::prune_expired) trades history for
/// space on unbounded streams.
#[derive(Clone, Debug)]
pub(super) struct CoverageIndex {
    /// The number of in-range lease types (`K`): runs per element.
    stride: usize,
    elements: ElementIndex,
    /// Start runs of in-range types, entry `slot * stride + k`.
    runs: Vec<Starts>,
    /// Start runs of out-of-range types (`k ≥ stride`, only reachable via
    /// `buy_priced`), keyed by `(slot, k)`.
    overflow: BTreeMap<(usize, usize), Starts>,
    /// Coverage profile per slot.
    profiles: Vec<Profile>,
    /// Recycled backing vectors (arena reuse across [`reset`](Self::reset)).
    spare_starts: Vec<Starts>,
    spare_intervals: Vec<Profile>,
    /// Lazily built stabbing-count index; dropped by every mutation.
    stab: OnceLock<StabIndex>,
    shift_work: u64,
}

impl Default for CoverageIndex {
    fn default() -> Self {
        CoverageIndex {
            stride: 1,
            elements: ElementIndex::default(),
            runs: Vec::new(),
            overflow: BTreeMap::new(),
            profiles: Vec::new(),
            spare_starts: Vec::new(),
            spare_intervals: Vec::new(),
            stab: OnceLock::new(),
            shift_work: 0,
        }
    }
}

impl CoverageIndex {
    /// Sets the run stride (the structure's type count). Only valid while
    /// the index is empty — [`Ledger::new`](super::Ledger::new) and
    /// [`Ledger::reset`](super::Ledger::reset) call it before any
    /// purchase.
    pub fn set_stride(&mut self, num_types: usize) {
        debug_assert!(
            self.elements.ids().is_empty(),
            "stride is fixed once elements exist"
        );
        self.stride = num_types.max(1);
    }

    /// The slot of `element`, if it was interned. Never interns.
    #[inline]
    pub fn slot(&self, element: usize) -> Option<usize> {
        self.elements.get(element)
    }

    /// The slot of `element`, interning it (with empty runs and profile)
    /// on first use.
    pub fn intern(&mut self, element: usize) -> usize {
        let slot = self.elements.intern(element);
        if slot == self.profiles.len() {
            for _ in 0..self.stride {
                self.runs.push(self.spare_starts.pop().unwrap_or_default());
            }
            self.profiles
                .push(self.spare_intervals.pop().unwrap_or_default());
        }
        slot
    }

    /// The element id of every slot, in slot order.
    pub fn element_ids(&self) -> &[usize] {
        self.elements.ids()
    }

    fn starts(&self, slot: usize, k: usize) -> Option<&Starts> {
        if k < self.stride {
            self.runs.get(slot * self.stride + k)
        } else {
            self.overflow.get(&(slot, k))
        }
    }

    /// Records `copies` purchases of type `k` starting at `start` for the
    /// element at `slot`; `window_len` is the validity window length when
    /// `k` is in range for the ledger's structure (out-of-range purchases
    /// carry no window information and only enter the ownership runs).
    pub fn insert_copies(
        &mut self,
        slot: usize,
        k: usize,
        start: TimeStep,
        window_len: Option<u64>,
        copies: u32,
    ) {
        if copies == 0 {
            return;
        }
        let starts = if k < self.stride {
            self.runs.get_mut(slot * self.stride + k)
        } else {
            Some(self.overflow.entry((slot, k)).or_default())
        };
        let mut shift = 0u64;
        if let Some(starts) = starts {
            match starts.last_mut() {
                Some(last) if last.0 == start => last.1 += copies,
                Some(last) if last.0 < start => starts.push((start, copies)),
                None => starts.push((start, copies)),
                _ => {
                    // Out-of-order (backdated) start: binary-search insert.
                    let idx = starts.partition_point(|&(s, _)| s < start);
                    match starts.get_mut(idx) {
                        Some(at) if at.0 == start => at.1 += copies,
                        _ => {
                            shift = (starts.len() - idx) as u64;
                            starts.insert(idx, (start, copies));
                        }
                    }
                }
            }
        }
        self.shift_work += shift;
        if let Some(len) = window_len {
            self.add_window(slot, start, start + len);
        }
    }

    /// Every recorded start run as `(element, type_index, start, copies)`,
    /// sorted — the deterministic export behind non-`Full` ledger
    /// snapshots. Feeding the entries back through
    /// [`insert_copies`](Self::insert_copies) (window lengths re-derived from the lease
    /// structure) rebuilds an index answering every ownership and coverage
    /// query identically, provided the exporting index was never
    /// [pruned](Self::prune_expired) — after a prune the rebuilt merged
    /// profiles may narrow *behind* the prune horizon, exactly the region
    /// prune already left unreliable.
    pub fn export_runs(&self) -> Vec<(usize, usize, TimeStep, u32)> {
        let mut by_element: Vec<(usize, usize)> = self
            .element_ids()
            .iter()
            .enumerate()
            .map(|(slot, &element)| (element, slot))
            .collect();
        by_element.sort_unstable();
        let mut out = Vec::new();
        for (element, slot) in by_element {
            let in_range = (0..self.stride).filter_map(|k| Some((k, self.starts(slot, k)?)));
            let out_of_range = self
                .overflow
                .range((slot, 0)..(slot + 1, 0))
                .map(|(&(_, k), starts)| (k, starts));
            for (k, starts) in in_range.chain(out_of_range) {
                out.extend(
                    starts
                        .iter()
                        .map(|&(start, copies)| (element, k, start, copies)),
                );
            }
        }
        out
    }

    /// Merges the window `[start, end)` into the profile at `slot`.
    fn add_window(&mut self, slot: usize, start: TimeStep, end: TimeStep) {
        self.stab.take();
        let mut shift = 0u64;
        if let Some(intervals) = self.profiles.get_mut(slot) {
            match intervals.last_mut() {
                None => intervals.push((start, end)),
                Some(last) if start > last.1 => intervals.push((start, end)),
                Some(last) if start >= last.0 => last.1 = last.1.max(end),
                _ => {
                    // Out-of-order window: splice `[start, end)` into the
                    // sorted disjoint list, merging every interval it
                    // touches (adjacency included — the profile stores a
                    // true union).
                    let lo = intervals.partition_point(|&(_, e)| e < start);
                    let hi = intervals.partition_point(|&(s, _)| s <= end);
                    if lo == hi {
                        shift = (intervals.len() - lo) as u64;
                        intervals.insert(lo, (start, end));
                    } else {
                        // lo < hi: the window touches at least one
                        // interval, so both boundary lookups resolve.
                        let merged_start = intervals.get(lo).map_or(start, |&(s, _)| s.min(start));
                        let merged_end = intervals
                            .get(hi.wrapping_sub(1))
                            .map_or(end, |&(_, e)| e.max(end));
                        if let Some(first) = intervals.get_mut(lo) {
                            *first = (merged_start, merged_end);
                        }
                        if hi - lo > 1 {
                            shift = (intervals.len() - hi) as u64;
                            intervals.drain(lo + 1..hi);
                        }
                    }
                }
            }
        }
        self.shift_work += shift;
    }

    /// Whether some purchased window of the element at `slot` intersects
    /// the closed step range `[lo, hi]` (covers `t` when `lo = hi = t`) —
    /// one binary search over the merged profile.
    pub fn covered_during(&self, slot: usize, lo: TimeStep, hi: TimeStep) -> bool {
        let Some(intervals) = self.profiles.get(slot) else {
            return false;
        };
        // Intervals are disjoint and sorted, so ends are increasing: the
        // only candidate is the last interval starting at or before `hi`.
        let idx = intervals.partition_point(|&(s, _)| s <= hi);
        idx.checked_sub(1)
            .and_then(|i| intervals.get(i))
            .is_some_and(|&(_, end)| end > lo)
    }

    /// Number of distinct elements with a purchased window covering `t` —
    /// two binary searches over the lazily built [`StabIndex`],
    /// independent of both the element count and the decision count.
    pub fn count_covered_elements(&self, t: TimeStep) -> usize {
        let stab = self.stab.get_or_init(|| {
            let mut index = StabIndex::default();
            for &(start, end) in self.profiles.iter().flatten() {
                index.starts.push(start);
                index.ends.push(end);
            }
            index.starts.sort_unstable();
            index.ends.sort_unstable();
            index
        });
        stab.starts.partition_point(|&s| s <= t) - stab.ends.partition_point(|&e| e <= t)
    }

    /// The latest start of a type-`k` lease of the element at `slot` whose
    /// window of length `len` covers `t`.
    pub fn covering_start(&self, slot: usize, k: usize, len: u64, t: TimeStep) -> Option<TimeStep> {
        if len == 0 {
            return None;
        }
        let starts = self.starts(slot, k)?;
        let idx = Self::rank_le(starts, t);
        let &(start, _) = idx.checked_sub(1).and_then(|i| starts.get(i))?;
        (start >= t.saturating_sub(len - 1)).then_some(start)
    }

    /// Whether a type-`k` lease starting at `start` was purchased for the
    /// element at `slot` at least once.
    pub fn owns(&self, slot: usize, k: usize, start: TimeStep) -> bool {
        self.starts(slot, k).is_some_and(|starts| {
            let idx = Self::rank_le(starts, start);
            idx.checked_sub(1)
                .and_then(|i| starts.get(i))
                .is_some_and(|&(s, _)| s == start)
        })
    }

    /// The number of starts at or before `t` (equivalently, the index of
    /// the first start beyond `t`), galloping from the tail: online
    /// serve paths query starts near the clock, so the probe count scales
    /// with how far behind the tail `t` lies rather than with the run
    /// length — recent-history queries stay O(1)-ish however long the
    /// stream grows.
    fn rank_le(starts: &[(TimeStep, u32)], t: TimeStep) -> usize {
        let n = starts.len();
        if n == 0 {
            return 0;
        }
        let mut back = 1usize;
        while back <= n {
            match starts.get(n - back) {
                Some(&(start, _)) if start > t => back *= 2,
                _ => break,
            }
        }
        // All starts below `n - back` are ≤ t (or the slice begins there);
        // everything from `n - back/2` on is > t.
        let lo = n.saturating_sub(back);
        let hi = n - back / 2;
        let window = starts.get(lo..hi).unwrap_or_default();
        lo + window.partition_point(|&(s, _)| s <= t)
    }

    /// Removes every start run of a known lease type whose window of the
    /// corresponding length ended at or before `horizon`
    /// (`start + len ≤ horizon`), and every profile interval that ended by
    /// the horizon. Returns the number of purchased copies removed.
    pub fn prune_expired(&mut self, horizon: TimeStep, lengths: &[u64]) -> usize {
        self.stab.take();
        let mut removed = 0usize;
        // Out-of-range purchases (the overflow runs) carry no window
        // information; they are kept so `owns` keeps answering for them.
        for (idx, starts) in self.runs.iter_mut().enumerate() {
            let Some(&len) = lengths.get(idx % self.stride) else {
                continue;
            };
            if horizon < len {
                continue;
            }
            let cutoff = horizon - len; // start ≤ cutoff ⇒ ended by horizon
            let n = starts.partition_point(|&(s, _)| s <= cutoff);
            if n > 0 {
                removed += starts
                    .get(..n)
                    .unwrap_or_default()
                    .iter()
                    // lint:allow(cast: u32 copy counts always widen into usize)
                    .map(|&(_, c)| c as usize)
                    .sum::<usize>();
                starts.drain(..n);
            }
        }
        for intervals in &mut self.profiles {
            let n = intervals.partition_point(|&(_, e)| e <= horizon);
            intervals.drain(..n);
        }
        removed
    }

    /// Clears every recorded purchase while keeping allocated capacity —
    /// the arena-reuse path behind [`Ledger::reset`](super::Ledger::reset).
    pub fn reset(&mut self) {
        self.stab.take();
        self.elements.clear();
        let overflow = std::mem::take(&mut self.overflow).into_values();
        for mut starts in self.runs.drain(..).chain(overflow) {
            starts.clear();
            self.spare_starts.push(starts);
        }
        for mut intervals in self.profiles.drain(..) {
            intervals.clear();
            self.spare_intervals.push(intervals);
        }
        self.shift_work = 0;
    }

    /// The element table.
    pub fn elements(&self) -> &ElementIndex {
        &self.elements
    }

    /// Current size and shift-work diagnostics.
    pub fn stats(&self) -> CoverageStats {
        CoverageStats {
            slots: self.runs.len() + self.overflow.len(),
            start_runs: self
                .runs
                .iter()
                .chain(self.overflow.values())
                .map(Vec::len)
                .sum(),
            intervals: self.profiles.iter().map(Vec::len).sum(),
            shift_work: self.shift_work,
            elements: self.elements.ids().len(),
            table_entries: self.elements.table_entries(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::Triple;

    /// Interns the triple's element and records one purchase of it.
    fn buy(index: &mut CoverageIndex, triple: Triple, window_len: Option<u64>) {
        let slot = index.intern(triple.element);
        index.insert_copies(slot, triple.type_index, triple.start, window_len, 1);
    }

    fn covered(index: &CoverageIndex, element: usize, t: TimeStep) -> bool {
        index
            .slot(element)
            .is_some_and(|slot| index.covered_during(slot, t, t))
    }

    fn owns(index: &CoverageIndex, triple: Triple) -> bool {
        index
            .slot(triple.element)
            .is_some_and(|slot| index.owns(slot, triple.type_index, triple.start))
    }

    #[test]
    fn profile_merges_overlapping_and_adjacent_windows() {
        let mut index = CoverageIndex::default();
        index.set_stride(2);
        buy(&mut index, Triple::new(0, 0, 4), Some(4)); // [4, 8)
        buy(&mut index, Triple::new(0, 0, 8), Some(4)); // adjacent [8, 12)
        buy(&mut index, Triple::new(0, 1, 6), Some(16)); // overlapping [6, 22)
        let stats = index.stats();
        assert_eq!(stats.intervals, 1, "one merged [4, 22) interval");
        assert!(covered(&index, 0, 4));
        assert!(covered(&index, 0, 21));
        assert!(!covered(&index, 0, 22));
        assert!(!covered(&index, 0, 3));
    }

    #[test]
    fn out_of_order_windows_splice_and_merge() {
        let mut index = CoverageIndex::default();
        index.set_stride(2);
        buy(&mut index, Triple::new(0, 0, 20), Some(4)); // [20, 24)
        buy(&mut index, Triple::new(0, 0, 0), Some(4)); // backdated [0, 4)
        buy(&mut index, Triple::new(0, 0, 10), Some(4)); // backdated [10, 14)
        assert_eq!(index.stats().intervals, 3);
        // A bridging window merges all three into one.
        buy(&mut index, Triple::new(0, 1, 2), Some(20)); // [2, 22)
        assert_eq!(index.stats().intervals, 1);
        assert!(covered(&index, 0, 0));
        assert!(covered(&index, 0, 23));
        assert!(!covered(&index, 0, 24));
        assert!(index.stats().shift_work > 0, "backdating is counted");
    }

    #[test]
    fn append_path_does_no_shift_work() {
        let mut index = CoverageIndex::default();
        for t in 0..1_000u64 {
            buy(&mut index, Triple::new((t % 7) as usize, 0, t), Some(3));
        }
        assert_eq!(index.stats().shift_work, 0, "sorted arrivals are appends");
    }

    #[test]
    fn duplicate_starts_merge_into_copies() {
        let mut index = CoverageIndex::default();
        index.set_stride(2);
        let tr = Triple::new(3, 1, 8);
        buy(&mut index, tr, Some(4));
        buy(&mut index, tr, Some(4));
        assert_eq!(index.stats().start_runs, 1);
        assert!(owns(&index, tr));
        assert!(!owns(&index, Triple::new(3, 1, 9)));
        // Both copies count when pruned.
        assert_eq!(index.prune_expired(12, &[2, 4]), 2);
        assert!(!owns(&index, tr));
    }

    #[test]
    fn export_runs_round_trip_through_insert_copies() {
        let mut index = CoverageIndex::default();
        index.set_stride(2);
        buy(&mut index, Triple::new(0, 0, 4), Some(4));
        buy(&mut index, Triple::new(0, 0, 4), Some(4)); // duplicate start merges
        buy(&mut index, Triple::new(3, 1, 8), Some(16));
        buy(&mut index, Triple::new(0, 1, 0), Some(16));
        buy(&mut index, Triple::new(7, 5, 2), None); // out-of-stride, no window
        let runs = index.export_runs();
        assert_eq!(
            runs,
            vec![(0, 0, 4, 2), (0, 1, 0, 1), (3, 1, 8, 1), (7, 5, 2, 1)]
        );
        let mut rebuilt = CoverageIndex::default();
        rebuilt.set_stride(2);
        for &(element, k, start, copies) in &runs {
            let window_len = (k < 2).then_some(if k == 0 { 4 } else { 16 });
            let slot = rebuilt.intern(element);
            rebuilt.insert_copies(slot, k, start, window_len, copies);
        }
        assert_eq!(rebuilt.export_runs(), runs);
        for t in 0..24u64 {
            assert_eq!(covered(&rebuilt, 0, t), covered(&index, 0, t));
            assert_eq!(covered(&rebuilt, 3, t), covered(&index, 3, t));
            assert_eq!(
                rebuilt.count_covered_elements(t),
                index.count_covered_elements(t)
            );
        }
        assert!(owns(&rebuilt, Triple::new(7, 5, 2)));
        assert_eq!(rebuilt.stats(), index.stats());
    }

    #[test]
    fn reset_keeps_capacity_and_clears_answers() {
        let mut index = CoverageIndex::default();
        for t in 0..100u64 {
            buy(&mut index, Triple::new(0, 0, t), Some(5));
        }
        assert!(covered(&index, 0, 50));
        index.reset();
        assert_eq!(index.stats(), CoverageStats::default());
        assert!(!covered(&index, 0, 50));
        assert!(!owns(&index, Triple::new(0, 0, 0)));
        assert_eq!(index.count_covered_elements(50), 0);
        // Recycled vectors are reused without fresh allocation.
        buy(&mut index, Triple::new(0, 0, 1), Some(5));
        assert!(covered(&index, 0, 3));
    }
}
