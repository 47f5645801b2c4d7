//! The [`Ledger`]: the centralized, serializable decision record of one
//! online run, rebuilt on flat data structures so the steady-state
//! purchase path is allocation-free.
//!
//! * Cost categories are interned into a first-use-ordered table — the
//!   per-purchase accounting is one short string compare against a handful
//!   of entries instead of a `BTreeMap<Cow<str>, f64>` walk that cloned
//!   the key on every purchase.
//! * Per-element statistics live in a deterministic `FxHashMap`.
//! * The expiry heap is a bucketed
//!   [`ExpiryTimeline`](super::expiry::ExpiryTimeline) of counts.
//! * Coverage queries run on the flat
//!   [`CoverageIndex`](super::coverage::CoverageIndex) of sorted start
//!   runs and merged per-element coverage profiles.
//!
//! The JSON schema ([`Ledger::to_json`]) is unchanged for the default
//! [`DecisionRetention::Full`] policy: only the lease structure, the clock
//! and the decision trace (with full category names) are serialized, and
//! deserialization replays the trace. Under [`DecisionRetention::Bounded`]
//! and [`DecisionRetention::AggregateOnly`] the trace no longer determines
//! the derived state, so the snapshot payload grows a versioned
//! `retention` field and serializes the aggregates, coverage runs and
//! expiry timeline directly; deserialization re-installs them without
//! replay.

use super::coverage::{CoverageIndex, CoverageStats, FxHashMap};
use super::expiry::ExpiryTimeline;
use crate::framework::Triple;
use crate::lease::{Lease, LeaseStructure};
use crate::time::{TimeStep, Window};
use serde::{de, json, Deserialize, Serialize, Value};
use std::borrow::Cow;

/// One irrevocable spending decision recorded in a [`Ledger`].
#[derive(Clone, Debug, PartialEq)]
pub struct Decision {
    /// Time step at which the decision was made.
    pub time: TimeStep,
    /// Infrastructure element the money was spent on (set id, facility id,
    /// edge id, vertex id, ... — `0` for single-resource problems).
    pub element: usize,
    /// The lease bought, or `None` for auxiliary charges (e.g. connection
    /// costs in facility leasing).
    pub lease: Option<Lease>,
    /// Money paid.
    pub cost: f64,
    /// Spending category (`"lease"`, `"connection"`, `"rounded"`, ...).
    pub category: Cow<'static, str>,
}

impl Decision {
    /// The purchased triple `(element, k, start)`, when this decision is a
    /// lease purchase.
    pub fn triple(&self) -> Option<Triple> {
        self.lease
            .map(|l| Triple::new(self.element, l.type_index, l.start))
    }
}

/// Per-element spending statistics maintained by the [`Ledger`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ElementStats {
    /// Number of leases bought for the element.
    pub leases: usize,
    /// Money spent on leases of the element.
    pub lease_cost: f64,
    /// Auxiliary money charged against the element (connections, ...).
    pub extra_cost: f64,
}

/// How much of the decision trace a [`Ledger`] retains.
///
/// Every cost aggregate — [`total_cost`](Ledger::total_cost), the
/// per-category breakdown, [`element_stats`](Ledger::element_stats),
/// [`leases_bought`](Ledger::leases_bought),
/// [`decision_count`](Ledger::decision_count) — and every coverage and
/// expiry query is maintained incrementally at record time and is
/// **bit-identical in every mode**. Retention only narrows what
/// [`decisions`](Ledger::decisions) returns and what a snapshot can
/// replay: trading replayability for flat memory on unbounded streams,
/// where the append-only trace is the one per-request (rather than
/// per-element) allocation left on the hot path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecisionRetention {
    /// Keep every decision — the default, bit-identical to the historical
    /// behaviour, and the only mode whose snapshots replay the full trace.
    #[default]
    Full,
    /// Keep a ring of the most recent `n` decisions. Eviction is
    /// deterministic (strictly oldest-first);
    /// [`decisions`](Ledger::decisions) always returns the latest
    /// `min(recorded, n)` entries in record order.
    Bounded(usize),
    /// Keep no decisions at all: every decision folds into the cost
    /// aggregates (which happens at record time regardless) and is
    /// dropped. Equivalent to `Bounded(0)` with the clearest intent.
    AggregateOnly,
}

/// The default spending category of [`Ledger::buy`]/[`Ledger::buy_priced`].
pub const CATEGORY_LEASE: &str = "lease";

/// The spending category of client-connection charges in the facility
/// problems.
pub const CATEGORY_CONNECTION: &str = "connection";

/// The centralized decision record of one online run.
///
/// Every purchase of a triple `(i, k, t)` and every auxiliary charge flows
/// through the ledger, which maintains — incrementally, allocation-free on
/// the steady-state path — the total cost, an interned per-category
/// breakdown, the decision trace, per-element statistics and a bucketed
/// timeline of active-lease expiries.
///
/// A ledger is normally owned by a [`Driver`](super::Driver); the problem
/// crates also keep one internally so their deprecated `serve_*` entry
/// points stay usable. Long-lived workers can recycle one ledger across
/// runs with [`Ledger::reset`], which keeps every allocation.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    structure: Option<LeaseStructure>,
    decisions: Vec<Decision>,
    /// Cumulative count of every decision ever recorded — equals
    /// `decisions.len()` under `Full` retention, and keeps
    /// [`decision_count`](Ledger::decision_count) (and every stats/report
    /// consumer of it) byte-identical when retention narrows the trace.
    decision_total: usize,
    /// How much of the trace `decisions` retains.
    retention: DecisionRetention,
    total: f64,
    /// Interned `(category, total)` table in first-use order.
    categories: Vec<(Cow<'static, str>, f64)>,
    /// Bucketed timeline of `(window end, copies)` for leases not yet
    /// expired at [`now`](Ledger::now).
    expiry: ExpiryTimeline,
    per_element: FxHashMap<usize, ElementStats>,
    /// Append-only flat coverage index behind the coverage queries
    /// ([`covered`](Ledger::covered), [`owns`](Ledger::owns), ...).
    coverage: CoverageIndex,
    now: TimeStep,
    leases_bought: usize,
}

impl Ledger {
    /// An empty ledger pricing and windowing leases with `structure`.
    pub fn new(structure: LeaseStructure) -> Self {
        let mut ledger = Ledger {
            structure: Some(structure),
            ..Ledger::default()
        };
        let num_types = ledger.structure.as_ref().map_or(1, |s| s.num_types());
        ledger.coverage.set_stride(num_types);
        ledger
    }

    /// An empty ledger without a lease structure. [`Ledger::buy`] and the
    /// expiry timeline need a structure; [`Ledger::buy_priced`] with
    /// explicit windows does not.
    pub fn detached() -> Self {
        Ledger::default()
    }

    /// Clears every recorded decision, rewinds the clock and installs
    /// `structure`, while keeping all allocated capacity — the arena-reuse
    /// path for workers running many ledgers in sequence (SimLab reuses
    /// one ledger per worker thread across cells). A reset ledger is
    /// observationally identical to `Ledger::new(structure)`.
    ///
    /// The [`DecisionRetention`] policy is configuration, not recorded
    /// state, and survives the reset.
    pub fn reset(&mut self, structure: LeaseStructure) {
        self.decisions.clear();
        self.decision_total = 0;
        self.total = 0.0;
        self.categories.clear();
        self.expiry.reset();
        self.per_element.clear();
        self.coverage.reset();
        self.coverage.set_stride(structure.num_types());
        self.structure = Some(structure);
        self.now = 0;
        self.leases_bought = 0;
    }

    /// The lease structure used for pricing and validity windows, if any.
    pub fn structure(&self) -> Option<&LeaseStructure> {
        self.structure.as_ref()
    }

    /// Advances the ledger clock to `t` (monotone), expiring every lease
    /// whose window ends at or before `t`. Returns how many leases expired.
    ///
    /// Re-advancing to the current clock (or any earlier time) is a free
    /// no-op: purchases only enter the expiry timeline with a window end
    /// beyond the clock, so expiry processing genuinely runs once per
    /// *distinct* time even under equal-time batch submission.
    pub fn advance(&mut self, t: TimeStep) -> usize {
        if t <= self.now {
            // Timeline invariant: every queued window end exceeds `now`,
            // so nothing can expire at or before it.
            return 0;
        }
        self.now = t;
        self.expiry.advance_to(t)
    }

    /// The current ledger clock: the largest time passed to
    /// [`advance`](Ledger::advance) so far. Decision times given to
    /// [`buy`](Ledger::buy)/[`charge`](Ledger::charge) do **not** move the
    /// clock — the [`Driver`](super::Driver) advances it once per submitted
    /// request, so expiry bookkeeping is always relative to the request
    /// stream, not to (possibly backdated) purchase times.
    pub fn now(&self) -> TimeStep {
        self.now
    }

    /// Buys `triple` at time `t`, priced by the ledger's lease structure,
    /// under the [`CATEGORY_LEASE`] category. Returns the price paid.
    ///
    /// # Panics
    ///
    /// Panics if the ledger has no structure or the triple's type index is
    /// out of range — both are programming errors on the driver path, where
    /// the structure is installed at construction. Fallible callers use
    /// [`Ledger::try_buy`].
    pub fn buy(&mut self, t: TimeStep, triple: Triple) -> f64 {
        match self.try_buy(t, triple) {
            Some(cost) => cost,
            // lint:allow(panic: documented API contract, pinned by the structureless_buy_panics_with_guidance test — detached ledgers must use buy_priced)
            None => panic!("Ledger::buy requires a lease structure; use buy_priced"),
        }
    }

    /// Fallible twin of [`Ledger::buy`]: returns `None` — recording
    /// nothing — when the ledger has no structure or the triple's type
    /// index is out of range.
    pub fn try_buy(&mut self, t: TimeStep, triple: Triple) -> Option<f64> {
        let cost = self
            .structure
            .as_ref()
            .filter(|s| triple.type_index < s.num_types())
            .map(|s| s.cost(triple.type_index))?;
        self.record_lease(t, triple, cost, Cow::Borrowed(CATEGORY_LEASE));
        Some(cost)
    }

    /// Buys `triple` at time `t` for an explicit price under `category`
    /// (problems with per-element prices: weighted set cover, facility
    /// leasing, scaled edge structures, ...).
    pub fn buy_priced(
        &mut self,
        t: TimeStep,
        triple: Triple,
        cost: f64,
        category: &'static str,
    ) -> f64 {
        self.record_lease(t, triple, cost, Cow::Borrowed(category));
        cost
    }

    /// Adds `cost` to `category`'s interned total, returning `false` when
    /// the category has not been interned yet (the caller then pushes the
    /// one-and-only clone). The table holds a handful of entries, so the
    /// lookup is a short linear scan with no allocation.
    #[must_use]
    fn add_category_cost(&mut self, category: &str, cost: f64) -> bool {
        match self
            .categories
            .iter_mut()
            .find(|(name, _)| name.as_ref() == category)
        {
            Some(entry) => {
                entry.1 += cost;
                true
            }
            None => false,
        }
    }

    /// Appends `decision` to the retained trace under the current
    /// retention policy, bumping the cumulative total. The policy only
    /// governs storage — every aggregate was already updated by the
    /// caller, so evicting (or never storing) a decision loses nothing
    /// but its replayability.
    fn push_decision(&mut self, decision: Decision) {
        self.decision_total += 1;
        match self.retention {
            DecisionRetention::Full => self.decisions.push(decision),
            DecisionRetention::AggregateOnly | DecisionRetention::Bounded(0) => {}
            DecisionRetention::Bounded(n) => {
                self.decisions.push(decision);
                // Amortized ring: let the buffer grow to 2n, then drop the
                // oldest half in one contiguous move — O(1) amortized per
                // push, memory bounded by 2n, and the exposed window
                // (`decisions()`) is always exactly the latest
                // min(recorded, n) entries.
                if self.decisions.len() >= n.saturating_mul(2) {
                    self.decisions.drain(..self.decisions.len() - n);
                }
            }
        }
    }

    pub(super) fn record_lease(
        &mut self,
        t: TimeStep,
        triple: Triple,
        cost: f64,
        category: Cow<'static, str>,
    ) {
        debug_assert!(
            cost.is_finite() && cost >= 0.0,
            "lease prices are non-negative"
        );
        self.total += cost;
        if !self.add_category_cost(&category, cost) {
            self.categories.push((category.clone(), cost));
        }
        let stats = self.per_element.entry(triple.element).or_default();
        stats.leases += 1;
        stats.lease_cost += cost;
        self.leases_bought += 1;
        let window_len = self
            .structure
            .as_ref()
            .filter(|s| triple.type_index < s.num_types())
            .map(|s| s.length(triple.type_index));
        self.coverage.insert(triple, window_len);
        if let Some(len) = window_len {
            let end = triple.start + len;
            if end > self.now {
                self.expiry.schedule(end);
            }
        }
        self.push_decision(Decision {
            time: t,
            element: triple.element,
            lease: Some(triple.lease()),
            cost,
            category,
        });
    }

    /// Records an auxiliary (non-lease) charge of `cost` against `element`
    /// at time `t` under `category` — connection costs, rounding
    /// fallbacks, and so on.
    pub fn charge(&mut self, t: TimeStep, element: usize, cost: f64, category: &'static str) {
        self.record_charge(t, element, cost, Cow::Borrowed(category));
    }

    pub(super) fn record_charge(
        &mut self,
        t: TimeStep,
        element: usize,
        cost: f64,
        category: Cow<'static, str>,
    ) {
        debug_assert!(cost.is_finite() && cost >= 0.0, "charges are non-negative");
        self.total += cost;
        if !self.add_category_cost(&category, cost) {
            self.categories.push((category.clone(), cost));
        }
        self.per_element.entry(element).or_default().extra_cost += cost;
        self.push_decision(Decision {
            time: t,
            element,
            lease: None,
            cost,
            category,
        });
    }

    /// Total money spent.
    pub fn total_cost(&self) -> f64 {
        self.total
    }

    /// Money spent under `category` (zero when never charged).
    pub fn category_cost(&self, category: &str) -> f64 {
        self.categories
            .iter()
            .find(|(name, _)| name == category)
            .map(|&(_, total)| total)
            .unwrap_or(0.0)
    }

    /// All categories with their spend, ordered by name.
    pub fn cost_breakdown(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        let mut sorted: Vec<(&str, f64)> = self
            .categories
            .iter()
            .map(|(name, total)| (name.as_ref(), *total))
            .collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(b.0));
        sorted.into_iter()
    }

    /// Number of distinct cost categories interned so far. Equals the
    /// number of category-string clones the ledger has ever made: the
    /// steady-state purchase path re-uses the interned entry without
    /// touching the allocator.
    pub fn interned_categories(&self) -> usize {
        self.categories.len()
    }

    /// The retained decision trace in decision order.
    ///
    /// Under [`DecisionRetention::Full`] this is the full trace; under
    /// `Bounded(n)` it is the most recent `min(recorded, n)` decisions;
    /// under `AggregateOnly` it is empty. Cost aggregates and coverage
    /// queries never depend on this slice.
    pub fn decisions(&self) -> &[Decision] {
        match self.retention {
            DecisionRetention::Bounded(n) => {
                let skip = self.decisions.len().saturating_sub(n);
                self.decisions.get(skip..).unwrap_or_default()
            }
            _ => &self.decisions,
        }
    }

    /// Number of decisions ever recorded (purchases plus charges) —
    /// cumulative, independent of the retention policy.
    pub fn decision_count(&self) -> usize {
        self.decision_total
    }

    /// Number of decisions currently retained in the trace
    /// (`min(decision_count, n)` under `Bounded(n)`, `0` under
    /// `AggregateOnly`, everything under `Full`).
    pub fn retained_decisions(&self) -> usize {
        self.decisions().len()
    }

    /// The active [`DecisionRetention`] policy.
    pub fn retention(&self) -> DecisionRetention {
        self.retention
    }

    /// Switches the retention policy, applying it to the already-recorded
    /// trace: tightening to `Bounded(n)` keeps only the most recent `n`
    /// decisions, `AggregateOnly` drops the trace entirely, and loosening
    /// (back toward `Full`) keeps whatever is still retained — evicted
    /// decisions are gone for good. Aggregates, coverage and expiry state
    /// are untouched in every direction.
    pub fn set_retention(&mut self, retention: DecisionRetention) {
        match retention {
            DecisionRetention::Full => {}
            DecisionRetention::AggregateOnly | DecisionRetention::Bounded(0) => {
                self.decisions.clear();
            }
            DecisionRetention::Bounded(n) => {
                let excess = self.decisions.len().saturating_sub(n);
                if excess > 0 {
                    self.decisions.drain(..excess);
                }
            }
        }
        self.retention = retention;
    }

    /// Reserves capacity for at least `additional` more decisions.
    ///
    /// The trace is append-only and, on mega-scale streams, grows into the
    /// hundreds of megabytes; callers that know (or can bound) the arrival
    /// count ahead of time skip every doubling-growth copy of that buffer.
    /// Purely an allocation hint — recorded decisions are unaffected, and
    /// bounded/aggregate-only retention caps the hint at what the ring can
    /// ever hold.
    pub fn reserve_decisions(&mut self, additional: usize) {
        let hint = match self.retention {
            DecisionRetention::Full => additional,
            DecisionRetention::Bounded(n) => additional.min(n.saturating_mul(2)),
            DecisionRetention::AggregateOnly => 0,
        };
        self.decisions.reserve(hint);
    }

    /// Number of leases bought.
    pub fn leases_bought(&self) -> usize {
        self.leases_bought
    }

    /// Whether no decision has been recorded.
    pub fn is_empty(&self) -> bool {
        self.decision_total == 0
    }

    /// Number of leases bought whose validity window extends beyond the
    /// ledger clock (after the latest [`advance`](Ledger::advance)).
    pub fn active_leases(&self) -> usize {
        self.expiry.len()
    }

    /// The earliest pending lease expiry, if any lease is still active.
    pub fn next_expiry(&self) -> Option<TimeStep> {
        self.expiry.next_expiry()
    }

    /// Whether some purchased lease of `element` covers time step `t`.
    ///
    /// One binary search over the element's merged coverage profile (a
    /// handful of intervals however many leases were bought) — the fast
    /// replacement for scanning [`decisions`](Ledger::decisions). Valid
    /// for *any* `t`, past or future; structure-less
    /// ([`detached`](Ledger::detached)) ledgers have no window information
    /// and always answer `false`.
    pub fn covered(&self, element: usize, t: TimeStep) -> bool {
        self.coverage.covered_element(element, t)
    }

    /// A purchased lease of `element` covering `t`, if any: the one whose
    /// window ends last (ties broken toward the larger type index).
    /// `O(K log n)`; `None` on structure-less ledgers.
    pub fn active_lease(&self, element: usize, t: TimeStep) -> Option<Triple> {
        let structure = self.structure.as_ref()?;
        if !self.coverage.covered_element(element, t) {
            return None;
        }
        let mut best: Option<(TimeStep, usize, TimeStep)> = None; // (end, k, start)
        for k in 0..structure.num_types() {
            let len = structure.length(k);
            if let Some(start) = self.coverage.covering_start(element, k, len, t) {
                let end = start + len;
                if best.is_none_or(|(be, bk, _)| (end, k) > (be, bk)) {
                    best = Some((end, k, start));
                }
            }
        }
        best.map(|(_, k, start)| Triple::new(element, k, start))
    }

    /// The latest-starting purchased type-`type_index` lease of `element`
    /// covering `t`, if any. `O(log n)`; `None` on structure-less ledgers
    /// or out-of-range types.
    pub fn active_lease_of_type(
        &self,
        element: usize,
        type_index: usize,
        t: TimeStep,
    ) -> Option<Triple> {
        let structure = self.structure.as_ref()?;
        if type_index >= structure.num_types() {
            return None;
        }
        self.coverage
            .covering_start(element, type_index, structure.length(type_index), t)
            .map(|start| Triple::new(element, type_index, start))
    }

    /// Whether some purchased lease of `element` covers at least one time
    /// step of the half-open `window` — the query behind deadline-flexible
    /// service checks (OLD / SCLD / service windows). One binary search
    /// over the merged profile; empty windows and structure-less ledgers
    /// answer `false`.
    pub fn covered_during(&self, element: usize, window: Window) -> bool {
        let Some(last) = window.last() else {
            return false;
        };
        self.coverage
            .covered_element_during(element, window.start, last)
    }

    /// Number of distinct elements with a purchased lease covering `t`.
    ///
    /// Two binary searches over a lazily built stabbing index —
    /// `O(log I)` per query for `I` merged coverage intervals,
    /// independent of both the element count and the decision count. The
    /// index is built on the first count query after any mutation
    /// (`O(I log I)`), so sweeps over a settled ledger pay one build
    /// total; callers interleaving purchases with counts should batch
    /// their count queries between mutations.
    pub fn active_count(&self, t: TimeStep) -> usize {
        self.coverage.count_covered_elements(t)
    }

    /// Whether the exact triple `(element, type, start)` has been purchased
    /// (at least once). `O(log n)`; works on structure-less ledgers too —
    /// ownership needs no window information.
    pub fn owns(&self, triple: Triple) -> bool {
        self.coverage.owns(triple)
    }

    /// Opt-in coverage-index compaction for unbounded streams: drops every
    /// index entry whose validity window ended **at or before** `before_t`
    /// (`start + length ≤ before_t`). Returns the number of purchased
    /// copies pruned.
    ///
    /// The index is append-only by default so queries hold at *any* time;
    /// on an unbounded request stream that means unbounded memory.
    /// Compaction trades history for space: after `compact(h)`,
    ///
    /// * [`covered`](Ledger::covered), [`active_lease`](Ledger::active_lease),
    ///   [`active_lease_of_type`](Ledger::active_lease_of_type) and
    ///   [`active_count`](Ledger::active_count) are unchanged for every
    ///   query time `t ≥ h` (a pruned window ending by `h` cannot cover a
    ///   step at or after `h`);
    /// * [`covered_during`](Ledger::covered_during) is unchanged for every
    ///   window starting at or after `h`;
    /// * [`owns`](Ledger::owns) is unchanged for every triple starting at
    ///   or after `h`;
    /// * queries **before** the horizon may under-report — callers choose a
    ///   horizon they will never look behind (typically the earliest
    ///   arrival time an algorithm can still reference).
    ///
    /// Purchases of out-of-range type indices (possible via
    /// [`buy_priced`](Ledger::buy_priced)) have no window information and
    /// are never pruned; the decision trace and all cost statistics are
    /// untouched. Structure-less ledgers compact nothing.
    pub fn compact(&mut self, before_t: TimeStep) -> usize {
        let Some(structure) = &self.structure else {
            return 0;
        };
        let lengths: Vec<u64> = structure.types().iter().map(|t| t.length).collect();
        self.coverage.prune_expired(before_t, &lengths)
    }

    /// Size and shift-work diagnostics of the coverage index — lets tests
    /// pin the amortized-append contract (near-sorted arrivals do zero
    /// shift work) without timing anything.
    pub fn coverage_stats(&self) -> CoverageStats {
        self.coverage.stats()
    }

    /// Spending statistics of `element`.
    pub fn element_stats(&self, element: usize) -> ElementStats {
        self.per_element.get(&element).copied().unwrap_or_default()
    }

    /// All elements money was spent on, with their statistics, ordered by
    /// element id.
    pub fn elements(&self) -> impl Iterator<Item = (usize, &ElementStats)> + '_ {
        let mut sorted: Vec<(usize, &ElementStats)> =
            self.per_element.iter().map(|(&e, s)| (e, s)).collect();
        sorted.sort_unstable_by_key(|&(e, _)| e);
        sorted.into_iter()
    }

    /// Serializes the ledger to compact JSON.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Rebuilds a ledger from [`Ledger::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a [`de::Error`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, de::Error> {
        json::from_str(text)
    }

    /// Serializes the ledger into a self-describing snapshot envelope,
    /// schema-tagged [`LEDGER_SNAPSHOT_SCHEMA`].
    ///
    /// The payload is exactly the golden-tested decision-trace JSON of
    /// [`Ledger::to_json`]; [`Ledger::restore`] replays it, so a restored
    /// ledger is observationally identical — decisions, coverage answers,
    /// cost categories and the expiry ring all match bit-for-bit (the same
    /// contract as [`Ledger::reset`] reuse). Snapshotting the same ledger
    /// twice yields byte-identical text.
    pub fn snapshot(&self) -> String {
        let envelope = Value::Map(vec![
            (
                "schema".to_string(),
                Value::Str(LEDGER_SNAPSHOT_SCHEMA.to_string()),
            ),
            ("ledger".to_string(), self.to_value()),
        ]);
        json::to_string(&envelope)
    }

    /// Rebuilds a ledger from [`Ledger::snapshot`] output by replaying the
    /// embedded decision trace.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Schema`] when the envelope is tagged with
    /// anything but [`LEDGER_SNAPSHOT_SCHEMA`], and
    /// [`SnapshotError::Malformed`] on invalid JSON or a payload that does
    /// not deserialize.
    pub fn restore(text: &str) -> Result<Self, SnapshotError> {
        let envelope = json::parse(text).map_err(SnapshotError::Malformed)?;
        check_schema(&envelope, LEDGER_SNAPSHOT_SCHEMA)?;
        let payload = serde::value_field(&envelope, "ledger").map_err(SnapshotError::Malformed)?;
        Deserialize::from_value(payload).map_err(SnapshotError::Malformed)
    }
}

/// Schema tag of [`Ledger::snapshot`] envelopes.
pub const LEDGER_SNAPSHOT_SCHEMA: &str = "ledger-snapshot/v1";

/// Why a snapshot failed to restore.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapshotError {
    /// The text is not valid JSON, or the payload has the wrong shape.
    Malformed(de::Error),
    /// The envelope's schema tag does not match the expected version.
    Schema {
        /// The schema tag this reader understands.
        expected: &'static str,
        /// The tag found in the envelope (`"<missing>"` when absent).
        found: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Malformed(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::Schema { expected, found } => write!(
                f,
                "snapshot schema mismatch: expected {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Malformed(e) => Some(e),
            SnapshotError::Schema { .. } => None,
        }
    }
}

/// Validates the `schema` tag of a snapshot envelope against `expected`.
pub(super) fn check_schema(envelope: &Value, expected: &'static str) -> Result<(), SnapshotError> {
    let found = match envelope.get("schema") {
        Some(Value::Str(tag)) => tag.clone(),
        Some(other) => format!("{other:?}"),
        None => "<missing>".to_string(),
    };
    if found == expected {
        Ok(())
    } else {
        Err(SnapshotError::Schema { expected, found })
    }
}

/// Version of the `retention` snapshot field this reader understands. The
/// field is versioned independently of the envelope schema so a future
/// payload change (say, a delta-compressed ring) can bump it without
/// invalidating every `Full`-mode snapshot in existence.
const RETENTION_FIELD_VERSION: u64 = 1;

fn decision_value(d: &Decision) -> Value {
    Value::Map(vec![
        ("time".to_string(), d.time.to_value()),
        ("element".to_string(), d.element.to_value()),
        ("lease".to_string(), d.lease.to_value()),
        ("cost".to_string(), d.cost.to_value()),
        ("category".to_string(), Value::Str(d.category.to_string())),
    ])
}

fn decision_from_value(d: &Value) -> Result<Decision, de::Error> {
    let time: TimeStep = Deserialize::from_value(serde::value_field(d, "time")?)?;
    let element: usize = Deserialize::from_value(serde::value_field(d, "element")?)?;
    let lease: Option<Lease> = Deserialize::from_value(serde::value_field(d, "lease")?)?;
    let cost: f64 = Deserialize::from_value(serde::value_field(d, "cost")?)?;
    let category: String = Deserialize::from_value(serde::value_field(d, "category")?)?;
    Ok(Decision {
        time,
        element,
        lease,
        cost,
        category: Cow::Owned(category),
    })
}

fn retention_to_value(retention: DecisionRetention) -> Value {
    let mut map = vec![("v".to_string(), RETENTION_FIELD_VERSION.to_value())];
    match retention {
        DecisionRetention::Full => map.push(("mode".to_string(), Value::Str("full".to_string()))),
        DecisionRetention::Bounded(n) => {
            map.push(("mode".to_string(), Value::Str("bounded".to_string())));
            map.push(("limit".to_string(), n.to_value()));
        }
        DecisionRetention::AggregateOnly => {
            map.push(("mode".to_string(), Value::Str("aggregate-only".to_string())));
        }
    }
    Value::Map(map)
}

fn retention_from_value(value: &Value) -> Result<DecisionRetention, de::Error> {
    let version: u64 = Deserialize::from_value(serde::value_field(value, "v")?)?;
    if version != RETENTION_FIELD_VERSION {
        return Err(de::Error::new(format!(
            "unsupported retention field version {version} (this reader understands \
             {RETENTION_FIELD_VERSION})"
        )));
    }
    let mode: String = Deserialize::from_value(serde::value_field(value, "mode")?)?;
    match mode.as_str() {
        "full" => Ok(DecisionRetention::Full),
        "bounded" => {
            let limit: usize = Deserialize::from_value(serde::value_field(value, "limit")?)?;
            Ok(DecisionRetention::Bounded(limit))
        }
        "aggregate-only" => Ok(DecisionRetention::AggregateOnly),
        other => Err(de::Error::new(format!("unknown retention mode {other:?}"))),
    }
}

fn seq_items<'v>(value: &'v Value, what: &str) -> Result<&'v [Value], de::Error> {
    match value {
        Value::Seq(items) => Ok(items),
        other => Err(de::Error::new(format!(
            "expected a {what} sequence, found {other:?}"
        ))),
    }
}

impl Ledger {
    /// Serializes every aggregate the extended (non-`Full`) snapshot shape
    /// installs directly instead of replaying: exact totals, the interned
    /// category table in first-use order, and per-element statistics in
    /// element order — all deterministic regardless of hash-map iteration.
    fn aggregates_to_value(&self) -> Value {
        let categories: Vec<Value> = self
            .categories
            .iter()
            .map(|(name, total)| Value::Seq(vec![Value::Str(name.to_string()), total.to_value()]))
            .collect();
        let per_element: Vec<Value> = self
            .elements()
            .map(|(element, stats)| Value::Seq(vec![element.to_value(), stats.to_value()]))
            .collect();
        Value::Map(vec![
            ("total".to_string(), self.total.to_value()),
            ("decision_total".to_string(), self.decision_total.to_value()),
            ("leases_bought".to_string(), self.leases_bought.to_value()),
            ("categories".to_string(), Value::Seq(categories)),
            ("per_element".to_string(), Value::Seq(per_element)),
        ])
    }

    fn coverage_to_value(&self) -> Value {
        let runs: Vec<Value> = self
            .coverage
            .export_runs()
            .into_iter()
            .map(|(element, k, start, copies)| {
                Value::Seq(vec![
                    element.to_value(),
                    k.to_value(),
                    start.to_value(),
                    copies.to_value(),
                ])
            })
            .collect();
        Value::Seq(runs)
    }

    fn expiry_to_value(&self) -> Value {
        let entries: Vec<Value> = self
            .expiry
            .pending_entries()
            .into_iter()
            .map(|(end, copies)| Value::Seq(vec![end.to_value(), copies.to_value()]))
            .collect();
        Value::Seq(entries)
    }

    /// Installs the extended snapshot payload onto a fresh ledger: direct
    /// re-installation of aggregates, coverage runs, expiry timeline and
    /// the retained decision ring — no replay, so it works however little
    /// of the trace the writer kept. Re-snapshotting the restored ledger
    /// yields byte-identical text.
    fn install_extended(&mut self, value: &Value) -> Result<(), de::Error> {
        let aggregates = serde::value_field(value, "aggregates")?;
        self.total = Deserialize::from_value(serde::value_field(aggregates, "total")?)?;
        self.decision_total =
            Deserialize::from_value(serde::value_field(aggregates, "decision_total")?)?;
        self.leases_bought =
            Deserialize::from_value(serde::value_field(aggregates, "leases_bought")?)?;
        for entry in seq_items(serde::value_field(aggregates, "categories")?, "category")? {
            let name: String = Deserialize::from_value(serde::value_index(entry, 0)?)?;
            let total: f64 = Deserialize::from_value(serde::value_index(entry, 1)?)?;
            self.categories.push((Cow::Owned(name), total));
        }
        for entry in seq_items(serde::value_field(aggregates, "per_element")?, "element")? {
            let element: usize = Deserialize::from_value(serde::value_index(entry, 0)?)?;
            let stats: ElementStats = Deserialize::from_value(serde::value_index(entry, 1)?)?;
            self.per_element.insert(element, stats);
        }
        for entry in seq_items(serde::value_field(value, "coverage")?, "coverage run")? {
            let element: usize = Deserialize::from_value(serde::value_index(entry, 0)?)?;
            let type_index: usize = Deserialize::from_value(serde::value_index(entry, 1)?)?;
            let start: TimeStep = Deserialize::from_value(serde::value_index(entry, 2)?)?;
            let copies: u32 = Deserialize::from_value(serde::value_index(entry, 3)?)?;
            let window_len = self
                .structure
                .as_ref()
                .filter(|s| type_index < s.num_types())
                .map(|s| s.length(type_index));
            self.coverage.insert_copies(
                Triple::new(element, type_index, start),
                window_len,
                copies,
            );
        }
        for entry in seq_items(serde::value_field(value, "expiry")?, "expiry")? {
            let end: TimeStep = Deserialize::from_value(serde::value_index(entry, 0)?)?;
            let copies: u32 = Deserialize::from_value(serde::value_index(entry, 1)?)?;
            self.expiry.schedule_copies(end, copies);
        }
        for d in seq_items(serde::value_field(value, "decisions")?, "decision")? {
            // The retained ring is installed verbatim: aggregates already
            // account for these decisions, so they bypass the record path.
            self.decisions.push(decision_from_value(d)?);
        }
        Ok(())
    }
}

impl Serialize for Ledger {
    fn to_value(&self) -> Value {
        let decisions: Vec<Value> = self.decisions().iter().map(decision_value).collect();
        let mut map = vec![
            ("structure".to_string(), self.structure.to_value()),
            ("now".to_string(), self.now.to_value()),
        ];
        if self.retention != DecisionRetention::Full {
            // The extended shape: the trace alone no longer determines the
            // derived state, so aggregates, coverage runs and the expiry
            // timeline are serialized directly. `Full` ledgers keep the
            // historical three-field shape byte-for-byte.
            map.push(("retention".to_string(), retention_to_value(self.retention)));
            map.push(("aggregates".to_string(), self.aggregates_to_value()));
            map.push(("coverage".to_string(), self.coverage_to_value()));
            map.push(("expiry".to_string(), self.expiry_to_value()));
        }
        map.push(("decisions".to_string(), Value::Seq(decisions)));
        Value::Map(map)
    }
}

impl Deserialize for Ledger {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        let structure: Option<LeaseStructure> =
            Deserialize::from_value(serde::value_field(value, "structure")?)?;
        let now: TimeStep = Deserialize::from_value(serde::value_field(value, "now")?)?;
        let mut ledger = match structure {
            Some(s) => Ledger::new(s),
            None => Ledger::detached(),
        };
        match value.get("retention") {
            Some(retention) if *retention != Value::Null => {
                // Extended shape: install state directly, then advance the
                // clock before re-scheduling expiries (every serialized
                // pending end exceeds the writer's clock).
                ledger.retention = retention_from_value(retention)?;
                ledger.advance(now);
                ledger.install_extended(value)?;
                Ok(ledger)
            }
            _ => {
                // Legacy (Full) shape: replay the trace so every derived
                // quantity (totals, categories, element stats, expiry
                // timeline) is rebuilt consistently.
                for d in seq_items(serde::value_field(value, "decisions")?, "decision")? {
                    let decision = decision_from_value(d)?;
                    match decision.lease {
                        Some(lease) => ledger.record_lease(
                            decision.time,
                            Triple::new(decision.element, lease.type_index, lease.start),
                            decision.cost,
                            decision.category,
                        ),
                        None => ledger.record_charge(
                            decision.time,
                            decision.element,
                            decision.cost,
                            decision.category,
                        ),
                    }
                }
                ledger.advance(now);
                Ok(ledger)
            }
        }
    }
}
