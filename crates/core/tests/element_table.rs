//! The ledger's element table against a `BTreeMap` model.
//!
//! Element ids mix small, strided, huge and `usize::MAX - 1` values, so
//! one stream moves the element table between its direct and hashed
//! forms. Purchases arrive out of order, `buy_priced` records types the
//! structure does not have, and `compact` prunes mid-stream. Every
//! ownership, coverage and statistics query, and the sorted parts of the
//! serialized ledger, must match the model whatever slot each element
//! was interned into.

use leasing_core::engine::{DecisionRetention, ElementStats, Ledger};
use leasing_core::framework::Triple;
use leasing_core::lease::{LeaseStructure, LeaseType};
use leasing_core::time::TimeStep;
use proptest::prelude::*;
use serde::{json, Deserialize};
use std::collections::BTreeMap;

const LENGTHS: [u64; 3] = [1, 4, 16];

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(LENGTHS[0], 1.0),
        LeaseType::new(LENGTHS[1], 2.5),
        LeaseType::new(LENGTHS[2], 6.0),
    ])
    .unwrap()
}

/// An element id of class `class`: small, strided (as a 4-shard daemon
/// routes them), huge, or `usize::MAX - 1`.
fn element(class: u8, raw: u64) -> usize {
    let raw = usize::try_from(raw).unwrap();
    match class {
        0 => raw % 64,
        1 => (raw % 256) * 4 + 3,
        2 => usize::MAX / 2 - raw % 16,
        _ => usize::MAX - 1,
    }
}

/// What the ledger must answer, kept in ordered maps.
#[derive(Default)]
struct Model {
    stats: BTreeMap<usize, ElementStats>,
    /// `(element, type, start)` → purchased copies not yet pruned.
    owned: BTreeMap<(usize, usize, TimeStep), u32>,
    horizon: TimeStep,
}

impl Model {
    fn buy(&mut self, triple: Triple, cost: f64) {
        let stats = self.stats.entry(triple.element).or_default();
        stats.leases += 1;
        stats.lease_cost += cost;
        *self
            .owned
            .entry((triple.element, triple.type_index, triple.start))
            .or_default() += 1;
    }

    fn compact(&mut self, horizon: TimeStep) {
        self.owned
            .retain(|&(_, k, start), _| LENGTHS.get(k).is_none_or(|&len| start + len > horizon));
        self.horizon = self.horizon.max(horizon);
    }

    fn covered(&self, element: usize, t: TimeStep) -> bool {
        (0..LENGTHS.len()).any(|k| self.active_start(element, k, t).is_some())
    }

    fn active_start(&self, element: usize, k: usize, t: TimeStep) -> Option<TimeStep> {
        let len = *LENGTHS.get(k)?;
        self.owned
            .range((element, k, 0)..=(element, k, t))
            .next_back()
            .map(|(&(_, _, start), _)| start)
            .filter(|&start| start + len > t)
    }
}

/// Applies one generated op to both ledgers and the model.
fn apply(ledgers: &mut [Ledger; 2], model: &mut Model, op: (u8, u8, u64, usize, TimeStep)) {
    let (kind, class, raw, k, start) = op;
    let e = element(class, raw);
    let cost = 0.5 + f64::from(u32::try_from(raw % 7).unwrap());
    match kind {
        0..=5 => {
            let triple = Triple::new(e, k % LENGTHS.len(), start);
            for ledger in ledgers.iter_mut() {
                ledger.buy(start, triple);
            }
            model.buy(triple, structure().cost(triple.type_index));
        }
        6 | 7 => {
            // `k` ranges past the structure's types.
            let triple = Triple::new(e, k, start);
            for ledger in ledgers.iter_mut() {
                ledger.buy_priced(start, triple, cost, "priced");
            }
            model.buy(triple, cost);
        }
        8 => {
            for ledger in ledgers.iter_mut() {
                ledger.charge(start, e, cost, "extra");
            }
            model.stats.entry(e).or_default().extra_cost += cost;
        }
        _ => {
            for ledger in ledgers.iter_mut() {
                ledger.compact(start);
            }
            model.compact(start);
        }
    }
}

fn check(ledger: &Ledger, model: &Model, probes: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let ids = model
        .stats
        .keys()
        .copied()
        .chain(probes.iter().map(|&(class, raw)| element(class, raw)));
    for e in ids {
        prop_assert_eq!(
            ledger.element_stats(e),
            model.stats.get(&e).copied().unwrap_or_default()
        );
        for t in (0..220u64).step_by(7) {
            if t >= model.horizon {
                prop_assert_eq!(
                    ledger.covered(e, t),
                    model.covered(e, t),
                    "covered({}, {})",
                    e,
                    t
                );
            }
            for k in 0..LENGTHS.len() + 2 {
                let expected = model.active_start(e, k, t).map(|s| Triple::new(e, k, s));
                prop_assert_eq!(ledger.active_lease_of_type(e, k, t), expected);
                prop_assert_eq!(
                    ledger.owns(Triple::new(e, k, t)),
                    model.owned.contains_key(&(e, k, t))
                );
            }
        }
    }
    for &(e, k, start) in model.owned.keys() {
        prop_assert!(ledger.owns(Triple::new(e, k, start)));
    }
    let elements: Vec<(usize, ElementStats)> = ledger.elements().map(|(e, s)| (e, *s)).collect();
    let expected: Vec<(usize, ElementStats)> = model.stats.iter().map(|(&e, &s)| (e, s)).collect();
    prop_assert_eq!(elements, expected);
    let stats = ledger.coverage_stats();
    prop_assert_eq!(stats.elements, model.stats.len());
    prop_assert_eq!(stats.start_runs, model.owned.len());
    prop_assert!(
        stats.table_entries <= 2 * 16 * stats.elements.max(64),
        "the element table stays proportional to the element count: {:?}",
        stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ledger_queries_match_an_ordered_model(
        ops in proptest::collection::vec((0u8..10, 0u8..4, 0u64..1_000, 0usize..5, 0u64..200), 1..160),
        probes in proptest::collection::vec((0u8..4, 0u64..1_000), 0..8),
    ) {
        let mut ledgers = [Ledger::new(structure()), Ledger::new(structure())];
        ledgers[1].set_retention(DecisionRetention::AggregateOnly);
        let mut model = Model::default();
        for &op in &ops {
            apply(&mut ledgers, &mut model, op);
        }
        check(&ledgers[0], &model, &probes)?;
        check(&ledgers[1], &model, &probes)?;

        // The aggregate-only shape serializes per-element statistics and
        // coverage runs directly: both come out in element order.
        let text = ledgers[1].to_json();
        let value = json::parse(&text).unwrap();
        let aggregates = value.get("aggregates").unwrap();
        let per_element =
            Vec::<(usize, ElementStats)>::from_value(aggregates.get("per_element").unwrap()).unwrap();
        let expected: Vec<(usize, ElementStats)> = model.stats.iter().map(|(&e, &s)| (e, s)).collect();
        prop_assert_eq!(per_element, expected);
        let runs = Vec::<(usize, usize, TimeStep, u32)>::from_value(value.get("coverage").unwrap())
            .unwrap();
        let expected: Vec<(usize, usize, TimeStep, u32)> = model
            .owned
            .iter()
            .map(|(&(e, k, s), &copies)| (e, k, s, copies))
            .collect();
        prop_assert_eq!(runs, expected);

        // Both shapes round-trip byte for byte, though restore interns the
        // elements in another order.
        for ledger in &ledgers {
            let text = ledger.to_json();
            let restored = Ledger::from_json(&text).unwrap();
            prop_assert_eq!(restored.to_json(), text);
        }
    }
}
