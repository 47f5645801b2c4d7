//! [`Books`]: the algorithm-facing view of a driver-owned [`Ledger`].
//!
//! Before PR 7 every [`LeasingAlgorithm`](super::LeasingAlgorithm) impl
//! received a bare `&mut Ledger`, which exposed the full lifecycle surface
//! (`advance`, `reset`, `compact`) to code that must only *record
//! decisions*. `Books` is the narrowed view handed to
//! [`on_request`](super::LeasingAlgorithm::on_request): every read-only
//! query of the ledger (coverage, ownership, costs, the structure) via
//! [`Deref`], plus exactly the three recording operations an online
//! algorithm is allowed — [`buy`](Books::buy),
//! [`buy_priced`](Books::buy_priced) and [`charge`](Books::charge).
//!
//! The clock stays with the owner: the [`Driver`](super::Driver) (or an
//! [`EngineHandle`](super::EngineHandle)) advances the ledger once per
//! submitted time step, so expiry bookkeeping is always relative to the
//! request stream and an algorithm can never fast-forward time mid-request.

use super::Ledger;
use crate::framework::Triple;
use crate::time::TimeStep;
use std::ops::Deref;

/// A borrowed recording view of a [`Ledger`], passed to
/// [`LeasingAlgorithm::on_request`](super::LeasingAlgorithm::on_request).
///
/// Dereferences to `&Ledger` for every query
/// ([`covered`](Ledger::covered), [`owns`](Ledger::owns),
/// [`active_lease`](Ledger::active_lease), [`structure`](Ledger::structure),
/// ...); mutation is limited to the three decision-recording operations.
/// Only those intern an element into the ledger's element table.
#[derive(Debug)]
pub struct Books<'a> {
    ledger: &'a mut Ledger,
}

impl<'a> Books<'a> {
    /// Opens the books over `ledger`.
    ///
    /// Normally called by the [`Driver`](super::Driver), which owns the
    /// ledger and its clock.
    pub fn new(ledger: &'a mut Ledger) -> Self {
        Books { ledger }
    }

    /// A reborrowed view with a shorter lifetime — for handing the books
    /// to a sub-algorithm (combinators, meta-policies) while keeping
    /// access afterwards.
    pub fn reborrow(&mut self) -> Books<'_> {
        Books {
            ledger: self.ledger,
        }
    }

    /// Buys `triple` at time `t`, priced by the ledger's lease structure.
    /// See [`Ledger::buy`].
    ///
    /// # Panics
    ///
    /// Panics if the ledger has no structure or the triple's type index is
    /// out of range.
    pub fn buy(&mut self, t: TimeStep, triple: Triple) -> f64 {
        self.ledger.buy(t, triple)
    }

    /// Buys `triple` at time `t` for an explicit price under `category`.
    /// See [`Ledger::buy_priced`].
    pub fn buy_priced(
        &mut self,
        t: TimeStep,
        triple: Triple,
        cost: f64,
        category: &'static str,
    ) -> f64 {
        self.ledger.buy_priced(t, triple, cost, category)
    }

    /// Records an auxiliary (non-lease) charge. See [`Ledger::charge`].
    pub fn charge(&mut self, t: TimeStep, element: usize, cost: f64, category: &'static str) {
        self.ledger.charge(t, element, cost, category)
    }
}

impl Deref for Books<'_> {
    type Target = Ledger;

    fn deref(&self) -> &Ledger {
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::{LeaseStructure, LeaseType};

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0)]).unwrap()
    }

    #[test]
    fn books_record_into_the_backing_ledger() {
        let mut ledger = Ledger::new(structure());
        let mut books = Books::new(&mut ledger);
        assert!(!books.covered(0, 0), "queries deref to the ledger");
        books.buy(0, Triple::new(0, 0, 0));
        books.buy_priced(1, Triple::new(1, 0, 0), 2.0, "scaled");
        books.charge(1, 0, 0.5, "connection");
        assert!(books.covered(0, 1));
        assert_eq!(books.decision_count(), 3);
        let _ = books;
        assert!((ledger.total_cost() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn reborrow_keeps_the_original_usable() {
        let mut ledger = Ledger::new(structure());
        let mut books = Books::new(&mut ledger);
        {
            let mut inner = books.reborrow();
            inner.buy(0, Triple::new(0, 0, 0));
        }
        books.charge(0, 0, 1.0, "connection");
        assert_eq!(ledger.decision_count(), 2);
    }
}
