//! The leasing framework of §2.3.
//!
//! The thesis transforms any online problem with a *temporal covering
//! aspect* — demands arrive over time and must be covered by buying
//! infrastructure elements — into its leasing variant: instead of buying an
//! element `i ∈ I` forever, an algorithm leases the triple `(i, k, t)` which
//! covers suitable demands during `[t, t + l_k)`.
//!
//! The concrete problem crates (`set-cover-leasing`, `facility-leasing`,
//! `leasing-deadlines`, ...) instantiate this module's vocabulary: the
//! [`Triple`] type is the element of the *infrastructure leasing set*
//! `Ī = I × {1..K} × ℕ`. Every online algorithm buys triples through the
//! engine ([`crate::engine`]): it implements
//! [`LeasingAlgorithm`](crate::engine::LeasingAlgorithm) and is served by a
//! [`Driver`](crate::engine::Driver), which owns its one ledger.

use crate::lease::{Lease, LeaseStructure};
use crate::time::{TimeStep, Window};
use serde::{Deserialize, Serialize};

/// An element of the infrastructure leasing set `Ī = I × {1..K} × ℕ`: the
/// infrastructure element `element`, leased with type `type_index`, starting
/// at `start`.
///
/// Infrastructure elements are identified by dense `usize` ids (set ids in
/// Chapter 3, facility ids in Chapter 4).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Triple {
    /// Infrastructure element id `i ∈ I`.
    pub element: usize,
    /// Lease type `k` (0-based index into the problem's [`LeaseStructure`]).
    pub type_index: usize,
    /// Lease start time `t`.
    pub start: TimeStep,
}

impl Triple {
    /// Creates the triple `(element, type_index, start)`.
    pub fn new(element: usize, type_index: usize, start: TimeStep) -> Self {
        Triple {
            element,
            type_index,
            start,
        }
    }

    /// The time component as a [`Lease`] (dropping the element).
    pub fn lease(&self) -> Lease {
        Lease::new(self.type_index, self.start)
    }

    /// The validity window `[start, start + l_k)` under `structure`.
    ///
    /// # Panics
    ///
    /// Panics if `type_index` is out of range for `structure`.
    pub fn window(&self, structure: &LeaseStructure) -> Window {
        self.lease().window(structure)
    }

    /// Whether this triple is active at time `t` under `structure`, i.e.
    /// whether it belongs to `Ī(t)`.
    pub fn covers(&self, structure: &LeaseStructure, t: TimeStep) -> bool {
        self.window(structure).contains(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::LeaseType;

    #[test]
    fn triple_covers_its_window_only() {
        let s = LeaseStructure::new(vec![LeaseType::new(4, 1.0)]).unwrap();
        let triple = Triple::new(7, 0, 8);
        assert!(triple.covers(&s, 8));
        assert!(triple.covers(&s, 11));
        assert!(!triple.covers(&s, 12));
        assert!(!triple.covers(&s, 7));
        assert_eq!(triple.lease(), Lease::new(0, 8));
    }
}
