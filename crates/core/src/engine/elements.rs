//! [`ElementIndex`]: interns element ids into dense slots.
//!
//! Every per-element structure of the engine — the coverage index's start
//! runs and profiles, the ledger's per-element statistics — is a `Vec`
//! indexed by one slot, so a purchase resolves its element id once. The
//! daemon's permit policy keys its per-tenant state by the same type.
//!
//! Ids are `usize` and may come off the wire, so the direct id → slot
//! table only grows while it stays within a constant factor of the number
//! of interned elements; an id beyond it goes into a hash map of
//! outliers, so a hostile id costs one map entry and never sizes a table,
//! and every other id stays direct. The map keeps std's randomly keyed
//! hasher, so a client cannot craft ids that all collide.

// lint:allow(determinism: probed, never iterated — the random keys never reach an output)
use std::collections::HashMap;

/// Empty direct-table entry.
const NO_SLOT: u32 = u32::MAX;

/// The direct table may span this many ids per interned element...
const DIRECT_SPREAD: usize = 16;

/// ...and always this many, so small universes never hash.
const DIRECT_MIN_IDS: usize = 1 << 10;

/// Maps element ids to dense `u32` slots, assigned in first-intern order.
///
/// Lookups never intern; [`intern`](ElementIndex::intern) is the only
/// mutation, and a slot, once assigned, is stable until
/// [`clear`](ElementIndex::clear).
#[derive(Clone, Debug, Default)]
pub struct ElementIndex {
    /// Slot → element id.
    ids: Vec<usize>,
    /// Entry `id` is the slot of element `id`, or [`NO_SLOT`]: every id
    /// below the table's length lives here.
    direct: Vec<u32>,
    /// Id → slot of the outliers, the ids at or beyond `direct.len()`.
    // lint:allow(determinism: probed, never iterated — the random keys never reach an output)
    outliers: HashMap<usize, u32>,
}

impl ElementIndex {
    /// The slot of `id`, if it was interned.
    #[inline]
    pub fn get(&self, id: usize) -> Option<usize> {
        let slot = match self.direct.get(id) {
            Some(&slot) => slot,
            None => *self.outliers.get(&id)?,
        };
        // lint:allow(cast: slots are u32 table entries and widen into usize)
        (slot != NO_SLOT).then_some(slot as usize)
    }

    /// The slot of `id`, assigning the next one on first use.
    pub fn intern(&mut self, id: usize) -> usize {
        if let Some(slot) = self.get(id) {
            return slot;
        }
        let slot = self.ids.len();
        let entry = u32::try_from(slot)
            .ok()
            .filter(|&s| s != NO_SLOT)
            // lint:allow(panic: 2^32 - 1 interned elements need 32 GiB of ids alone — unreachable by memory)
            .expect("fewer than 2^32 - 1 elements");
        self.ids.push(id);
        // Grow the direct table at least twofold, so the outliers it
        // absorbs are moved a logarithmic number of times.
        let limit = self
            .ids
            .len()
            .saturating_mul(DIRECT_SPREAD)
            .max(DIRECT_MIN_IDS);
        let grown = id.saturating_add(1).max(self.direct.len() * 2);
        if id < self.direct.len() || grown <= limit {
            if id >= self.direct.len() {
                self.direct.resize(grown, NO_SLOT);
                let direct = &mut self.direct;
                self.outliers
                    .retain(|&id, &mut slot| match direct.get_mut(id) {
                        Some(cell) => {
                            *cell = slot;
                            false
                        }
                        None => true,
                    });
            }
            if let Some(cell) = self.direct.get_mut(id) {
                *cell = entry;
            }
        } else {
            self.outliers.insert(id, entry);
        }
        slot
    }

    /// The element id of every slot, in slot order.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// Entries in the id → slot tables: the direct table's length plus
    /// the outliers.
    pub fn table_entries(&self) -> usize {
        self.direct.len() + self.outliers.len()
    }

    /// Forgets every element, keeping the allocations.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.direct.clear();
        self.outliers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_in_first_intern_order() {
        let mut index = ElementIndex::default();
        assert_eq!(index.intern(7), 0);
        assert_eq!(index.intern(3), 1);
        assert_eq!(index.intern(7), 0);
        assert_eq!(index.get(3), Some(1));
        assert_eq!(index.get(4), None);
        assert_eq!(index.ids(), &[7, 3]);
        assert_eq!(index.table_entries(), 8, "small ids stay direct");
    }

    #[test]
    fn a_huge_id_is_one_outlier_and_small_ids_stay_direct() {
        let mut index = ElementIndex::default();
        index.intern(usize::MAX - 1);
        for id in [3, 0, 7] {
            index.intern(id);
        }
        assert_eq!(index.outliers.len(), 1, "only the huge id hashes");
        assert_eq!(index.direct.len(), 8, "small ids are served directly");
        assert_eq!(index.table_entries(), 9);
        assert_eq!(index.get(usize::MAX - 1), Some(0));
        assert_eq!(index.get(7), Some(3));
        assert_eq!(index.get(usize::MAX), None);
        assert_eq!(index.get(5), None);
    }

    #[test]
    fn a_growing_direct_table_absorbs_outliers() {
        let mut index = ElementIndex::default();
        index.intern(100_000);
        assert_eq!(index.table_entries(), 1, "one far id hashes");
        // Strided ids, as one of four shards holds them.
        for id in (1..120_000).step_by(4) {
            index.intern(id);
        }
        assert!(index.outliers.is_empty(), "the direct table took it over");
        assert!(index.direct.len() > 100_000);
        assert!(index.table_entries() <= 16 * index.ids().len());
        assert_eq!(index.get(100_000), Some(0));
        assert_eq!(index.get(119_997), Some(30_000));
        index.clear();
        assert!(index.ids().is_empty());
        assert_eq!(index.get(5), None);
        assert_eq!(index.table_entries(), 0);
    }
}
