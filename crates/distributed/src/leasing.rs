//! Distributed **facility leasing** over time: the Chapter 4 outlook's
//! per-step distributed pipeline ([`distributed_step`]) composed with a
//! leasing layer.
//!
//! Client batches arrive online; each time step runs the fully distributed
//! per-step algorithm (geometric-growth bidding, then Luby MIS conflict
//! resolution) against *effective* prices: a facility whose lease is still
//! active bids (numerically) zero, everyone else bids its lease price. The
//! facilities chosen by the distributed pipeline buy aligned leases,
//! recorded — like every purchase in this workspace — in a
//! [`Ledger`](leasing_core::engine::Ledger).

use crate::bidding::{distributed_step, BiddingError, BiddingInstance};
use leasing_core::engine::{Books, LeasingAlgorithm, Ledger, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;

/// The near-zero bid of a facility whose lease is already active (the
/// bidding substrate requires strictly positive prices).
const ACTIVE_PRICE: f64 = 1e-9;

/// Aggregate LOCAL-model accounting over all rounds served so far.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LeasingRunStats {
    /// Time steps (batches) served.
    pub steps: usize,
    /// Total synchronous rounds across both phases of every step.
    pub rounds: usize,
    /// Total messages delivered across both phases of every step.
    pub messages: usize,
}

/// Distributed facility leasing: per-step distributed bidding + MIS over
/// facilities priced by a shared [`LeaseStructure`].
///
/// Facility `i`'s type-`k` lease costs `base_price[i] * structure.cost(k)`;
/// each step leases the type minimizing that immediate price (the myopic
/// rule — the distributed pipeline decides *which* facilities open, the
/// structure decides *how long*).
#[derive(Clone, Debug)]
pub struct DistributedFacilityLeasing {
    base_prices: Vec<f64>,
    /// `distances[i][j]` for every facility `i` and *global* client id `j`.
    distances: Vec<Vec<f64>>,
    structure: LeaseStructure,
    epsilon: f64,
    seed: u64,
    steps_served: u64,
    /// `(client, facility)` assignments in service order.
    assignments: Vec<(usize, usize)>,
    stats: LeasingRunStats,
}

impl DistributedFacilityLeasing {
    /// Validates and builds the algorithm.
    ///
    /// `base_prices[i]` is facility `i`'s price multiplier, `distances` the
    /// full facility × client table, `epsilon` the geometric-growth rate of
    /// the bidding phase and `seed` the Luby randomness seed.
    ///
    /// # Errors
    ///
    /// Returns a [`BiddingError`] when the price/distance tables are
    /// malformed (validated through the same rules as [`BiddingInstance`]).
    pub fn new(
        base_prices: Vec<f64>,
        distances: Vec<Vec<f64>>,
        structure: LeaseStructure,
        epsilon: f64,
        seed: u64,
    ) -> Result<Self, BiddingError> {
        // Validate via the substrate's constructor, then keep the raw data.
        let _ = BiddingInstance::new(base_prices.clone(), distances.clone())?;
        Ok(DistributedFacilityLeasing {
            base_prices,
            distances,
            structure,
            epsilon,
            seed,
            steps_served: 0,
            assignments: Vec::new(),
            stats: LeasingRunStats::default(),
        })
    }

    /// The lease type each step buys: the one minimizing the immediate
    /// price multiplier.
    pub fn chosen_type(&self) -> usize {
        (0..self.structure.num_types())
            .min_by(|&a, &b| {
                self.structure
                    .cost(a)
                    .partial_cmp(&self.structure.cost(b))
                    .expect("validated structures have finite costs")
            })
            .expect("validated structures are non-empty")
    }

    /// Aggregate LOCAL accounting over every step served so far.
    pub fn stats(&self) -> LeasingRunStats {
        self.stats
    }

    /// `(client, facility)` assignments in service order.
    pub fn assignments(&self) -> &[(usize, usize)] {
        &self.assignments
    }

    /// Core step: distributed bidding + MIS over effective prices, then
    /// lease purchases and connection charges into `books`.
    fn serve_with(&mut self, t: TimeStep, clients: &[usize], books: &mut Books<'_>) {
        if clients.is_empty() {
            return;
        }
        let k = self.chosen_type();
        let len = self.structure.length(k);
        let type_multiplier = self.structure.cost(k);
        let effective_prices: Vec<f64> = (0..self.base_prices.len())
            .map(|i| {
                if books.covered(i, t) {
                    ACTIVE_PRICE
                } else {
                    self.base_prices[i] * type_multiplier
                }
            })
            .collect();
        let batch_distances: Vec<Vec<f64>> = self
            .distances
            .iter()
            .map(|row| clients.iter().map(|&j| row[j]).collect())
            .collect();
        let instance = BiddingInstance::new(effective_prices, batch_distances)
            .expect("per-step tables derive from validated inputs");
        let outcome = distributed_step(&instance, self.epsilon, self.seed ^ self.steps_served);
        self.steps_served += 1;
        self.stats.steps += 1;
        self.stats.rounds += outcome.bidding.stats.rounds;
        self.stats.messages += outcome.bidding.stats.messages;
        if let Some(p2) = outcome.phase2_stats {
            self.stats.rounds += p2.rounds;
            self.stats.messages += p2.messages;
        }

        for &i in &outcome.chosen {
            if !books.covered(i, t) {
                let triple = Triple::new(i, k, aligned_start(t, len));
                if !books.owns(triple) {
                    books.buy_priced(
                        t,
                        triple,
                        self.base_prices[i] * type_multiplier,
                        CATEGORY_LEASE,
                    );
                }
            }
        }
        for (slot, &j) in clients.iter().enumerate() {
            let facility = outcome.assignment[slot];
            books.charge(
                t,
                facility,
                self.distances[facility][j],
                CATEGORY_CONNECTION,
            );
            self.assignments.push((j, facility));
        }
    }
}

impl LeasingAlgorithm for DistributedFacilityLeasing {
    /// The batch of (globally numbered) clients arriving at a time step.
    type Request = Vec<usize>;

    fn on_request(&mut self, time: TimeStep, clients: Vec<usize>, mut books: Books<'_>) {
        self.serve_with(time, &clients, &mut books);
    }
}

/// Whether every recorded assignment used a facility whose lease covered
/// the client's arrival step, checked against the decision trace in
/// `ledger`, the ledger of the [`Driver`](leasing_core::engine::Driver)
/// that served a [`DistributedFacilityLeasing`].
pub fn is_feasible(ledger: &Ledger) -> bool {
    // Each connection charge must land at a time some lease of the same
    // facility covers — one coverage-index query per charge.
    ledger
        .decisions()
        .iter()
        .all(|d| d.lease.is_some() || ledger.covered(d.element, d.time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap()
    }

    /// Two facilities; clients 0 and 1 near facility 0, client 2 near 1.
    fn algorithm() -> DistributedFacilityLeasing {
        DistributedFacilityLeasing::new(
            vec![2.0, 2.0],
            vec![vec![0.1, 0.2, 9.0], vec![9.0, 9.0, 0.1]],
            structure(),
            0.5,
            7,
        )
        .unwrap()
    }

    fn driven(
        alg: DistributedFacilityLeasing,
    ) -> leasing_core::engine::Driver<DistributedFacilityLeasing> {
        leasing_core::engine::Driver::with_ledger(alg, Ledger::new(structure()))
    }

    #[test]
    fn batches_end_up_feasibly_assigned() {
        let mut driver = driven(algorithm());
        driver.submit(0, vec![0, 2]).unwrap();
        driver.submit(1, vec![1]).unwrap();
        assert_eq!(driver.algorithm().assignments().len(), 3);
        assert!(is_feasible(driver.ledger()));
        assert!(driver.ledger().total_cost() > 0.0);
        let stats = driver.algorithm().stats();
        assert!(stats.rounds > 0 && stats.messages > 0);
    }

    #[test]
    fn active_leases_are_reused_within_their_window() {
        let mut driver = driven(algorithm());
        driver.submit(0, vec![0]).unwrap();
        let leases_after_first = driver.ledger().leases_bought();
        // Same window [0, 4): the nearby facility stays active.
        driver.submit(1, vec![1]).unwrap();
        assert_eq!(
            driver.ledger().leases_bought(),
            leases_after_first,
            "lease must be reused"
        );
    }

    #[test]
    fn expired_leases_force_repurchase() {
        let mut driver = driven(algorithm());
        driver.submit(0, vec![0]).unwrap();
        let cost_after_first = driver.ledger().total_cost();
        // Both lease windows starting at 0 have expired by t = 16.
        driver.submit(16, vec![0]).unwrap();
        assert!(
            driver.ledger().total_cost() > cost_after_first + 1.0,
            "new lease must be bought"
        );
    }

    #[test]
    fn rejects_malformed_tables() {
        let err = DistributedFacilityLeasing::new(
            vec![1.0, -1.0],
            vec![vec![0.1], vec![0.2]],
            structure(),
            0.5,
            1,
        );
        assert!(matches!(err, Err(BiddingError::BadPrice(1))));
    }
}
