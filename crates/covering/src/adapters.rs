//! The thesis' randomized algorithms re-derived as instances of the generic
//! covering engine.
//!
//! Each adapter builds the same candidate sets, in the same order, with the
//! same costs as its specialized counterpart, and drives either the
//! [`CoveringEngine`] (per-variable thresholds; Algorithms 3 and 5) or the
//! [`FractionalCovering`] solver plus [`suffix_crossing`] (single-τ
//! coupling; Algorithm 2). Consequently the adapters are **bit-for-bit
//! equivalent** to `parking_permit::rand_alg::RandomizedPermit`,
//! `set_cover_leasing::online::SmclOnline` and
//! `leasing_deadlines::scld::ScldOnline` under the same seed — the
//! equivalence tests below and experiment E28 assert exactly that. What the
//! adapters add is the engine's online dual certificate: a per-run certified
//! lower bound on the offline optimum that needs no ILP solve.

use crate::dual_ascent::DualAscent;
use crate::engine::{CoveringEngine, EngineStats};
use crate::fractional::{DualCertificate, FractionalCovering};
use crate::rounding::suffix_crossing;
use leasing_core::framework::Triple;
use leasing_core::interval::{aligned_start, candidates_covering, candidates_intersecting};
use leasing_core::lease::{Lease, LeaseStructure};
use leasing_core::rng::threshold_count;
use leasing_core::time::TimeStep;
use leasing_core::EPS;
use leasing_deadlines::old::{OldClient, OldInstance};
use leasing_deadlines::scld::{ScldArrival, ScldInstance};
use rand::{Rng, RngExt};
use set_cover_leasing::instance::SmclInstance;
use std::collections::HashSet;

/// Algorithm 2 (randomized parking permit) as a generic-covering instance:
/// the fractional phase runs on the shared [`FractionalCovering`] solver and
/// the integral phase is the suffix-sum single-τ coupling.
///
/// Bit-for-bit equivalent to
/// [`RandomizedPermit`](parking_permit::rand_alg::RandomizedPermit) with the
/// same threshold.
#[derive(Clone, Debug)]
pub struct GenericParkingPermit {
    structure: LeaseStructure,
    fractional: FractionalCovering<Lease>,
    tau: f64,
    owned: HashSet<Lease>,
    purchases: Vec<Lease>,
    cost: f64,
}

impl GenericParkingPermit {
    /// Creates the adapter, drawing its threshold from `rng` exactly as
    /// `RandomizedPermit::new` does.
    pub fn new<R: Rng + ?Sized>(structure: LeaseStructure, rng: &mut R) -> Self {
        let tau = rng.random::<f64>();
        GenericParkingPermit::with_threshold(structure, tau)
    }

    /// Creates the adapter with an explicit threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < tau <= 1.0`.
    pub fn with_threshold(structure: LeaseStructure, tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "threshold must lie in (0, 1]");
        GenericParkingPermit {
            structure,
            fractional: FractionalCovering::new(),
            tau,
            owned: HashSet::new(),
            purchases: Vec::new(),
            cost: 0.0,
        }
    }

    /// The permit structure this adapter leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Accumulated fractional cost `Σ c · f`.
    pub fn fractional_cost(&self) -> f64 {
        self.fractional.fractional_cost()
    }

    /// The leases bought so far, in purchase order.
    pub fn purchases(&self) -> &[Lease] {
        &self.purchases
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the served rainy days.
    pub fn certificate(&self) -> DualCertificate {
        self.fractional.certificate()
    }

    /// Serves a demand (a rainy day) at time `t`; days must be served in
    /// non-decreasing order.
    pub fn serve_demand(&mut self, t: TimeStep) {
        let candidates: Vec<(Lease, f64)> = candidates_covering(&self.structure, t)
            .into_iter()
            .map(|l| (l, l.cost(&self.structure)))
            .collect();
        self.fractional.serve(&candidates);

        let fractions: Vec<(Lease, f64)> = candidates
            .iter()
            .map(|&(l, _)| (l, self.fractional.fraction(&l)))
            .collect();
        let lease = suffix_crossing(&fractions, self.tau).unwrap_or(candidates[0].0);
        if self.owned.insert(lease) {
            self.cost += lease.cost(&self.structure);
            self.purchases.push(lease);
        }
        debug_assert!(self.is_covered(t));
    }

    /// Whether the permits bought so far cover day `t`.
    pub fn is_covered(&self, t: TimeStep) -> bool {
        candidates_covering(&self.structure, t)
            .into_iter()
            .any(|c| self.owned.contains(&c))
    }

    /// Total price paid so far.
    pub fn total_cost(&self) -> f64 {
        self.cost
    }
}

/// Algorithms 3 and 4 (set multicover leasing) as a generic-covering
/// instance: the layering of Figure 3.3 runs outside the engine, one engine
/// constraint per layer.
///
/// Bit-for-bit equivalent to
/// [`SmclOnline`](set_cover_leasing::online::SmclOnline) under the same
/// seed.
#[derive(Debug)]
pub struct GenericSmcl<'a> {
    instance: &'a SmclInstance,
    engine: CoveringEngine<Triple>,
    cursor: usize,
}

impl<'a> GenericSmcl<'a> {
    /// Creates the adapter with the paper's threshold count
    /// `q = 2⌈log₂(n+1)⌉`.
    pub fn new(instance: &'a SmclInstance, seed: u64) -> Self {
        let q = threshold_count(instance.system.num_elements() as u64);
        GenericSmcl::with_threshold_count(instance, seed, q)
    }

    /// Creates the adapter with an explicit threshold count.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn with_threshold_count(instance: &'a SmclInstance, seed: u64, q: u32) -> Self {
        GenericSmcl {
            instance,
            engine: CoveringEngine::new(q, seed),
            cursor: 0,
        }
    }

    /// Runs over all arrivals of the instance; returns the total cost.
    pub fn run(&mut self) -> f64 {
        while self.cursor < self.instance.arrivals.len() {
            let a = self.instance.arrivals[self.cursor];
            self.cursor += 1;
            self.serve_arrival(a.time, a.element, a.multiplicity);
        }
        self.engine.total_cost()
    }

    /// Serves one demand: `multiplicity` layers, each covered by a distinct
    /// set (the layering technique of §3.2).
    ///
    /// # Panics
    ///
    /// Panics if the multiplicity exceeds the number of usable sets.
    pub fn serve_arrival(&mut self, t: TimeStep, element: usize, multiplicity: usize) {
        let mut used_sets: HashSet<usize> = HashSet::new();
        for _layer in 0..multiplicity {
            let candidates = self.candidates(t, element, &used_sets);
            assert!(
                !candidates.is_empty(),
                "no usable set contains element {element}"
            );
            let chosen = self.engine.serve(&candidates);
            used_sets.insert(chosen.element);
        }
    }

    /// Total integral cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.engine.total_cost()
    }

    /// The underlying engine (fractions, stats, owned set).
    pub fn engine(&self) -> &CoveringEngine<Triple> {
        &self.engine
    }

    /// Integral-phase telemetry.
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// The online weak-duality certificate: a lower bound on the offline
    /// optimum of the served layers.
    pub fn certificate(&self) -> DualCertificate {
        self.engine.certificate()
    }

    /// The triples leased so far.
    pub fn owned(&self) -> impl Iterator<Item = &Triple> {
        self.engine.owned()
    }

    /// Candidate triples in the same order as `SmclOnline::candidates`.
    fn candidates(
        &self,
        t: TimeStep,
        element: usize,
        excluded: &HashSet<usize>,
    ) -> Vec<(Triple, f64)> {
        let mut out = Vec::new();
        for &s in self.instance.system.sets_containing(element) {
            if excluded.contains(&s) {
                continue;
            }
            for k in 0..self.instance.structure.num_types() {
                let start = aligned_start(t, self.instance.structure.length(k));
                out.push((Triple::new(s, k, start), self.instance.cost(s, k)));
            }
        }
        out
    }
}

/// Algorithm 5 (set cover leasing with deadlines) as a generic-covering
/// instance.
///
/// Bit-for-bit equivalent to
/// [`ScldOnline`](leasing_deadlines::scld::ScldOnline) under the same seed.
#[derive(Debug)]
pub struct GenericScld<'a> {
    instance: &'a ScldInstance,
    engine: CoveringEngine<Triple>,
    next_arrival: usize,
}

impl<'a> GenericScld<'a> {
    /// Creates the adapter with the paper's threshold count
    /// `q = 2⌈log₂(l_max)⌉` (the count that makes Theorem 5.7
    /// time-independent).
    pub fn new(instance: &'a ScldInstance, seed: u64) -> Self {
        let q = threshold_count(instance.structure.l_max());
        GenericScld::with_threshold_count(instance, seed, q)
    }

    /// Creates the adapter with an explicit threshold count.
    ///
    /// # Panics
    ///
    /// Panics if `q == 0`.
    pub fn with_threshold_count(instance: &'a ScldInstance, seed: u64, q: u32) -> Self {
        GenericScld {
            instance,
            engine: CoveringEngine::new(q, seed),
            next_arrival: 0,
        }
    }

    /// Serves all remaining arrivals; returns the total cost.
    pub fn run(&mut self) -> f64 {
        while self.next_arrival < self.instance.arrivals.len() {
            let a = self.instance.arrivals[self.next_arrival];
            self.next_arrival += 1;
            self.serve(&a);
        }
        self.engine.total_cost()
    }

    /// Serves one deadline-flexible arrival.
    pub fn serve(&mut self, a: &ScldArrival) {
        let candidates: Vec<(Triple, f64)> = self
            .instance
            .candidates(a)
            .into_iter()
            .map(|c| (c, self.instance.cost(c.element, c.type_index)))
            .collect();
        debug_assert!(!candidates.is_empty(), "validated instances are coverable");
        self.engine.serve(&candidates);
    }

    /// Total integral cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.engine.total_cost()
    }

    /// The underlying engine.
    pub fn engine(&self) -> &CoveringEngine<Triple> {
        &self.engine
    }

    /// The online weak-duality certificate.
    pub fn certificate(&self) -> DualCertificate {
        self.engine.certificate()
    }

    /// The triples leased so far.
    pub fn owned(&self) -> impl Iterator<Item = &Triple> {
        self.engine.owned()
    }
}

/// Algorithm 1 (deterministic parking permit, Theorem 2.7) as a
/// [`DualAscent`] instance.
///
/// Bit-for-bit equivalent to
/// [`DeterministicPrimalDual`](parking_permit::det::DeterministicPrimalDual).
///
/// ```
/// use leasing_core::lease::{LeaseStructure, LeaseType};
/// use online_covering::GenericDeterministicPermit;
/// ///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let permits = LeaseStructure::new(vec![
///     LeaseType::new(1, 1.0),
///     LeaseType::new(4, 3.0),
/// ])?;
/// let mut alg = GenericDeterministicPermit::new(permits);
/// for day in [0u64, 1, 2, 3] {
///     alg.serve_demand(day);
/// }
/// assert!(alg.is_covered(3));
/// // Weak duality: the raised dual lower-bounds the optimum; Theorem 2.7
/// // bounds the cost by K times that.
/// assert!(alg.total_cost() <= 2.0 * alg.dual_value());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct GenericDeterministicPermit {
    structure: LeaseStructure,
    engine: DualAscent<Lease>,
}

impl GenericDeterministicPermit {
    /// Creates the adapter for the given permit structure (used with
    /// aligned starts, i.e. the interval model).
    pub fn new(structure: LeaseStructure) -> Self {
        GenericDeterministicPermit {
            structure,
            engine: DualAscent::new(),
        }
    }

    /// The permit structure this adapter leases from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Total dual value `Σ y` raised (the Theorem 2.7 lower bound).
    pub fn dual_value(&self) -> f64 {
        self.engine.dual_value()
    }

    /// The leases bought, in purchase order.
    pub fn purchases(&self) -> &[Lease] {
        self.engine.purchases()
    }

    /// Serves a demand (a rainy day) at time `t`; days must be served in
    /// non-decreasing order.
    pub fn serve_demand(&mut self, t: TimeStep) {
        if self.is_covered(t) {
            return;
        }
        let candidates: Vec<(Lease, f64)> = candidates_covering(&self.structure, t)
            .into_iter()
            .map(|l| (l, l.cost(&self.structure)))
            .collect();
        let bought = self.engine.serve(&candidates);
        debug_assert!(!bought.is_empty() || self.is_covered(t));
    }

    /// Whether the permits bought so far cover day `t`.
    pub fn is_covered(&self, t: TimeStep) -> bool {
        candidates_covering(&self.structure, t)
            .into_iter()
            .any(|c| self.engine.owns(&c))
    }

    /// Total price paid so far.
    pub fn total_cost(&self) -> f64 {
        self.engine.total_cost()
    }
}

/// The §5.3 deterministic OLD algorithm as a [`DualAscent`] instance:
/// Step 1 raises over the window's candidates and buys the tight
/// arrival-day leases; Step 2 mirrors them at the deadline via forced
/// purchases.
///
/// Bit-for-bit equivalent to
/// [`OldPrimalDual`](leasing_deadlines::old::OldPrimalDual).
#[derive(Clone, Debug)]
pub struct GenericOld<'a> {
    instance: &'a OldInstance,
    engine: DualAscent<Lease>,
    positive_clients: Vec<OldClient>,
    next_client: usize,
}

impl<'a> GenericOld<'a> {
    /// Creates the adapter for `instance`.
    pub fn new(instance: &'a OldInstance) -> Self {
        GenericOld {
            instance,
            engine: DualAscent::new(),
            positive_clients: Vec::new(),
            next_client: 0,
        }
    }

    /// Serves all remaining clients; returns the total cost.
    pub fn run(&mut self) -> f64 {
        while self.next_client < self.instance.clients.len() {
            let c = self.instance.clients[self.next_client];
            self.next_client += 1;
            self.serve(c);
        }
        self.engine.total_cost()
    }

    /// Total cost paid so far.
    pub fn total_cost(&self) -> f64 {
        self.engine.total_cost()
    }

    /// Total dual value raised.
    pub fn dual_value(&self) -> f64 {
        self.engine.dual_value()
    }

    /// The leases bought, in purchase order.
    pub fn purchases(&self) -> &[Lease] {
        self.engine.purchases()
    }

    /// Whether `client`'s window holds an owned lease.
    pub fn is_served(&self, client: &OldClient) -> bool {
        let w = client.window();
        candidates_intersecting(&self.instance.structure, w)
            .into_iter()
            .any(|l| self.engine.owns(&l))
    }

    /// Serves one client (fed in arrival order).
    pub fn serve(&mut self, client: OldClient) {
        // §5.3 precondition: skip clients intersecting a previous
        // positive-dual client at its deadline — the Step 2 mirror already
        // serves them.
        let skip = self.positive_clients.iter().any(|p| {
            p.arrival < client.arrival
                && p.deadline() >= client.arrival
                && p.deadline() <= client.deadline()
        });
        if skip {
            debug_assert!(self.is_served(&client));
            return;
        }

        // Step 1: raise over the whole window's candidates.
        let structure = &self.instance.structure;
        let candidates: Vec<(Lease, f64)> = candidates_intersecting(structure, client.window())
            .into_iter()
            .map(|l| (l, l.cost(structure)))
            .collect();
        let delta = self.engine.raise(&candidates);
        if delta > EPS {
            self.positive_clients.push(client);
        }

        // Buy every tight candidate covering the arrival day.
        let mut bought_types = Vec::new();
        for lease in candidates_covering(structure, client.arrival) {
            let cost = lease.cost(structure);
            if self.engine.is_tight(&lease, cost) {
                bought_types.push(lease.type_index);
                self.engine.buy(lease, cost);
            }
        }
        debug_assert!(
            !bought_types.is_empty(),
            "Proposition 5.1 guarantees a tight cover"
        );

        // Step 2: mirror at the deadline.
        if client.slack > 0 {
            for k in bought_types {
                let len = structure.length(k);
                let start = aligned_start(client.deadline(), len);
                let lease = Lease::new(k, start);
                self.engine.buy(lease, lease.cost(structure));
            }
        }
        debug_assert!(self.is_served(&client));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::{Driver, LeasingAlgorithm};
    use leasing_core::lease::LeaseType;
    use leasing_core::rng::seeded;
    use parking_permit::rand_alg::RandomizedPermit;
    use set_cover_leasing::instance::Arrival;
    use set_cover_leasing::online::{is_feasible_cover, SmclOnline};
    use set_cover_leasing::system::SetSystem;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 3.0),
            LeaseType::new(16, 8.0),
        ])
        .unwrap()
    }

    /// Serves `requests` through a fresh driver over `structure`.
    fn driven<A: LeasingAlgorithm>(
        alg: A,
        structure: &LeaseStructure,
        requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
    ) -> Driver<A> {
        let mut driver = Driver::new(alg, structure.clone());
        driver.submit_batch(requests).unwrap();
        driver
    }

    fn triangle_system() -> SetSystem {
        SetSystem::new(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap()
    }

    #[test]
    fn parking_permit_adapter_is_bit_equal_to_randomized_permit() {
        let demands: Vec<u64> = vec![0, 1, 5, 6, 7, 20, 40, 41, 64, 65];
        for pct in 1..=10 {
            let tau = pct as f64 / 10.0;
            let spec = driven(
                RandomizedPermit::with_threshold(structure(), tau),
                &structure(),
                demands.iter().map(|&t| (t, ())),
            );
            let mut gen = GenericParkingPermit::with_threshold(structure(), tau);
            for &t in &demands {
                gen.serve_demand(t);
            }
            assert_eq!(
                spec.cost().to_bits(),
                gen.total_cost().to_bits(),
                "tau {tau}: integral costs diverge"
            );
            let spec = spec.algorithm();
            assert_eq!(
                spec.purchases(),
                gen.purchases(),
                "tau {tau}: purchases diverge"
            );
            assert_eq!(
                spec.fractional_cost().to_bits(),
                gen.fractional_cost().to_bits(),
                "tau {tau}: fractional costs diverge"
            );
        }
    }

    #[test]
    fn parking_permit_adapter_same_rng_draws_same_tau() {
        let mut r1 = seeded(9);
        let mut r2 = seeded(9);
        let days = [0u64, 2, 3, 17];
        let spec = driven(
            RandomizedPermit::new(structure(), &mut r1),
            &structure(),
            days.map(|t| (t, ())),
        );
        let mut gen = GenericParkingPermit::new(structure(), &mut r2);
        for t in days {
            gen.serve_demand(t);
        }
        assert_eq!(spec.cost().to_bits(), gen.total_cost().to_bits());
    }

    #[test]
    fn smcl_adapter_is_bit_equal_to_smcl_online() {
        let arrivals = vec![
            Arrival::new(0, 0, 1),
            Arrival::new(1, 1, 2),
            Arrival::new(6, 2, 2),
            Arrival::new(20, 0, 2),
            Arrival::new(21, 1, 1),
        ];
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let inst = SmclInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        for seed in 0..20 {
            let spec = driven(
                SmclOnline::new(&inst, seed),
                &inst.structure,
                inst.requests(),
            );
            let spec_cost = spec.cost();
            let spec = spec.algorithm();
            let mut gen = GenericSmcl::new(&inst, seed);
            let gen_cost = gen.run();
            assert_eq!(
                spec_cost.to_bits(),
                gen_cost.to_bits(),
                "seed {seed}: costs diverge"
            );
            let spec_owned: HashSet<Triple> = spec.owned().copied().collect();
            let gen_owned: HashSet<Triple> = gen.owned().copied().collect();
            assert_eq!(spec_owned, gen_owned, "seed {seed}: owned sets diverge");
            assert_eq!(
                spec.stats().fractional_cost.to_bits(),
                gen.engine().fractional().fractional_cost().to_bits(),
                "seed {seed}: fractional costs diverge"
            );
            assert_eq!(spec.stats().fallbacks, gen.stats().fallbacks);
        }
    }

    #[test]
    fn smcl_adapter_solutions_are_feasible_multicovers() {
        let arrivals = vec![Arrival::new(0, 0, 2), Arrival::new(9, 2, 2)];
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let inst = SmclInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        for seed in 0..8 {
            let mut gen = GenericSmcl::new(&inst, seed);
            gen.run();
            let owned: HashSet<Triple> = gen.owned().copied().collect();
            assert!(is_feasible_cover(&inst, &owned), "seed {seed}");
        }
    }

    #[test]
    fn scld_adapter_is_bit_equal_to_scld_online() {
        use leasing_deadlines::scld::ScldOnline;
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let arrivals = vec![
            ScldArrival::new(0, 0, 3),
            ScldArrival::new(2, 1, 0),
            ScldArrival::new(7, 2, 10),
            ScldArrival::new(20, 0, 2),
        ];
        let inst = ScldInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        for seed in 0..20 {
            let spec = driven(
                ScldOnline::new(&inst, seed),
                &inst.structure,
                inst.requests(),
            );
            let spec_cost = spec.cost();
            let spec = spec.algorithm();
            let mut gen = GenericScld::new(&inst, seed);
            let gen_cost = gen.run();
            assert_eq!(
                spec_cost.to_bits(),
                gen_cost.to_bits(),
                "seed {seed}: costs diverge"
            );
            let spec_owned: HashSet<Triple> = spec.owned().copied().collect();
            let gen_owned: HashSet<Triple> = gen.owned().copied().collect();
            assert_eq!(spec_owned, gen_owned, "seed {seed}: owned sets diverge");
        }
    }

    #[test]
    fn scld_adapter_certificate_lower_bounds_measured_cost() {
        let lengths =
            LeaseStructure::new(vec![LeaseType::new(4, 1.0), LeaseType::new(16, 3.0)]).unwrap();
        let arrivals = vec![ScldArrival::new(0, 0, 3), ScldArrival::new(9, 1, 1)];
        let inst = ScldInstance::uniform(triangle_system(), lengths, arrivals).unwrap();
        let mut gen = GenericScld::new(&inst, 5);
        let cost = gen.run();
        let cert = gen.certificate();
        assert!(
            cert.lower_bound <= cost + 1e-9,
            "certificate must not exceed the paid cost"
        );
        assert!(cert.lower_bound >= 0.0);
    }

    #[test]
    fn deterministic_permit_adapter_is_bit_equal_to_algorithm_1() {
        use parking_permit::det::DeterministicPrimalDual;
        let demands: Vec<u64> = vec![0, 1, 2, 5, 6, 7, 20, 40, 41, 64, 65, 80];
        let spec = driven(
            DeterministicPrimalDual::new(structure()),
            &structure(),
            demands.iter().map(|&t| (t, ())),
        );
        let mut gen = GenericDeterministicPermit::new(structure());
        for &t in &demands {
            gen.serve_demand(t);
            assert!(gen.is_covered(t));
        }
        assert_eq!(spec.cost().to_bits(), gen.total_cost().to_bits());
        let spec = spec.algorithm();
        assert_eq!(spec.purchases(), gen.purchases());
        assert_eq!(spec.dual_value().to_bits(), gen.dual_value().to_bits());
    }

    #[test]
    fn old_adapter_is_bit_equal_to_old_primal_dual() {
        use leasing_deadlines::old::OldPrimalDual;
        let clients = vec![
            OldClient::new(0, 6),
            OldClient::new(2, 0),
            OldClient::new(4, 10),
            OldClient::new(9, 3),
            OldClient::new(20, 0),
            OldClient::new(21, 8),
        ];
        let inst = OldInstance::new(structure(), clients).expect("sorted clients");
        let spec = driven(OldPrimalDual::new(&inst), &inst.structure, inst.requests());
        let spec_cost = spec.cost();
        let spec = spec.algorithm();
        let mut gen = GenericOld::new(&inst);
        let gen_cost = gen.run();
        assert_eq!(spec_cost.to_bits(), gen_cost.to_bits());
        assert_eq!(spec.purchases(), gen.purchases());
        assert_eq!(spec.dual_value().to_bits(), gen.dual_value().to_bits());
        for c in &inst.clients {
            assert!(gen.is_served(c));
        }
    }

    #[test]
    fn old_adapter_collapses_to_deterministic_permit_at_zero_slack() {
        // d = 0 for all clients makes OLD the parking permit problem; the
        // two deterministic adapters must then pay the same.
        let days = [0u64, 1, 5, 20, 21, 40];
        let clients: Vec<OldClient> = days.iter().map(|&t| OldClient::new(t, 0)).collect();
        let inst = OldInstance::new(structure(), clients).expect("sorted clients");
        let mut old = GenericOld::new(&inst);
        let old_cost = old.run();
        let mut permit = GenericDeterministicPermit::new(structure());
        for &t in &days {
            permit.serve_demand(t);
        }
        assert_eq!(old_cost.to_bits(), permit.total_cost().to_bits());
    }

    #[test]
    fn parking_permit_certificate_lower_bounds_exact_optimum() {
        // The DP optimum is available for the parking permit problem — the
        // certificate must stay below it.
        let s = structure();
        let demands: Vec<u64> = (0..16).chain(40..44).collect();
        let opt = parking_permit::offline::optimal_cost_interval_model(&s, &demands);
        let mut gen = GenericParkingPermit::with_threshold(s, 0.5);
        for &t in &demands {
            gen.serve_demand(t);
        }
        let cert = gen.certificate();
        assert!(
            cert.lower_bound <= opt + 1e-9,
            "certificate {} exceeds DP optimum {opt}",
            cert.lower_bound
        );
        assert!(cert.lower_bound > 0.0);
    }
}
