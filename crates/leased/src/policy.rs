//! [`TenantPermit`]: the daemon's multi-tenant leasing policy.
//!
//! Each tenant is one covered element of the thesis' deterministic
//! parking-permit primal-dual (Algorithm 1): an uncovered demand raises
//! the tenant's dual variable until some aligned candidate lease becomes
//! tight, and every tight candidate is bought — `O(K)`-competitive per
//! tenant, hence per shard, since tenants share no constraints.
//!
//! On top of the paper algorithm the daemon adds **force-release**: an
//! operator op that voids a tenant's live leases. It records a zero-cost
//! [`CATEGORY_FORCE_RELEASE`] charge, which counts in the ledger's
//! `decision_count` and `cost_by_category`; the per-release audit trail
//! itself is kept only when the daemon runs `--retention full`. Released
//! leases stay in the ledger — cost history is append-only — so the
//! policy overlays a released set and re-buys (and re-pays) when a demand
//! arrives for a voided window. The set forgets a window once the request
//! clock reaches its end.
//!
//! [`PermitCore`] is the policy itself: each shard drives a concrete
//! `Driver<PermitCore>` and reads the released overlay (for
//! `list-active`) and the accumulators (for snapshots) through
//! `Driver::algorithm`, so the engine is `Send` and needs no shared
//! handle.

use leasing_core::engine::{Books, ElementIndex, LeasingAlgorithm, Ledger};
use leasing_core::framework::Triple;
use leasing_core::interval::dual_step;
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use serde::{de, value_field, Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Ledger category of the zero-cost force-release audit charge.
pub const CATEGORY_FORCE_RELEASE: &str = "force-release";

/// Schema tag of [`PermitCore::to_value`] payloads.
pub const POLICY_SNAPSHOT_SCHEMA: &str = "tenant-permit/v1";

/// One engine request: the daemon translates wire ops into these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantOp {
    /// A lease demand of the tenant.
    Demand(usize),
    /// Void the tenant's live leases (future demands buy fresh).
    Release(usize),
}

/// The multi-tenant permit policy: per-tenant dual accumulators plus the
/// force-released overlay.
///
/// Per-tenant state is flat: tenants are interned into dense slots, and
/// slot `s` owns the `K` dual slots `duals[s * K..(s + 1) * K]`.
#[derive(Clone, Debug)]
pub struct PermitCore {
    structure: LeaseStructure,
    /// Tenant id → slot; a tenant is interned at its first uncovered
    /// demand.
    tenants: ElementIndex,
    /// Per-tenant dual accumulators: `(current window start, Σy)` per
    /// lease type, exactly as in the single-tenant deterministic
    /// primal-dual (stale windows read as zero).
    duals: Vec<(TimeStep, f64)>,
    /// Total dual value raised across tenants (a lower bound on the
    /// interval-model optimum by weak duality).
    dual_value: f64,
    /// Force-released leases, `(window end, tenant, type, window start)`,
    /// ordered by window end so ended windows pop from the front. Present
    /// means: the ledger owns the triple but the daemon treats it as
    /// void; a re-buy removes the entry, and so does a request at or after
    /// the window's end.
    released: BTreeSet<(TimeStep, usize, usize, TimeStep)>,
}

impl PermitCore {
    /// A fresh policy over `structure`.
    pub fn new(structure: LeaseStructure) -> Self {
        PermitCore {
            structure,
            tenants: ElementIndex::default(),
            duals: Vec::new(),
            dual_value: 0.0,
            released: BTreeSet::new(),
        }
    }

    /// Whether `triple` has been force-released (and neither re-bought
    /// nor ended before the latest request).
    pub fn is_released(&self, triple: Triple) -> bool {
        released_key(
            &self.structure,
            triple.element,
            triple.type_index,
            triple.start,
        )
        .is_some_and(|key| self.released.contains(&key))
    }

    /// Number of force-released windows still remembered.
    pub fn released_leases(&self) -> usize {
        self.released.len()
    }

    /// Total dual value raised so far (lower-bounds the interval-model
    /// optimum across tenants).
    pub fn dual_value(&self) -> f64 {
        self.dual_value
    }

    /// The lease structure the policy prices from.
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// `tenant`'s live leases at `t` in `ledger`, the ledger this policy
    /// records into: per type, the active lease unless it was
    /// force-released.
    ///
    /// A released window is forgotten once a request reaches its end, so
    /// at a time before the latest request a window that was released
    /// and has since ended lists again: the ledger still owns it.
    pub fn live_leases<'a>(
        &'a self,
        ledger: &'a Ledger,
        tenant: usize,
        t: TimeStep,
    ) -> impl Iterator<Item = Triple> + 'a {
        (0..self.structure.num_types()).filter_map(move |k| {
            ledger
                .active_lease_of_type(tenant, k, t)
                .filter(|&triple| !self.is_released(triple))
        })
    }

    /// The slot of `tenant`, interning it with fresh dual slots on first
    /// use.
    fn intern(&mut self, tenant: usize) -> usize {
        let slot = self.tenants.intern(tenant);
        let end = (slot + 1) * self.structure.num_types();
        if end > self.duals.len() {
            self.duals.resize(end, (TimeStep::MAX, 0.0));
        }
        slot
    }

    /// The `K` dual slots of every tenant, in ascending tenant order.
    fn tenant_duals(&self) -> Vec<(usize, &[(TimeStep, f64)])> {
        let mut tenants: Vec<(usize, &[(TimeStep, f64)])> = self
            .tenants
            .ids()
            .iter()
            .copied()
            .zip(self.duals.chunks(self.structure.num_types().max(1)))
            .collect();
        tenants.sort_unstable_by_key(|&(tenant, _)| tenant);
        tenants
    }

    /// Forgets every released window that ends at or before `t`: no
    /// request from `t` on can fall inside it.
    fn forget_ended_releases(&mut self, t: TimeStep) {
        while self.released.first().is_some_and(|&(end, ..)| end <= t) {
            self.released.pop_first();
        }
    }

    /// The primal-dual step for one demand of `tenant` at `t`.
    fn serve_demand(&mut self, t: TimeStep, tenant: usize, books: &mut Books<'_>) {
        if self.live_leases(books, tenant, t).next().is_some() {
            return;
        }
        let slot = self.intern(tenant);
        let types = self.structure.num_types();
        let PermitCore {
            structure,
            duals,
            dual_value,
            released,
            ..
        } = self;
        let Some(slots) = duals.get_mut(slot * types..(slot + 1) * types) else {
            return;
        };
        *dual_value += dual_step(structure, slots, t, |k, start| {
            // A released window re-buys (and re-pays); an owned live one
            // does not.
            let was_released =
                released_key(structure, tenant, k, start).is_some_and(|key| released.remove(&key));
            let triple = Triple::new(tenant, k, start);
            if was_released || !books.owns(triple) {
                books.buy(t, triple);
            }
        });
        debug_assert!(
            self.live_leases(books, tenant, t).next().is_some(),
            "the primal-dual step must cover the demand"
        );
    }

    /// Voids `tenant`'s live leases at `t` and records the audit charge.
    fn serve_release(&mut self, t: TimeStep, tenant: usize, books: &mut Books<'_>) {
        for k in 0..self.structure.num_types() {
            if let Some(key) = books
                .active_lease_of_type(tenant, k, t)
                .and_then(|triple| released_key(&self.structure, tenant, k, triple.start))
            {
                self.released.insert(key);
            }
        }
        books.charge(t, tenant, 0.0, CATEGORY_FORCE_RELEASE);
    }

    /// Serializes the policy state (schema [`POLICY_SNAPSHOT_SCHEMA`]).
    /// The structure itself is daemon configuration and is not embedded.
    pub fn to_value(&self) -> Value {
        let contributions: Vec<(u64, Vec<(TimeStep, f64)>)> = self
            .tenant_duals()
            .into_iter()
            .map(|(tenant, slots)| (tenant as u64, slots.to_vec()))
            .collect();
        let mut released: Vec<(u64, u64, TimeStep)> = self
            .released
            .iter()
            .map(|&(_, tenant, k, start)| (tenant as u64, k as u64, start))
            .collect();
        released.sort_unstable();
        Value::Map(vec![
            (
                "schema".to_string(),
                Value::Str(POLICY_SNAPSHOT_SCHEMA.to_string()),
            ),
            ("dual_value".to_string(), self.dual_value.to_value()),
            ("contributions".to_string(), contributions.to_value()),
            ("released".to_string(), released.to_value()),
        ])
    }

    /// Rebuilds a core from [`PermitCore::to_value`] output and the
    /// daemon's configured `structure`.
    ///
    /// # Errors
    ///
    /// Rejects payloads with a wrong schema tag or malformed fields,
    /// including dual slots that do not number one per lease type and
    /// released leases of a type the structure lacks.
    pub fn from_value(structure: LeaseStructure, value: &Value) -> Result<Self, de::Error> {
        let schema = serde::value_str(value_field(value, "schema")?)?;
        if schema != POLICY_SNAPSHOT_SCHEMA {
            return Err(de::Error::new(format!(
                "expected schema {POLICY_SNAPSHOT_SCHEMA}, found {schema}"
            )));
        }
        let dual_value = f64::from_value(value_field(value, "dual_value")?)?;
        let raw_contributions =
            Vec::<(u64, Vec<(TimeStep, f64)>)>::from_value(value_field(value, "contributions")?)?;
        let raw_released =
            Vec::<(u64, u64, TimeStep)>::from_value(value_field(value, "released")?)?;
        let index = |v: u64| -> Result<usize, de::Error> {
            usize::try_from(v).map_err(|_| de::Error::new(format!("index {v} overflows usize")))
        };
        let mut core = PermitCore::new(structure);
        core.dual_value = dual_value;
        for (tenant, k, start) in raw_released {
            let key = released_key(&core.structure, index(tenant)?, index(k)?, start)
                .ok_or_else(|| de::Error::new(format!("released lease of unknown type {k}")))?;
            core.released.insert(key);
        }
        let types = core.structure.num_types();
        for (tenant, slots) in raw_contributions {
            if slots.len() != types {
                return Err(de::Error::new(format!(
                    "tenant {tenant} has {} dual slots, expected {types}",
                    slots.len()
                )));
            }
            let slot = core.intern(index(tenant)?);
            if let Some(duals) = core.duals.get_mut(slot * types..(slot + 1) * types) {
                duals.copy_from_slice(&slots);
            }
        }
        Ok(core)
    }
}

/// The `released` key of tenant `tenant`'s type-`k` window starting at
/// `start`: its end first. `None` when `structure` has no type `k`.
fn released_key(
    structure: &LeaseStructure,
    tenant: usize,
    k: usize,
    start: TimeStep,
) -> Option<(TimeStep, usize, usize, TimeStep)> {
    let length = structure.types().get(k)?.length;
    Some((start.saturating_add(length), tenant, k, start))
}

/// Two cores are equal when they hold the same state per tenant, whatever
/// order their tenants were interned in.
impl PartialEq for PermitCore {
    fn eq(&self, other: &Self) -> bool {
        self.structure == other.structure
            && self.dual_value == other.dual_value
            && self.released == other.released
            && self.tenant_duals() == other.tenant_duals()
    }
}

impl LeasingAlgorithm for PermitCore {
    type Request = TenantOp;

    fn on_request(&mut self, time: TimeStep, request: TenantOp, mut books: Books<'_>) {
        self.forget_ended_releases(time);
        match request {
            TenantOp::Demand(tenant) => self.serve_demand(time, tenant, &mut books),
            TenantOp::Release(tenant) => self.serve_release(time, tenant, &mut books),
        }
    }
}

/// A [`PermitCore`] behind a shared handle, so a caller can read the core
/// while an engine owns the policy. Only the benchmark uses it: delete at
/// the next benchmark change.
#[derive(Clone, Debug)]
pub struct TenantPermit {
    core: Rc<RefCell<PermitCore>>,
}

impl TenantPermit {
    /// A fresh policy over `structure`.
    pub fn new(structure: LeaseStructure) -> Self {
        TenantPermit {
            core: Rc::new(RefCell::new(PermitCore::new(structure))),
        }
    }

    /// A shared handle onto the policy core.
    pub fn core(&self) -> Rc<RefCell<PermitCore>> {
        Rc::clone(&self.core)
    }
}

impl LeasingAlgorithm for TenantPermit {
    type Request = TenantOp;

    fn on_request(&mut self, time: TimeStep, request: TenantOp, books: Books<'_>) {
        self.core.borrow_mut().on_request(time, request, books);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::engine::Driver;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)]).unwrap()
    }

    fn engine() -> Driver<PermitCore> {
        Driver::new(PermitCore::new(structure()), structure())
    }

    #[test]
    fn tenants_are_independent_permit_instances() {
        let mut engine = engine();
        engine.submit(0, TenantOp::Demand(1)).unwrap();
        engine.submit(0, TenantOp::Demand(2)).unwrap();
        // Each first demand buys the cheapest (day) lease for its tenant.
        assert!((engine.cost() - 2.0).abs() < 1e-9);
        assert!(engine.ledger().covered(1, 0));
        assert!(engine.ledger().covered(2, 0));
        assert!(!engine.ledger().covered(3, 0));
        assert!((engine.algorithm().dual_value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_demands_escalate_to_the_long_lease() {
        let mut engine = engine();
        for t in 0..4 {
            engine.submit(t, TenantOp::Demand(5)).unwrap();
        }
        // Same trajectory as the single-tenant algorithm: three day leases,
        // then the long lease becomes tight.
        assert!((engine.cost() - 6.0).abs() < 1e-9);
        assert!(engine.ledger().covered(5, 3));
    }

    #[test]
    fn covered_demands_are_free() {
        let mut engine = engine();
        engine.submit(0, TenantOp::Demand(9)).unwrap();
        let cost = engine.cost();
        engine.submit(0, TenantOp::Demand(9)).unwrap();
        assert_eq!(engine.cost(), cost);
    }

    #[test]
    fn force_release_voids_coverage_and_rebuys_fresh() {
        let mut engine = engine();
        for t in 0..3 {
            engine.submit(t, TenantOp::Demand(4)).unwrap();
        }
        let cost_before = engine.cost();
        // The long lease [0,4) is live; release everything at t=3.
        engine.submit(3, TenantOp::Release(4)).unwrap();
        assert_eq!(engine.cost(), cost_before, "releasing is free");
        assert!(
            engine.algorithm().is_released(Triple::new(4, 1, 0)),
            "the long lease is voided"
        );
        // The ledger still covers t=3, but the policy re-buys on demand.
        assert!(engine.ledger().covered(4, 3));
        engine.submit(3, TenantOp::Demand(4)).unwrap();
        assert!(engine.cost() > cost_before, "a voided window re-pays");
        // The re-bought window is live again.
        assert!(!engine.algorithm().is_released(Triple::new(4, 1, 0)));
        // The audit charge is on the books.
        assert!(engine
            .stats()
            .cost_by_category
            .iter()
            .any(|(category, _)| category == CATEGORY_FORCE_RELEASE));
    }

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn released_field(core: &PermitCore) -> Result<Value, de::Error> {
        value_field(&core.to_value(), "released").cloned()
    }

    #[test]
    fn released_windows_are_forgotten_once_they_end() -> TestResult {
        let mut engine = engine();
        engine.submit(0, TenantOp::Demand(7))?;
        engine.submit(0, TenantOp::Release(7))?;
        assert_eq!(
            released_field(engine.algorithm())?,
            vec![(7u64, 0u64, 0u64)].to_value()
        );
        assert_eq!(engine.algorithm().released_leases(), 1);
        // The day lease [0, 1) ended long before tenant 8's demand.
        engine.submit(1000, TenantOp::Demand(8))?;
        assert_eq!(
            released_field(engine.algorithm())?,
            Vec::<(u64, u64, u64)>::new().to_value()
        );
        assert_eq!(engine.algorithm().released_leases(), 0);
        // A read at a time inside the forgotten window lists the lease the
        // ledger still owns.
        let live: Vec<Triple> = engine
            .algorithm()
            .live_leases(engine.ledger(), 7, 0)
            .collect();
        assert_eq!(live, vec![Triple::new(7, 0, 0)]);
        Ok(())
    }

    #[test]
    fn released_windows_stay_until_their_end_and_serialize_in_tenant_order() -> TestResult {
        let mut engine = engine();
        // At t=2 tenant 2 holds the day lease [2, 3) and the long lease
        // [0, 4); tenant 9 holds the day lease [2, 3).
        for t in 0..3 {
            engine.submit(t, TenantOp::Demand(2))?;
        }
        engine.submit(2, TenantOp::Demand(9))?;
        engine.submit(2, TenantOp::Release(9))?;
        engine.submit(2, TenantOp::Release(2))?;
        assert_eq!(
            released_field(engine.algorithm())?,
            vec![(2u64, 0u64, 2u64), (2, 1, 0), (9, 0, 2)].to_value()
        );
        // At t=3 the day windows have ended; the long one is still open.
        engine.submit(3, TenantOp::Demand(5))?;
        assert_eq!(
            released_field(engine.algorithm())?,
            vec![(2u64, 1u64, 0u64)].to_value()
        );
        engine.submit(4, TenantOp::Demand(5))?;
        assert_eq!(engine.algorithm().released_leases(), 0);
        Ok(())
    }

    #[test]
    fn released_leases_of_an_unknown_type_are_rejected() -> TestResult {
        let mut engine = engine();
        engine.submit(0, TenantOp::Demand(1))?;
        let mut snap = engine.algorithm().to_value();
        let unknown_type = vec![(1u64, 2u64, 0u64)].to_value();
        if let Value::Map(fields) = &mut snap {
            for (name, value) in fields {
                if name == "released" {
                    *value = unknown_type.clone();
                }
            }
        }
        assert_eq!(value_field(&snap, "released")?, &unknown_type);
        assert!(PermitCore::from_value(structure(), &snap).is_err());
        Ok(())
    }

    #[test]
    fn policy_state_round_trips_through_values() {
        let mut engine = engine();
        for t in 0..4 {
            engine.submit(t, TenantOp::Demand(t as usize % 2)).unwrap();
        }
        engine.submit(3, TenantOp::Release(1)).unwrap();
        let snap = engine.algorithm().to_value();
        let restored = PermitCore::from_value(structure(), &snap).unwrap();
        assert_eq!(restored, *engine.algorithm());
        assert_eq!(restored.to_value(), snap, "snapshots are idempotent");
    }

    #[test]
    fn a_restored_core_rebuys_released_windows_like_the_original() {
        let mut engine = engine();
        for t in 0..3 {
            engine.submit(t, TenantOp::Demand(7)).unwrap();
        }
        engine.submit(2, TenantOp::Release(7)).unwrap();
        let core = PermitCore::from_value(structure(), &engine.algorithm().to_value()).unwrap();
        let mut restored = Driver::restore(core, &engine.snapshot()).unwrap();
        for driver in [&mut engine, &mut restored] {
            driver.submit(3, TenantOp::Demand(7)).unwrap();
            driver.submit(3, TenantOp::Demand(8)).unwrap();
        }
        assert_eq!(restored.algorithm(), engine.algorithm());
        assert_eq!(
            restored.algorithm().to_value(),
            engine.algorithm().to_value()
        );
        assert_eq!(restored.cost(), engine.cost());
        assert!(!restored.algorithm().is_released(Triple::new(7, 1, 0)));
    }

    #[test]
    fn dual_slots_of_the_wrong_arity_are_rejected() {
        let mut engine = engine();
        engine.submit(0, TenantOp::Demand(1)).unwrap();
        let Value::Map(mut fields) = engine.algorithm().to_value() else {
            panic!("policy snapshots are maps");
        };
        for (name, value) in &mut fields {
            if name == "contributions" {
                *value = vec![(1u64, vec![(0u64, 1.0f64)])].to_value();
            }
        }
        assert!(PermitCore::from_value(structure(), &Value::Map(fields)).is_err());
    }

    #[test]
    fn malformed_policy_snapshots_are_rejected() {
        let snap = Value::Map(vec![(
            "schema".to_string(),
            Value::Str("wrong/v9".to_string()),
        )]);
        assert!(PermitCore::from_value(structure(), &snap).is_err());
        assert!(PermitCore::from_value(structure(), &Value::Null).is_err());
    }
}
