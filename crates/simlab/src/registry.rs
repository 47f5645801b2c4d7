//! The algorithm registry: every online algorithm of the workspace behind
//! one boxed-run interface, so a scenario matrix can drive them uniformly.
//!
//! Each entry maps the cell's [`Trace`] into its problem domain (demand
//! days, set-cover arrivals, facility client batches, Steiner pair
//! requests, deadline clients, ...) **deterministically from the cell
//! seed**, drives the algorithm through
//! [`leasing_core::engine::Driver`], and measures it against an offline
//! baseline from `leasing_oracle` — exact where a DP exists (parking
//! permit), a certified LP/dual lower bound otherwise. Entries of the same
//! problem family share an **oracle key**: the matrix runner computes the
//! baseline once per `(workload, seed, key)` and hands it to every
//! algorithm of that family through [`RunContext::oracle`], so
//! `permit-det`, `permit-rand` and both stochastic policies never re-run
//! the same DP. Any failure comes back as a typed [`SimError`] so one bad
//! cell never aborts a sharded run.

use crate::error::{instance_err, SimError};
use crate::scenario::Trace;
use capacitated_facility::instance::CapacitatedInstance;
use capacitated_facility::online::{CapacitatedGreedy, LeaseChoice};
use facility_leasing::instance::FacilityInstance;
use facility_leasing::metric::Point;
use facility_leasing::nagarajan_williamson::NagarajanWilliamson;
use facility_leasing::online::PrimalDualFacility;
use facility_leasing::randomized::RandomizedFacility;
use graph_cover_leasing::vertex_cover::{VcLeasingInstance, VcPrimalDual};
use leasing_core::engine::{DecisionRetention, LeasingAlgorithm, Ledger, Report};
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use leasing_core::time::TimeStep;
use leasing_deadlines::old::{OldClient, OldInstance, OldPrimalDual};
use leasing_deadlines::scld::{ScldArrival, ScldInstance, ScldOnline};
use leasing_graph::graph::Graph;
use leasing_oracle::{
    CapacitatedLpOracle, FacilityLpOracle, OfflineOracle, OldLpOracle, OracleBound, PermitDpOracle,
    ScldLpOracle, SetCoverLpOracle, SteinerLpOracle,
};
use leasing_workloads::set_systems::random_system;
use parking_permit::det::DeterministicPrimalDual;
use parking_permit::rand_alg::RandomizedPermit;
use rand::rngs::StdRng;
use rand::RngExt;
use set_cover_leasing::instance::{Arrival, SmclInstance};
use set_cover_leasing::online::SmclOnline;
use steiner_leasing::instance::{PairRequest, SteinerInstance};
use steiner_leasing::online::SteinerLeasingOnline;
use stochastic_leasing::policies::{EmpiricalRate, RateThreshold};

/// Everything a registry entry needs to run one cell.
#[derive(Clone, Debug)]
pub struct RunContext {
    /// The lease structure shared by the whole matrix.
    pub structure: LeaseStructure,
    /// The cell seed; entries derive their private randomness from it with
    /// per-entry salts, so cells are independent of execution order.
    pub seed: u64,
    /// The offline baseline precomputed by the matrix runner for this
    /// cell's `(workload, seed, oracle key)` — shared across every
    /// algorithm of the family. `None` makes the cell compute it inline
    /// (bit-identical: both paths run the same oracle).
    pub oracle: Option<OracleBound>,
    /// Opt-in periodic [`Ledger::compact`] period (the CLI's
    /// `--compact-every=N`). Cells with a horizon of at least
    /// [`COMPACT_MIN_HORIZON`] compact every `N` steps, pruning
    /// coverage-index entries behind a safe lag (`max(N, l_max + 64)`
    /// behind the clock — beyond how far any registry algorithm's
    /// purchases or queries reach), bounding index growth on unbounded
    /// streams with cell outcomes unchanged for every period value.
    pub compact_every: Option<u64>,
    /// Decision-trace retention for the cell engine (the CLI's
    /// `--retention`). Retention only narrows the retained trace —
    /// every cost aggregate, ratio and concurrency statistic SimLab
    /// reports is maintained at record time, so cell outcomes are
    /// **bit-identical in every mode** (pinned in `runner` tests).
    pub retention: DecisionRetention,
}

impl RunContext {
    /// A context with no precomputed oracle, no compaction, and full
    /// decision retention.
    pub fn new(structure: LeaseStructure, seed: u64) -> Self {
        RunContext {
            structure,
            seed,
            oracle: None,
            compact_every: None,
            retention: DecisionRetention::Full,
        }
    }

    /// A deterministic RNG private to `(cell seed, salt)`.
    fn rng(&self, salt: u64) -> StdRng {
        seeded(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The cell's offline baseline: the runner-precomputed bound if one
    /// was handed in, otherwise `fallback` computed inline.
    fn resolve_oracle(
        &self,
        fallback: impl FnOnce() -> Result<OracleBound, SimError>,
    ) -> Result<OracleBound, SimError> {
        match self.oracle {
            Some(bound) => Ok(bound),
            None => fallback(),
        }
    }
}

/// The result of one cell: the driver's [`Report`] plus the ratio and
/// concurrency metadata SimLab layers on top.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Cost/optimum/decision summary of the run.
    pub report: Report,
    /// Whether [`Report::optimum_cost`] is the exact offline optimum
    /// (`true`) or a certified lower bound (`false`, the ratio
    /// over-estimates — the safe direction).
    pub oracle_exact: bool,
    /// Peak number of concurrently covered elements over the trace
    /// horizon.
    pub active_peak: usize,
    /// Mean number of concurrently covered elements over the horizon.
    pub active_mean: f64,
}

impl CellOutcome {
    /// The empirical competitive ratio of the run.
    pub fn ratio(&self) -> f64 {
        self.report.ratio()
    }
}

/// The shared run interface every registered algorithm implements. The
/// closure sits behind an `Arc` so a watchdog can move a cheap handle onto
/// a worker thread and abandon it when the cell exceeds its wall-clock
/// budget (see `runner::run_matrix`).
pub type RunFn =
    std::sync::Arc<dyn Fn(&Trace, &RunContext) -> Result<CellOutcome, SimError> + Send + Sync>;

/// A shareable offline-baseline computation: maps the cell's trace to the
/// family's instance and asks the family oracle for its optimum.
pub type OracleFn =
    std::sync::Arc<dyn Fn(&Trace, &RunContext) -> Result<OracleBound, SimError> + Send + Sync>;

/// One registry entry: a named algorithm with its problem family.
pub struct AlgorithmSpec {
    /// CLI/report name, e.g. `"permit-det"`.
    pub name: &'static str,
    /// Problem family label, e.g. `"parking-permit"`.
    pub family: &'static str,
    /// The paper's guarantee for this algorithm, as a report annotation
    /// (`None` = no worst-case bound, e.g. heuristics and stochastic
    /// policies).
    pub theory: Option<&'static str>,
    run: RunFn,
    /// Shared offline baseline: `(sharing key, computation)`. Entries with
    /// the same key on the same `(workload, seed)` cell get one oracle
    /// evaluation between them. `None` = the baseline only exists inside
    /// the run (e.g. the vertex-cover dual value).
    oracle: Option<(&'static str, OracleFn)>,
}

impl AlgorithmSpec {
    /// Runs the algorithm on one cell.
    ///
    /// # Errors
    ///
    /// Returns the [`SimError`] of whichever stage failed.
    pub fn run(&self, trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
        (self.run)(trace, ctx)
    }

    /// A cheap shareable handle on the run closure (for budgeted workers).
    pub fn runner(&self) -> RunFn {
        std::sync::Arc::clone(&self.run)
    }

    /// The oracle-sharing key, when the entry has a precomputable offline
    /// baseline.
    pub fn oracle_key(&self) -> Option<&'static str> {
        self.oracle.as_ref().map(|(key, _)| *key)
    }

    /// A shareable handle on the oracle computation, if any.
    pub fn oracle_fn(&self) -> Option<OracleFn> {
        self.oracle.as_ref().map(|(_, f)| std::sync::Arc::clone(f))
    }

    /// A custom registry entry — callers can extend a matrix with their own
    /// algorithms (or instrumented stand-ins in tests). No shared oracle,
    /// no theory annotation.
    pub fn custom(name: &'static str, family: &'static str, run: RunFn) -> Self {
        AlgorithmSpec {
            name,
            family,
            theory: None,
            run,
            oracle: None,
        }
    }
}

impl std::fmt::Debug for AlgorithmSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgorithmSpec")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("theory", &self.theory)
            .field("oracle_key", &self.oracle_key())
            .finish_non_exhaustive()
    }
}

/// Horizon at or beyond which [`RunContext::compact_every`] engages —
/// shorter cells gain nothing from pruning their coverage index.
pub const COMPACT_MIN_HORIZON: TimeStep = 8192;

/// Floor (beyond `l_max`) on how far behind the clock periodic
/// compaction prunes, whatever period the user asked for. Registry
/// algorithms backdate purchases at most `l_max − 1` steps and query
/// deadline windows reaching at most a few steps behind their arrival,
/// so a lag of `l_max + 64` guarantees compaction can never change a
/// cell outcome — small `--compact-every` values compact *often* but
/// never *closer* than this.
const COMPACT_SAFE_LOOKBEHIND: u64 = 64;

/// Incremental peak/mean sampler of [`Ledger::active_count`] over the
/// horizon. Without compaction everything is sampled once at the end of
/// the run — bit-identical to the old post-run sweep. With periodic
/// compaction, the history about to be pruned is sampled *just before*
/// each [`Ledger::compact`] call; the compaction lag guarantees no later
/// purchase can retro-cover an already-sampled step, so the two sampling
/// schedules agree.
struct ActiveSampler {
    horizon: TimeStep,
    next: TimeStep,
    peak: usize,
    sum: usize,
}

impl ActiveSampler {
    fn new(horizon: TimeStep) -> Self {
        ActiveSampler {
            horizon,
            next: 0,
            peak: 0,
            sum: 0,
        }
    }

    fn sample_up_to(&mut self, until: TimeStep, ledger: &Ledger) {
        let until = until.min(self.horizon);
        while self.next < until {
            let count = ledger.active_count(self.next);
            self.peak = self.peak.max(count);
            self.sum += count;
            self.next += 1;
        }
    }

    fn finish(mut self, ledger: &Ledger) -> (usize, f64) {
        self.sample_up_to(self.horizon, ledger);
        if self.horizon == 0 {
            (0, 0.0)
        } else {
            (self.peak, self.sum as f64 / self.horizon as f64)
        }
    }
}

/// Submits `(time, request)` pairs and reports against the offline
/// baseline `opt`, sampling concurrency over `horizon`.
///
/// The driver runs on a recycled per-worker ledger
/// ([`crate::arena`]), so steady-state cells record purchases without
/// touching the allocator; with [`RunContext::compact_every`] set and a
/// long enough horizon, the coverage index is additionally pruned every
/// period so unbounded streams cannot grow it without bound.
fn drive<A: LeasingAlgorithm>(
    algorithm: A,
    ctx: &RunContext,
    requests: impl IntoIterator<Item = (TimeStep, A::Request)>,
    opt: OracleBound,
    horizon: TimeStep,
) -> Result<CellOutcome, SimError> {
    let mut engine = crate::arena::take_handle(algorithm, &ctx.structure);
    // Unconditional: arena ledgers keep their retention across recycling,
    // so every cell pins its own mode rather than inheriting the last one.
    engine.set_retention(ctx.retention);
    let mut sampler = ActiveSampler::new(horizon);
    match ctx
        .compact_every
        .filter(|_| horizon >= COMPACT_MIN_HORIZON)
        .map(|every| every.max(1))
    {
        None => engine.submit_batch(requests)?,
        Some(every) => {
            // The period controls how often compaction runs; the lag —
            // how far behind the clock it prunes — is floored at
            // `l_max + COMPACT_SAFE_LOOKBEHIND` so algorithms (and the
            // sampler) can always look far enough behind the clock,
            // keeping outcomes unchanged for *every* period value.
            let lag = every.max(ctx.structure.l_max() + COMPACT_SAFE_LOOKBEHIND);
            let mut next_compact = every;
            for (t, request) in requests {
                if t >= next_compact {
                    // Sample the history below the pruning horizon
                    // before it goes away.
                    let before = t.saturating_sub(lag);
                    sampler.sample_up_to(before, engine.ledger());
                    engine.compact(before);
                    next_compact = t + every;
                }
                engine.submit(t, request)?;
            }
        }
    }
    let (active_peak, active_mean) = sampler.finish(engine.ledger());
    let outcome = CellOutcome {
        report: engine.report(opt.value()),
        oracle_exact: opt.is_exact(),
        active_peak,
        active_mean,
    };
    crate::arena::recycle_handle(engine);
    finite(outcome)
}

/// Checks the outcome's ratio is finite before accepting the cell.
fn finite(outcome: CellOutcome) -> Result<CellOutcome, SimError> {
    if outcome.ratio().is_finite() {
        Ok(outcome)
    } else {
        Err(SimError::UnboundedRatio)
    }
}

// --- per-family oracles and trace mappings -------------------------------

/// The permit-family baseline: the exact interval-model DP on the trace's
/// distinct demand days.
fn permit_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(PermitDpOracle::new(ctx.structure.clone()).optimum(&trace.days())?)
}

/// Parking-permit-family cells run on the distinct demand days against the
/// exact interval-model DP.
fn permit_cell<A: LeasingAlgorithm<Request = ()>>(
    algorithm: A,
    trace: &Trace,
    ctx: &RunContext,
) -> Result<CellOutcome, SimError> {
    let opt = ctx.resolve_oracle(|| permit_oracle(trace, ctx))?;
    let days = trace.days();
    drive(
        algorithm,
        ctx,
        days.iter().map(|&t| (t, ())),
        opt,
        trace.horizon,
    )
}

/// The set system shared by the covering-family mappings (elements of the
/// trace universe, `m = max(2, n/2)` sets, membership degree ≤ 3).
fn covering_system(
    trace: &Trace,
    ctx: &RunContext,
    salt: u64,
) -> set_cover_leasing::system::SetSystem {
    let n = trace.num_elements.max(2);
    random_system(&mut ctx.rng(salt), n, (n / 2).max(2), 3)
}

/// The set-cover instance of a cell, deterministic in `(trace, seed)` —
/// built identically by the cell run and the shared oracle.
fn set_cover_instance(trace: &Trace, ctx: &RunContext) -> Result<SmclInstance, SimError> {
    let system = covering_system(trace, ctx, 0x5e7c);
    let n = system.num_elements();
    let arrivals: Vec<Arrival> = trace
        .events
        .iter()
        .map(|ev| {
            let e = ev.element % n;
            let p = ev.weight.clamp(1, system.sets_containing(e).len().max(1));
            Arrival::new(ev.time, e, p)
        })
        .collect();
    SmclInstance::uniform(system, ctx.structure.clone(), arrivals).map_err(instance_err)
}

/// The covering baseline: the one-shot LP lower bound (fastest for a
/// single final bound; `SetCoverLpOracle::incremental()` is the
/// warm-started per-prefix variant).
fn set_cover_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(SetCoverLpOracle::new().optimum(&set_cover_instance(trace, ctx)?)?)
}

fn set_cover_cell(trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
    let inst = set_cover_instance(trace, ctx)?;
    let opt = ctx.resolve_oracle(|| Ok(SetCoverLpOracle::new().optimum(&inst)?))?;
    let alg_seed = ctx.rng(0x5e7d).random::<u64>();
    drive(
        SmclOnline::new(&inst, alg_seed),
        ctx,
        inst.requests(),
        opt,
        trace.horizon,
    )
}

fn vertex_cover_cell(trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
    // A ring with chords: connected, δ = 2 per edge, deterministic shape
    // with seeded weights-free topology.
    let n = trace.num_elements.max(4);
    let mut edges: Vec<(usize, usize, f64)> = (0..n).map(|v| (v, (v + 1) % n, 1.0)).collect();
    for v in 0..n / 2 {
        edges.push((v, (v + n / 2) % n, 1.0));
    }
    let g = Graph::new(n, edges).map_err(instance_err)?;
    let num_edges = g.num_edges();
    let arrivals: Vec<(TimeStep, usize)> = trace
        .events
        .iter()
        .map(|ev| (ev.time, ev.element % num_edges))
        .collect();
    let inst =
        VcLeasingInstance::unweighted(g, ctx.structure.clone(), arrivals).map_err(instance_err)?;
    let mut alg = VcPrimalDual::new(&inst);
    let mut engine = crate::arena::take_handle(&mut alg, &ctx.structure);
    engine.submit_batch(inst.requests())?;
    let requests = engine.requests();
    let (active_peak, active_mean) = ActiveSampler::new(trace.horizon).finish(engine.ledger());
    let ledger = engine.into_ledger();
    // Weak duality: the primal-dual's dual value certifies the lower
    // bound. It only exists after the run (released by tearing the handle
    // down above), so this family has no shared oracle.
    let opt = OracleBound::LowerBound(alg.dual_value());
    let outcome = CellOutcome {
        report: Report {
            algorithm_cost: ledger.total_cost(),
            optimum_cost: opt.value(),
            requests,
            decisions: ledger.decision_count(),
            leases_bought: ledger.leases_bought(),
            cost_by_category: ledger
                .cost_breakdown()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        },
        oracle_exact: opt.is_exact(),
        active_peak,
        active_mean,
    };
    crate::arena::recycle_ledger(ledger);
    finite(outcome)
}

/// Facility-family base instance: 3 facility sites, one client batch per
/// demand day, clients placed near the element's facility.
fn facility_instance(trace: &Trace, ctx: &RunContext) -> Result<FacilityInstance, SimError> {
    let mut rng = ctx.rng(0xfac1);
    let m = 3usize;
    let side = 10.0;
    let facilities: Vec<Point> = (0..m)
        .map(|_| Point::new(rng.random::<f64>() * side, rng.random::<f64>() * side))
        .collect();
    let mut batches: Vec<(TimeStep, Vec<Point>)> = Vec::new();
    for ev in &trace.events {
        let site = facilities[ev.element % m];
        let mut jitter = || (rng.random::<f64>() - 0.5) * 1.0;
        let p = Point::new(site.x + jitter(), site.y + jitter());
        match batches.last_mut() {
            Some((t, clients)) if *t == ev.time => clients.push(p),
            _ => batches.push((ev.time, vec![p])),
        }
    }
    FacilityInstance::euclidean(facilities, ctx.structure.clone(), batches).map_err(instance_err)
}

/// The facility baseline: the Figure 4.1 LP relaxation.
fn facility_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(FacilityLpOracle.optimum(&facility_instance(trace, ctx)?)?)
}

fn facility_cell<'a, A, F>(
    make: F,
    trace: &Trace,
    ctx: &RunContext,
    inst: &'a FacilityInstance,
) -> Result<CellOutcome, SimError>
where
    A: LeasingAlgorithm<Request = Vec<usize>> + 'a,
    F: FnOnce(&'a FacilityInstance) -> A,
{
    let opt = ctx.resolve_oracle(|| Ok(FacilityLpOracle.optimum(inst)?))?;
    drive(make(inst), ctx, inst.requests(), opt, trace.horizon)
}

fn capacitated_instance(trace: &Trace, ctx: &RunContext) -> Result<CapacitatedInstance, SimError> {
    let base = facility_instance(trace, ctx)?;
    CapacitatedInstance::uniform(base, 2).map_err(instance_err)
}

fn capacitated_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(CapacitatedLpOracle.optimum(&capacitated_instance(trace, ctx)?)?)
}

fn capacitated_cell(trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
    let inst = capacitated_instance(trace, ctx)?;
    let opt = ctx.resolve_oracle(|| Ok(CapacitatedLpOracle.optimum(&inst)?))?;
    drive(
        CapacitatedGreedy::new(&inst, LeaseChoice::CheapestTotal),
        ctx,
        inst.base.requests(),
        opt,
        trace.horizon,
    )
}

fn steiner_instance(trace: &Trace, ctx: &RunContext) -> Result<SteinerInstance, SimError> {
    // A fixed 5-node diamond-with-chord topology; edge weights seeded.
    let mut rng = ctx.rng(0x57e1);
    let mut w = || 1.0 + rng.random::<f64>() * 2.0;
    let g = Graph::new(
        5,
        vec![
            (0, 1, w()),
            (1, 2, w()),
            (2, 3, w()),
            (3, 4, w()),
            (4, 0, w()),
            (1, 3, w()),
        ],
    )
    .map_err(instance_err)?;
    let n = g.num_nodes();
    let requests: Vec<PairRequest> = trace
        .days()
        .into_iter()
        .map(|t| {
            let u = ((t as usize).wrapping_mul(7) + 1) % n;
            let span = 1 + (t as usize % (n - 1));
            PairRequest::new(t, u, (u + span) % n)
        })
        .collect();
    SteinerInstance::new(g, ctx.structure.clone(), requests).map_err(instance_err)
}

fn steiner_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(SteinerLpOracle::default().optimum(&steiner_instance(trace, ctx)?)?)
}

fn steiner_cell(trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
    let inst = steiner_instance(trace, ctx)?;
    let opt = ctx.resolve_oracle(|| Ok(SteinerLpOracle::default().optimum(&inst)?))?;
    drive(
        SteinerLeasingOnline::new(&inst),
        ctx,
        inst.requests(),
        opt,
        trace.horizon,
    )
}

fn old_instance(trace: &Trace, ctx: &RunContext) -> Result<OldInstance, SimError> {
    let mut rng = ctx.rng(0x01d0);
    let clients: Vec<OldClient> = trace
        .days()
        .into_iter()
        .map(|t| OldClient::new(t, rng.random_range(0..=8u64)))
        .collect();
    OldInstance::new(ctx.structure.clone(), clients).map_err(instance_err)
}

fn old_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(OldLpOracle.optimum(&old_instance(trace, ctx)?)?)
}

fn old_cell(trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
    let inst = old_instance(trace, ctx)?;
    let opt = ctx.resolve_oracle(|| Ok(OldLpOracle.optimum(&inst)?))?;
    drive(
        OldPrimalDual::new(&inst),
        ctx,
        inst.requests(),
        opt,
        trace.horizon,
    )
}

fn scld_instance(trace: &Trace, ctx: &RunContext) -> Result<ScldInstance, SimError> {
    let system = covering_system(trace, ctx, 0x5c1d);
    let n = system.num_elements();
    let mut rng = ctx.rng(0x5c1e);
    let arrivals: Vec<ScldArrival> = trace
        .events
        .iter()
        .map(|ev| ScldArrival::new(ev.time, ev.element % n, rng.random_range(0..=6u64)))
        .collect();
    ScldInstance::uniform(system, ctx.structure.clone(), arrivals).map_err(instance_err)
}

fn scld_oracle(trace: &Trace, ctx: &RunContext) -> Result<OracleBound, SimError> {
    Ok(ScldLpOracle.optimum(&scld_instance(trace, ctx)?)?)
}

fn scld_cell(trace: &Trace, ctx: &RunContext) -> Result<CellOutcome, SimError> {
    let inst = scld_instance(trace, ctx)?;
    let opt = ctx.resolve_oracle(|| Ok(ScldLpOracle.optimum(&inst)?))?;
    let alg_seed = ctx.rng(0x5c1f).random::<u64>();
    drive(
        ScldOnline::new(&inst, alg_seed),
        ctx,
        inst.requests(),
        opt,
        trace.horizon,
    )
}

fn oracle(key: &'static str, f: OracleFn) -> Option<(&'static str, OracleFn)> {
    Some((key, f))
}

/// The standard registry: every problem crate's online algorithm behind
/// the boxed-run interface, with its family oracle and the paper's
/// guarantee label.
pub fn standard_registry() -> Vec<AlgorithmSpec> {
    vec![
        AlgorithmSpec {
            name: "permit-det",
            family: "parking-permit",
            theory: Some("O(K)"),
            run: std::sync::Arc::new(|trace, ctx| {
                permit_cell(
                    DeterministicPrimalDual::new(ctx.structure.clone()),
                    trace,
                    ctx,
                )
            }),
            oracle: oracle("permit-dp", std::sync::Arc::new(permit_oracle)),
        },
        AlgorithmSpec {
            name: "permit-rand",
            family: "parking-permit",
            theory: Some("O(log K)"),
            run: std::sync::Arc::new(|trace, ctx| {
                let mut rng = ctx.rng(0x9a4d);
                permit_cell(
                    RandomizedPermit::new(ctx.structure.clone(), &mut rng),
                    trace,
                    ctx,
                )
            }),
            oracle: oracle("permit-dp", std::sync::Arc::new(permit_oracle)),
        },
        AlgorithmSpec {
            name: "rate-threshold",
            family: "stochastic",
            theory: None,
            run: std::sync::Arc::new(|trace, ctx| {
                // The informed policy gets the trace's true empirical rate.
                let rate = trace.days().len() as f64 / trace.horizon.max(1) as f64;
                permit_cell(
                    RateThreshold::new(ctx.structure.clone(), rate.clamp(0.0, 1.0)),
                    trace,
                    ctx,
                )
            }),
            oracle: oracle("permit-dp", std::sync::Arc::new(permit_oracle)),
        },
        AlgorithmSpec {
            name: "empirical-rate",
            family: "stochastic",
            theory: None,
            run: std::sync::Arc::new(|trace, ctx| {
                permit_cell(EmpiricalRate::new(ctx.structure.clone()), trace, ctx)
            }),
            oracle: oracle("permit-dp", std::sync::Arc::new(permit_oracle)),
        },
        AlgorithmSpec {
            name: "set-cover",
            family: "set-cover",
            theory: Some("O(log(δK)·log n)"),
            run: std::sync::Arc::new(set_cover_cell),
            oracle: oracle("setcover-lp", std::sync::Arc::new(set_cover_oracle)),
        },
        AlgorithmSpec {
            name: "vertex-cover",
            family: "graph-cover",
            theory: Some("2K"),
            run: std::sync::Arc::new(vertex_cover_cell),
            oracle: None,
        },
        AlgorithmSpec {
            name: "facility-pd",
            family: "facility",
            theory: Some("O(K·H(l_max))"),
            run: std::sync::Arc::new(|trace, ctx| {
                let inst = facility_instance(trace, ctx)?;
                facility_cell(PrimalDualFacility::new, trace, ctx, &inst)
            }),
            oracle: oracle("facility-lp", std::sync::Arc::new(facility_oracle)),
        },
        AlgorithmSpec {
            name: "facility-nw",
            family: "facility",
            theory: Some("O(K·log n)"),
            run: std::sync::Arc::new(|trace, ctx| {
                let inst = facility_instance(trace, ctx)?;
                facility_cell(NagarajanWilliamson::new, trace, ctx, &inst)
            }),
            oracle: oracle("facility-lp", std::sync::Arc::new(facility_oracle)),
        },
        AlgorithmSpec {
            name: "facility-rand",
            family: "facility",
            theory: None,
            run: std::sync::Arc::new(|trace, ctx| {
                let inst = facility_instance(trace, ctx)?;
                let mut rng = ctx.rng(0xfa2d);
                facility_cell(
                    move |i: &FacilityInstance| RandomizedFacility::new(i, &mut rng),
                    trace,
                    ctx,
                    &inst,
                )
            }),
            oracle: oracle("facility-lp", std::sync::Arc::new(facility_oracle)),
        },
        AlgorithmSpec {
            name: "capacitated",
            family: "capacitated",
            theory: None,
            run: std::sync::Arc::new(capacitated_cell),
            oracle: oracle("capacitated-lp", std::sync::Arc::new(capacitated_oracle)),
        },
        AlgorithmSpec {
            name: "steiner",
            family: "steiner",
            theory: Some("O(K·log n)"),
            run: std::sync::Arc::new(steiner_cell),
            oracle: oracle("steiner-lp", std::sync::Arc::new(steiner_oracle)),
        },
        AlgorithmSpec {
            name: "old",
            family: "deadlines",
            theory: Some("Θ(K + d_max/l_min)"),
            run: std::sync::Arc::new(old_cell),
            oracle: oracle("old-lp", std::sync::Arc::new(old_oracle)),
        },
        AlgorithmSpec {
            name: "scld",
            family: "deadlines",
            theory: Some("O(log(m(K + d_max/l_min))·log l_max)"),
            run: std::sync::Arc::new(scld_cell),
            oracle: oracle("scld-lp", std::sync::Arc::new(scld_oracle)),
        },
    ]
}

/// Looks up registry entries by comma-separated names (`"all"` selects the
/// whole registry).
///
/// # Errors
///
/// Returns [`SimError::UnknownAlgorithm`] for an unrecognized name.
pub fn select_algorithms(names: &str) -> Result<Vec<AlgorithmSpec>, SimError> {
    let mut registry = standard_registry();
    if names == "all" {
        return Ok(registry);
    }
    let mut picked = Vec::new();
    for name in names.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let idx = registry
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| SimError::UnknownAlgorithm(name.to_string()))?;
        picked.push(registry.swap_remove(idx));
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![
            LeaseType::new(1, 1.0),
            LeaseType::new(4, 2.5),
            LeaseType::new(16, 6.0),
        ])
        .unwrap()
    }

    #[test]
    fn every_registered_algorithm_completes_every_preset() {
        let ctx = RunContext::new(structure(), 42);
        for scenario in Scenario::presets() {
            let trace = scenario.generate(48, 4, ctx.seed).unwrap();
            for alg in standard_registry() {
                let outcome = alg
                    .run(&trace, &ctx)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", alg.name, scenario.name));
                assert!(
                    outcome.ratio() >= 1.0 - 1e-6,
                    "{} on {}: ratio {} below 1 (optimum not a lower bound?)",
                    alg.name,
                    scenario.name,
                    outcome.ratio()
                );
                assert!(outcome.ratio().is_finite());
                assert!(
                    outcome.active_peak as f64 >= outcome.active_mean,
                    "{} on {}",
                    alg.name,
                    scenario.name
                );
                if trace.is_empty() {
                    assert_eq!(outcome.active_peak, 0);
                }
            }
        }
    }

    #[test]
    fn precomputed_oracles_match_inline_computation() {
        // The sharing contract: running a cell with the runner-precomputed
        // bound must be bit-identical to computing it inline.
        let ctx = RunContext::new(structure(), 17);
        let trace = Scenario::presets()[0].generate(48, 4, 17).unwrap();
        for alg in standard_registry() {
            let Some(oracle_fn) = alg.oracle_fn() else {
                continue;
            };
            let bound = oracle_fn(&trace, &ctx).unwrap();
            let inline = alg.run(&trace, &ctx).unwrap();
            let shared_ctx = RunContext {
                oracle: Some(bound),
                ..ctx.clone()
            };
            let shared = alg.run(&trace, &shared_ctx).unwrap();
            assert_eq!(
                inline.report.optimum_cost.to_bits(),
                shared.report.optimum_cost.to_bits(),
                "{}",
                alg.name
            );
            assert_eq!(inline, shared, "{}", alg.name);
            assert_eq!(bound.value(), inline.report.optimum_cost, "{}", alg.name);
        }
    }

    #[test]
    fn permit_family_shares_one_oracle_key() {
        let keys: Vec<Option<&str>> = ["permit-det", "permit-rand", "rate-threshold"]
            .iter()
            .map(|n| select_algorithms(n).unwrap().remove(0).oracle_key())
            .collect();
        assert!(keys.iter().all(|k| *k == Some("permit-dp")));
        // The permit DP is exact, so permit cells report exact oracles.
        let ctx = RunContext::new(structure(), 3);
        let trace = Scenario::presets()[0].generate(32, 4, 3).unwrap();
        let outcome = select_algorithms("permit-det")
            .unwrap()
            .remove(0)
            .run(&trace, &ctx)
            .unwrap();
        assert!(outcome.oracle_exact, "interval DP is exact");
        // The vertex-cover dual bound is not precomputable.
        assert_eq!(
            select_algorithms("vertex-cover").unwrap()[0].oracle_key(),
            None
        );
    }

    #[test]
    fn long_horizon_cells_complete_on_the_coverage_index() {
        // Pre-index, a 8192-step permit cell spent its time scanning the
        // decision trace per request; the ledger's coverage index makes
        // long-horizon presets practical for the matrix.
        let ctx = RunContext::new(structure(), 9);
        let trace = Scenario::presets()[0].generate(8192, 4, 9).unwrap();
        let started = std::time::Instant::now();
        for name in [
            "permit-det",
            "permit-rand",
            "rate-threshold",
            "empirical-rate",
        ] {
            let alg = select_algorithms(name).unwrap().remove(0);
            let outcome = alg.run(&trace, &ctx).unwrap();
            assert!(outcome.report.requests > 0, "{name}");
            assert!(
                outcome.ratio().is_finite() && outcome.ratio() >= 1.0 - 1e-6,
                "{name}"
            );
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "long-horizon cells must stay fast"
        );
    }

    #[test]
    fn cells_are_deterministic_given_the_seed() {
        let ctx = RunContext::new(structure(), 7);
        let trace = Scenario::presets()[0].generate(64, 4, 7).unwrap();
        for alg in standard_registry() {
            let a = alg.run(&trace, &ctx).unwrap();
            let b = alg.run(&trace, &ctx).unwrap();
            assert_eq!(
                a.report.algorithm_cost.to_bits(),
                b.report.algorithm_cost.to_bits(),
                "{} must be bit-deterministic",
                alg.name
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn selection_resolves_names_and_rejects_unknowns() {
        let picked = select_algorithms("permit-det, steiner").unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[1].name, "steiner");
        assert_eq!(
            select_algorithms("all").unwrap().len(),
            standard_registry().len()
        );
        assert!(matches!(
            select_algorithms("bogus"),
            Err(SimError::UnknownAlgorithm(_))
        ));
    }

    #[test]
    fn empty_traces_yield_ratio_one_everywhere() {
        let ctx = RunContext::new(structure(), 3);
        let trace = Trace {
            events: Vec::new(),
            horizon: 32,
            num_elements: 4,
        };
        for alg in standard_registry() {
            let outcome = alg.run(&trace, &ctx).unwrap();
            assert_eq!(outcome.report.algorithm_cost, 0.0, "{}", alg.name);
            assert!((outcome.ratio() - 1.0).abs() < 1e-12, "{}", alg.name);
            assert_eq!(outcome.active_peak, 0, "{}", alg.name);
            assert_eq!(outcome.active_mean, 0.0, "{}", alg.name);
        }
    }
}
