//! The primal-dual online facility-leasing algorithm (thesis §4.3).
//!
//! Per time step with newly arrived clients the algorithm runs a
//! Jain–Vazirani-style process **per lease type**:
//!
//! * **Phase 1** — every client seen so far holds one potential `α_{jk}` per
//!   lease type, all rising at unit rate from zero; old clients are capped
//!   at their frozen `α̂_j` (INV2). A facility `(i,k)` opens *temporarily*
//!   when its bids `Σ_j (α_{jk} − d_{ij})⁺` reach its lease price `c_{ik}`
//!   (INV1); a potential stops when it reaches an open facility, and a new
//!   client then fixes `α̂_j` and tentatively connects.
//! * **Phase 2** — per lease type a conflict graph on the open facilities
//!   (edge when a common client over-pays both) is pruned to a maximal
//!   independent set that always retains the permanently open facilities;
//!   new clients whose tentative facility was pruned reconnect to the
//!   conflicting MIS neighbour (costing at most `3 α̂_j` by the triangle
//!   inequality, Proposition 4.2).
//!
//! Competitive ratio: `4(3 + K) · H_{l_max}` (Theorem 4.5).

use crate::instance::FacilityInstance;
use leasing_core::engine::{Books, LeasingAlgorithm, CATEGORY_CONNECTION, CATEGORY_LEASE};
use leasing_core::framework::Triple;
use leasing_core::interval::aligned_start;
use leasing_core::time::TimeStep;
use std::collections::HashSet;

const TIGHT_EPS: f64 = 1e-9;

/// The state of the §4.3 online algorithm.
///
/// Which leases are permanently open is read from the ledger's coverage
/// index ([`Ledger::owns`]).
///
/// [`Ledger::owns`]: leasing_core::engine::Ledger::owns
#[derive(Debug)]
pub struct PrimalDualFacility<'a> {
    instance: &'a FacilityInstance,
    /// `α̂_j` per client (fixed in the round of its arrival).
    alpha_hat: Vec<f64>,
    /// Final `(facility, lease type)` per client.
    assignments: Vec<Option<(usize, usize)>>,
    /// Global ids of all clients that have arrived so far.
    arrived: Vec<usize>,
}

impl<'a> PrimalDualFacility<'a> {
    /// Creates the algorithm for `instance`.
    pub fn new(instance: &'a FacilityInstance) -> Self {
        PrimalDualFacility {
            instance,
            alpha_hat: vec![0.0; instance.num_clients()],
            assignments: vec![None; instance.num_clients()],
            arrived: Vec::new(),
        }
    }

    /// The dual values `α̂_j` of all clients processed so far.
    pub fn alpha_hat(&self) -> &[f64] {
        &self.alpha_hat
    }

    /// Final `(facility, lease type)` assignment per connected client.
    pub fn assignments(&self) -> Vec<(usize, usize, usize)> {
        self.assignments
            .iter()
            .enumerate()
            .filter_map(|(j, a)| a.map(|(i, k)| (j, i, k)))
            .collect()
    }

    fn process_round(&mut self, time: TimeStep, new_clients: &[usize], books: &mut Books<'_>) {
        let inst = self.instance;
        let m = inst.num_facilities();
        let kk = inst.structure().num_types();
        let clients = &self.arrived;
        let nc = clients.len();
        if nc == 0 {
            return;
        }

        // Current aligned lease start per type.
        let starts: Vec<TimeStep> = (0..kk)
            .map(|k| aligned_start(time, inst.structure().length(k)))
            .collect();

        // Facility state per (i, k).
        let mut perm = vec![vec![false; kk]; m];
        let mut temp = vec![vec![false; kk]; m];
        let mut opening_time = vec![vec![0.0f64; kk]; m];
        let mut contribution = vec![vec![0.0f64; kk]; m];
        for (i, row) in perm.iter_mut().enumerate() {
            for (k, p) in row.iter_mut().enumerate() {
                *p = books.owns(Triple::new(i, k, starts[k]));
            }
        }

        let is_new: Vec<bool> = clients.iter().map(|&j| new_clients.contains(&j)).collect();
        // Per (client slot, k): final potential value (None while rising).
        let mut stopped: Vec<Vec<Option<f64>>> = vec![vec![None; kk]; nc];
        // Cap per client slot: old clients capped at α̂; new clients capped
        // once connected.
        let mut cap: Vec<Option<f64>> = clients
            .iter()
            .zip(&is_new)
            .map(|(&j, &new)| if new { None } else { Some(self.alpha_hat[j]) })
            .collect();
        // Tentative (facility, type) per new client slot.
        let mut pref: Vec<Option<(usize, usize)>> = vec![None; nc];

        let dist = |i: usize, c: usize| inst.distance(i, clients[c]);

        let mut tau = 0.0f64;

        // Settle loop: open tight facilities and stop satisfied potentials
        // until stable at the current τ.
        let settle = |tau: f64,
                      temp: &mut Vec<Vec<bool>>,
                      opening_time: &mut Vec<Vec<f64>>,
                      contribution: &Vec<Vec<f64>>,
                      stopped: &mut Vec<Vec<Option<f64>>>,
                      cap: &mut Vec<Option<f64>>,
                      pref: &mut Vec<Option<(usize, usize)>>,
                      perm: &Vec<Vec<bool>>,
                      is_new: &Vec<bool>| {
            loop {
                let mut changed = false;
                // 1. Temporarily open facilities whose constraint is tight.
                for i in 0..m {
                    for k in 0..kk {
                        if !perm[i][k]
                            && !temp[i][k]
                            && contribution[i][k] >= inst.cost(i, k) - TIGHT_EPS
                        {
                            temp[i][k] = true;
                            opening_time[i][k] = tau;
                            changed = true;
                        }
                    }
                }
                // 2. Stop potentials that reached their cap or an open
                //    facility.
                for c in 0..nc {
                    for k in 0..kk {
                        if stopped[c][k].is_some() {
                            continue;
                        }
                        if let Some(limit) = cap[c] {
                            if tau >= limit - TIGHT_EPS {
                                stopped[c][k] = Some(limit);
                                changed = true;
                                continue;
                            }
                        }
                        // Nearest open facility of type k within reach.
                        let mut best: Option<(f64, usize)> = None;
                        for i in 0..m {
                            if (perm[i][k] || temp[i][k]) && dist(i, c) <= tau + TIGHT_EPS {
                                let d = dist(i, c);
                                if best.is_none_or(|(bd, _)| d < bd) {
                                    best = Some((d, i));
                                }
                            }
                        }
                        if let Some((_, i)) = best {
                            stopped[c][k] = Some(tau);
                            changed = true;
                            if is_new[c] && cap[c].is_none() {
                                cap[c] = Some(tau);
                                pref[c] = Some((i, k));
                            }
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        };

        settle(
            tau,
            &mut temp,
            &mut opening_time,
            &contribution,
            &mut stopped,
            &mut cap,
            &mut pref,
            &perm,
            &is_new,
        );

        // Event loop: advance τ to the next event until all potentials stop.
        loop {
            let any_active = (0..nc).any(|c| (0..kk).any(|k| stopped[c][k].is_none()));
            if !any_active {
                break;
            }
            let mut t_next = f64::INFINITY;
            // Cap events and distance crossings.
            for c in 0..nc {
                let slot_active = (0..kk).any(|k| stopped[c][k].is_none());
                if !slot_active {
                    continue;
                }
                if let Some(limit) = cap[c] {
                    if limit > tau + TIGHT_EPS {
                        t_next = t_next.min(limit);
                    }
                }
                for i in 0..m {
                    let d = dist(i, c);
                    if d > tau + TIGHT_EPS {
                        t_next = t_next.min(d);
                    }
                }
            }
            // Facility tightness events.
            for i in 0..m {
                for k in 0..kk {
                    if perm[i][k] || temp[i][k] {
                        continue;
                    }
                    let rate = (0..nc)
                        .filter(|&c| stopped[c][k].is_none() && dist(i, c) <= tau + TIGHT_EPS)
                        .count();
                    if rate > 0 {
                        let remaining = (inst.cost(i, k) - contribution[i][k]).max(0.0);
                        t_next = t_next.min(tau + remaining / rate as f64);
                    }
                }
            }
            debug_assert!(
                t_next.is_finite(),
                "active potentials must always have a next event"
            );
            // Advance contributions over (tau, t_next].
            let delta = (t_next - tau).max(0.0);
            if delta > 0.0 {
                for i in 0..m {
                    for k in 0..kk {
                        if perm[i][k] || temp[i][k] {
                            continue;
                        }
                        let rate = (0..nc)
                            .filter(|&c| stopped[c][k].is_none() && dist(i, c) <= tau + TIGHT_EPS)
                            .count();
                        if rate > 0 {
                            contribution[i][k] += delta * rate as f64;
                        }
                    }
                }
            }
            tau = t_next;
            settle(
                tau,
                &mut temp,
                &mut opening_time,
                &contribution,
                &mut stopped,
                &mut cap,
                &mut pref,
                &perm,
                &is_new,
            );
        }

        // Record duals for the new clients.
        for (c, &j) in clients.iter().enumerate() {
            if is_new[c] {
                self.alpha_hat[j] = cap[c].expect("new clients connect during phase 1");
            }
        }

        // ----- Phase 2: per-type conflict graphs and MIS pruning. -----
        for k in 0..kk {
            let open_facilities: Vec<usize> =
                (0..m).filter(|&i| perm[i][k] || temp[i][k]).collect();
            if open_facilities.is_empty() {
                continue;
            }
            // α values of this round for type k.
            let alpha = |c: usize| stopped[c][k].expect("all potentials stopped");
            let conflicts = |a: usize, b: usize| -> bool {
                (0..nc).any(|c| {
                    let bound = dist(a, c).max(dist(b, c));
                    alpha(c) > bound + TIGHT_EPS
                })
            };
            // Seed the MIS with permanently open facilities, then admit
            // temporarily open ones in opening-time order.
            let mut mis: Vec<usize> = open_facilities
                .iter()
                .copied()
                .filter(|&i| perm[i][k])
                .collect();
            let mut temps: Vec<usize> = open_facilities
                .iter()
                .copied()
                .filter(|&i| !perm[i][k])
                .collect();
            temps.sort_by(|&a, &b| {
                opening_time[a][k]
                    .partial_cmp(&opening_time[b][k])
                    .expect("finite opening times")
                    .then(a.cmp(&b))
            });
            for &i in &temps {
                if mis.iter().all(|&x| !conflicts(i, x)) {
                    mis.push(i);
                    // Permanently open: buy the lease (once).
                    let triple = Triple::new(i, k, starts[k]);
                    if !books.owns(triple) {
                        books.buy_priced(time, triple, inst.cost(i, k), CATEGORY_LEASE);
                    }
                }
            }
            // Connect new clients whose tentative facility has type k.
            for c in 0..nc {
                if !is_new[c] {
                    continue;
                }
                let Some((i, pk)) = pref[c] else { continue };
                if pk != k {
                    continue;
                }
                let j = clients[c];
                if mis.contains(&i) || perm[i][k] {
                    self.assignments[j] = Some((i, k));
                    books.charge(time, i, dist(i, c), CATEGORY_CONNECTION);
                } else {
                    // Reconnect to the cheapest conflicting MIS member.
                    let target =
                        mis.iter()
                            .copied()
                            .filter(|&x| conflicts(i, x))
                            .min_by(|&a, &b| {
                                dist(a, c)
                                    .partial_cmp(&dist(b, c))
                                    .expect("finite distances")
                            });
                    let target = target.unwrap_or_else(|| {
                        // Maximality guarantees a conflicting MIS member;
                        // fall back to the nearest MIS member if numeric
                        // slack hid the conflict.
                        mis.iter()
                            .copied()
                            .min_by(|&a, &b| {
                                dist(a, c)
                                    .partial_cmp(&dist(b, c))
                                    .expect("finite distances")
                            })
                            .expect("MIS of a non-empty open set is non-empty")
                    });
                    self.assignments[j] = Some((target, k));
                    books.charge(time, target, dist(target, c), CATEGORY_CONNECTION);
                }
            }
        }

        debug_assert!(
            new_clients.iter().all(|&j| self.assignments[j].is_some()),
            "every new client must leave the round connected"
        );
    }
}

impl<'a> LeasingAlgorithm for PrimalDualFacility<'a> {
    /// The batch of (globally numbered) clients arriving at a time step.
    type Request = Vec<usize>;

    fn on_request(&mut self, time: TimeStep, new_clients: Vec<usize>, mut books: Books<'_>) {
        self.arrived.extend(new_clients.iter().copied());
        self.process_round(time, &new_clients, &mut books);
    }
}

/// Checks the feasibility invariant: every client is assigned to a facility
/// whose lease was active at the client's arrival time.
///
/// `owns` answers ownership of a `(facility, type, start)` triple
/// (`|t| ledger.owns(t)` for an online run).
pub fn is_feasible(
    instance: &FacilityInstance,
    owns: impl Fn(Triple) -> bool,
    assignments: &[(usize, usize, usize)],
) -> bool {
    // client id -> arrival time
    let mut arrival = vec![None; instance.num_clients()];
    for b in instance.batches() {
        for &j in &b.clients {
            arrival[j] = Some(b.time);
        }
    }
    let assigned: HashSet<usize> = assignments.iter().map(|&(j, _, _)| j).collect();
    if instance
        .batches()
        .iter()
        .flat_map(|b| &b.clients)
        .any(|j| !assigned.contains(j))
    {
        return false;
    }
    assignments.iter().all(|&(j, i, k)| {
        let Some(t) = arrival[j] else { return false };
        let start = aligned_start(t, instance.structure().length(k));
        owns(Triple::new(i, k, start))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Point;
    use leasing_core::engine::{Driver, Ledger};
    use leasing_core::lease::{LeaseStructure, LeaseType};

    /// Serves every batch of `inst` and returns the algorithm with its
    /// ledger.
    fn run<'a>(inst: &'a FacilityInstance) -> (PrimalDualFacility<'a>, Ledger) {
        let mut driver = Driver::new(PrimalDualFacility::new(inst), inst.structure().clone());
        driver.submit_batch(inst.requests()).unwrap();
        driver.into_parts()
    }

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    fn simple_instance() -> FacilityInstance {
        FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0)]),
                (5, vec![Point::new(9.0, 0.0), Point::new(11.0, 0.0)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn all_clients_end_up_feasibly_connected() {
        let inst = simple_instance();
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        assert!(cost > 0.0);
        let assignments = alg.assignments();
        assert!(is_feasible(&inst, |t| ledger.owns(t), &assignments));
        // Withholding the leases behind the first assignment strands its
        // client.
        let (_, i, k) = assignments[0];
        let withheld = |t: Triple| !(t.element == i && t.type_index == k) && ledger.owns(t);
        assert!(!is_feasible(&inst, withheld, &assignments));
    }

    #[test]
    fn single_client_pays_lease_plus_distance() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(3.0, 0.0)])],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        // One facility, one client: the algorithm opens the facility with
        // the cheaper lease (cost 2) and connects over distance 3.
        assert!(
            (ledger.category_cost(CATEGORY_LEASE) - 2.0).abs() < 1e-6,
            "lease {}",
            ledger.category_cost(CATEGORY_LEASE)
        );
        assert!((ledger.category_cost(CATEGORY_CONNECTION) - 3.0).abs() < 1e-6);
        assert!((cost - 5.0).abs() < 1e-6);
        // α̂ = d + c (the client pays the whole opening bid).
        assert!((alg.alpha_hat()[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn nearby_clients_share_one_facility() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            lengths(),
            vec![(
                0,
                vec![
                    Point::new(0.5, 0.0),
                    Point::new(-0.5, 0.0),
                    Point::new(0.0, 0.5),
                ],
            )],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        let assignments = alg.assignments();
        assert!(
            assignments.iter().all(|&(_, i, _)| i == 0),
            "{assignments:?}"
        );
        // Exactly one lease of facility 0 is bought in this round.
        assert_eq!(ledger.leases_bought(), 1);
    }

    #[test]
    fn active_lease_is_reused_by_later_batches() {
        // Client at t=0 and another at t=1 in the same 4-step window: the
        // second must reuse the active lease (no second purchase for the
        // same facility/type).
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(0.1, 0.0)]),
                (1, vec![Point::new(0.2, 0.0)]),
            ],
        )
        .unwrap();
        let (alg, ledger) = run(&inst);
        assert_eq!(ledger.leases_bought(), 1, "second client reuses the lease");
        // The second client's dual is just its connection distance.
        assert!(alg.alpha_hat()[1] <= 0.2 + 1e-6);
    }

    #[test]
    fn expired_lease_forces_repurchase() {
        // Same site demands at t=0 and t=8: the cheap lease (length 4,
        // aligned windows [0,4) and [8,12)) expires in between.
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(0.0, 0.0)]),
                (8, vec![Point::new(0.0, 0.0)]),
            ],
        )
        .unwrap();
        let (_, ledger) = run(&inst);
        assert!(ledger.leases_bought() >= 2, "lease must be bought twice");
    }

    #[test]
    fn step_reports_exhaustion() {
        let inst = simple_instance();
        let mut driver = Driver::new(PrimalDualFacility::new(&inst), inst.structure().clone());
        let mut batches = inst.requests();
        for (time, clients) in batches.by_ref().take(2) {
            driver.submit(time, clients).unwrap();
        }
        assert_eq!(driver.requests(), 2);
        assert!(batches.next().is_none());
    }

    #[test]
    fn lemma_4_1_cost_bounded_by_3_plus_k_times_duals() {
        let inst = simple_instance();
        let (alg, ledger) = run(&inst);
        let cost = ledger.total_cost();
        let dual_sum: f64 = alg.alpha_hat().iter().sum();
        let k = inst.structure().num_types() as f64;
        assert!(
            cost <= (3.0 + k) * dual_sum + 1e-6,
            "cost {cost} vs (3+K)Σα̂ {}",
            (3.0 + k) * dual_sum
        );
    }

    #[test]
    fn two_distant_groups_open_two_facilities() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            lengths(),
            vec![(0, vec![Point::new(1.0, 0.0), Point::new(99.0, 0.0)])],
        )
        .unwrap();
        let (alg, _) = run(&inst);
        let facilities: HashSet<usize> = alg.assignments().iter().map(|&(_, i, _)| i).collect();
        assert_eq!(
            facilities.len(),
            2,
            "distant clients use their own facility"
        );
    }
}
