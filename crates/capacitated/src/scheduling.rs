//! The scheduling view of capacitated facility leasing (thesis §4.5).
//!
//! "In order to see this connection, let machines be the facilities and jobs
//! be the clients. A machine can only serve a limited number of jobs per
//! time step. Consequently, studying the leasing variant of FacilityLocation
//! would mean studying the scheduling problem in which machines are rented
//! rather than bought."
//!
//! This module provides that adapter: a machine-renting scheduling instance
//! converts into a [`CapacitatedInstance`] whose "distances" are the
//! job-machine affinity costs (e.g. data-transfer penalties), after which
//! all capacitated algorithms and the ILP apply unchanged.

use crate::instance::{CapacitatedError, CapacitatedInstance};
use facility_leasing::instance::{Batch, FacilityInstance};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use serde::{Deserialize, Serialize};

/// A machine that can be rented: per-type rental prices and a jobs-per-step
/// capacity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Rental price per lease type (`rental_costs[k]` pairs with the shared
    /// lease structure's type `k`).
    pub rental_costs: Vec<f64>,
    /// Jobs the machine can process per time step while rented.
    pub capacity: usize,
}

/// A batch of jobs released at one time step; `affinity[j][i]` is the cost
/// of placing job `j` of this batch on machine `i`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobBatch {
    /// Release time.
    pub time: TimeStep,
    /// Per-job, per-machine placement costs.
    pub affinity: Vec<Vec<f64>>,
}

/// Converts a machine-renting scheduling instance into a capacitated
/// facility-leasing instance (machines → facilities, jobs → clients,
/// affinities → connection costs).
///
/// # Errors
///
/// Returns a [`CapacitatedError`] if shapes are inconsistent (affinity rows
/// must have one entry per machine) or a batch exceeds total capacity.
pub fn to_capacitated(
    machines: &[Machine],
    structure: LeaseStructure,
    jobs: &[JobBatch],
) -> Result<CapacitatedInstance, CapacitatedError> {
    use facility_leasing::instance::FacilityInstanceError;
    let m = machines.len();
    let costs: Vec<Vec<f64>> = machines.iter().map(|mc| mc.rental_costs.clone()).collect();
    let mut batches = Vec::with_capacity(jobs.len());
    let mut num_jobs = 0usize;
    for jb in jobs {
        let start = num_jobs;
        num_jobs += jb.affinity.len();
        batches.push(Batch {
            time: jb.time,
            clients: (start..num_jobs).collect(),
        });
    }
    // dist[i][j] = affinity of global job j on machine i.
    let mut dist = vec![vec![0.0; num_jobs]; m];
    let mut j = 0usize;
    for jb in jobs {
        for row in &jb.affinity {
            if row.len() != m {
                return Err(CapacitatedError::Base(
                    FacilityInstanceError::SiteOutOfRange(row.len()),
                ));
            }
            for (i, &a) in row.iter().enumerate() {
                dist[i][j] = a;
            }
            j += 1;
        }
    }
    let base = FacilityInstance::from_distances(structure, costs, dist, batches)?;
    let capacities = machines.iter().map(|mc| mc.capacity).collect();
    CapacitatedInstance::new(base, capacities)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::optimal_cost;
    use crate::online::{is_feasible_assignment, CapacitatedGreedy, LeaseChoice};
    use leasing_core::engine::Driver;
    use leasing_core::lease::LeaseType;

    fn structure() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(2, 1.0), LeaseType::new(8, 3.0)]).unwrap()
    }

    fn machines() -> Vec<Machine> {
        vec![
            Machine {
                rental_costs: vec![1.0, 3.0],
                capacity: 1,
            },
            Machine {
                rental_costs: vec![2.0, 5.0],
                capacity: 2,
            },
        ]
    }

    #[test]
    fn conversion_preserves_shapes_and_costs() {
        let jobs = vec![JobBatch {
            time: 0,
            affinity: vec![vec![0.0, 4.0], vec![3.0, 0.5]],
        }];
        let inst = to_capacitated(&machines(), structure(), &jobs).unwrap();
        assert_eq!(inst.base.num_facilities(), 2);
        assert_eq!(inst.base.num_clients(), 2);
        assert_eq!(inst.capacity(0), 1);
        assert!((inst.base.distance(1, 0) - 4.0).abs() < 1e-12);
        assert!((inst.base.distance(0, 1) - 3.0).abs() < 1e-12);
        assert!((inst.base.cost(1, 1) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_ragged_affinity_rows() {
        let jobs = vec![JobBatch {
            time: 0,
            affinity: vec![vec![0.0]],
        }];
        assert!(to_capacitated(&machines(), structure(), &jobs).is_err());
    }

    #[test]
    fn greedy_schedules_jobs_feasibly() {
        let jobs = vec![
            JobBatch {
                time: 0,
                affinity: vec![vec![0.0, 2.0], vec![0.1, 2.0]],
            },
            JobBatch {
                time: 1,
                affinity: vec![vec![0.0, 2.0]],
            },
        ];
        let inst = to_capacitated(&machines(), structure(), &jobs).unwrap();
        let mut driver = Driver::new(
            CapacitatedGreedy::new(&inst, LeaseChoice::CheapestTotal),
            inst.base.structure().clone(),
        );
        driver.submit_batch(inst.base.requests()).unwrap();
        let cost = driver.cost();
        assert!(cost > 0.0);
        let ledger = driver.ledger();
        assert!(is_feasible_assignment(
            &inst,
            |t| ledger.owns(t),
            driver.algorithm().assignments()
        ));
    }

    #[test]
    fn optimum_respects_machine_capacity() {
        // Two jobs at t=0, machine 0 (cheap, loved by both) has capacity 1:
        // the optimum must rent machine 1 for the second job.
        let jobs = vec![JobBatch {
            time: 0,
            affinity: vec![vec![0.0, 1.0], vec![0.0, 1.0]],
        }];
        let inst = to_capacitated(&machines(), structure(), &jobs).unwrap();
        let opt = optimal_cost(&inst, 200_000).unwrap();
        // rent m0 (1) + rent m1 (2) + affinity 0 + 1.
        assert!((opt - 4.0).abs() < 1e-5, "opt {opt}");
    }
}
