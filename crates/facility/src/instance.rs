//! Facility-leasing problem instances.

use crate::metric::{MatrixMetric, Point};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use serde::{Deserialize, Serialize};

/// The clients arriving at one time step (`D_t` in the thesis). Clients are
/// identified by dense global ids assigned in arrival order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Batch {
    /// Arrival time step.
    pub time: TimeStep,
    /// Global client ids arriving at this step.
    pub clients: Vec<usize>,
}

/// Why a [`FacilityInstance`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum FacilityInstanceError {
    /// Batches must have strictly increasing times; the index is the
    /// offending batch.
    UnsortedBatches(usize),
    /// Cost matrix must be `num_facilities x num_types` with positive finite
    /// entries.
    BadCost(usize, usize),
    /// A matrix-backed instance referenced a site outside the metric.
    SiteOutOfRange(usize),
    /// The instance needs at least one facility.
    NoFacilities,
}

impl std::fmt::Display for FacilityInstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FacilityInstanceError::UnsortedBatches(i) => {
                write!(f, "batch {i} breaks the strictly increasing time order")
            }
            FacilityInstanceError::BadCost(i, k) => {
                write!(
                    f,
                    "cost of facility {i} lease type {k} is missing or invalid"
                )
            }
            FacilityInstanceError::SiteOutOfRange(s) => {
                write!(f, "site {s} is outside the metric")
            }
            FacilityInstanceError::NoFacilities => write!(f, "instance has no facilities"),
        }
    }
}

impl std::error::Error for FacilityInstanceError {}

/// A complete facility-leasing instance: `m` facilities with per-type lease
/// costs, a lease structure (durations), timed client batches, and the
/// facility-client distance table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FacilityInstance {
    structure: LeaseStructure,
    /// `costs[i][k]` = price of leasing facility `i` with type `k`.
    costs: Vec<Vec<f64>>,
    batches: Vec<Batch>,
    /// `dist[i][j]` = distance from facility `i` to client `j` (global id).
    dist: Vec<Vec<f64>>,
    num_clients: usize,
}

impl FacilityInstance {
    /// Builds an instance from an explicit facility-to-client distance table
    /// (`dist[i][j]`), per-facility per-type costs and timed batches of
    /// global client ids (`0..num_clients` in arrival order).
    ///
    /// # Errors
    ///
    /// Returns a [`FacilityInstanceError`] on malformed costs, unsorted
    /// batches or inconsistent table dimensions (reported as
    /// [`FacilityInstanceError::SiteOutOfRange`]).
    pub fn from_distances(
        structure: LeaseStructure,
        costs: Vec<Vec<f64>>,
        dist: Vec<Vec<f64>>,
        batches: Vec<Batch>,
    ) -> Result<Self, FacilityInstanceError> {
        if costs.is_empty() {
            return Err(FacilityInstanceError::NoFacilities);
        }
        for (i, row) in costs.iter().enumerate() {
            if row.len() != structure.num_types() {
                return Err(FacilityInstanceError::BadCost(i, row.len()));
            }
            for (k, &c) in row.iter().enumerate() {
                if !c.is_finite() || c <= 0.0 {
                    return Err(FacilityInstanceError::BadCost(i, k));
                }
            }
        }
        let num_clients = batches.iter().map(|b| b.clients.len()).sum();
        if dist.len() != costs.len() {
            return Err(FacilityInstanceError::SiteOutOfRange(dist.len()));
        }
        for row in &dist {
            if row.len() != num_clients {
                return Err(FacilityInstanceError::SiteOutOfRange(row.len()));
            }
        }
        for (bi, b) in batches.iter().enumerate() {
            if bi > 0 && batches[bi - 1].time >= b.time {
                return Err(FacilityInstanceError::UnsortedBatches(bi));
            }
            for &c in &b.clients {
                if c >= num_clients {
                    return Err(FacilityInstanceError::SiteOutOfRange(c));
                }
            }
        }
        Ok(FacilityInstance {
            structure,
            costs,
            batches,
            dist,
            num_clients,
        })
    }

    /// Builds a Euclidean instance with uniform costs (`c_{i,k} = c_k` from
    /// the structure). Client batches are given as point lists per time
    /// step; global client ids are assigned in order.
    ///
    /// # Errors
    ///
    /// Same as [`FacilityInstance::from_distances`].
    pub fn euclidean(
        facility_points: Vec<Point>,
        structure: LeaseStructure,
        point_batches: Vec<(TimeStep, Vec<Point>)>,
    ) -> Result<Self, FacilityInstanceError> {
        let row: Vec<f64> = structure.types().iter().map(|t| t.cost).collect();
        let costs = vec![row; facility_points.len()];
        FacilityInstance::euclidean_with_costs(facility_points, structure, costs, point_batches)
    }

    /// Euclidean instance with an explicit cost matrix.
    ///
    /// # Errors
    ///
    /// Same as [`FacilityInstance::from_distances`].
    pub fn euclidean_with_costs(
        facility_points: Vec<Point>,
        structure: LeaseStructure,
        costs: Vec<Vec<f64>>,
        point_batches: Vec<(TimeStep, Vec<Point>)>,
    ) -> Result<Self, FacilityInstanceError> {
        let mut batches = Vec::with_capacity(point_batches.len());
        let mut client_points = Vec::new();
        for (time, pts) in point_batches {
            let start = client_points.len();
            client_points.extend(pts);
            batches.push(Batch {
                time,
                clients: (start..client_points.len()).collect(),
            });
        }
        let dist: Vec<Vec<f64>> = facility_points
            .iter()
            .map(|fp| client_points.iter().map(|cp| fp.distance(cp)).collect())
            .collect();
        FacilityInstance::from_distances(structure, costs, dist, batches)
    }

    /// Instance over a shared site metric: facilities live on
    /// `facility_sites`, and each batch lists the *sites* of its clients.
    ///
    /// # Errors
    ///
    /// Same as [`FacilityInstance::from_distances`], plus
    /// [`FacilityInstanceError::SiteOutOfRange`] for unknown sites.
    pub fn on_metric(
        metric: &MatrixMetric,
        facility_sites: &[usize],
        structure: LeaseStructure,
        costs: Vec<Vec<f64>>,
        site_batches: Vec<(TimeStep, Vec<usize>)>,
    ) -> Result<Self, FacilityInstanceError> {
        for &s in facility_sites {
            if s >= metric.len() {
                return Err(FacilityInstanceError::SiteOutOfRange(s));
            }
        }
        let mut batches = Vec::with_capacity(site_batches.len());
        let mut client_sites = Vec::new();
        for (time, sites) in site_batches {
            for &s in &sites {
                if s >= metric.len() {
                    return Err(FacilityInstanceError::SiteOutOfRange(s));
                }
            }
            let start = client_sites.len();
            client_sites.extend(sites);
            batches.push(Batch {
                time,
                clients: (start..client_sites.len()).collect(),
            });
        }
        let dist: Vec<Vec<f64>> = facility_sites
            .iter()
            .map(|&fs| {
                client_sites
                    .iter()
                    .map(|&cs| metric.distance(fs, cs))
                    .collect()
            })
            .collect();
        FacilityInstance::from_distances(structure, costs, dist, batches)
    }

    /// Number of facilities `m`.
    pub fn num_facilities(&self) -> usize {
        self.costs.len()
    }

    /// Total number of clients `n` across all batches.
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// The lease durations (and reference costs).
    pub fn structure(&self) -> &LeaseStructure {
        &self.structure
    }

    /// Price of leasing facility `i` with type `k`.
    ///
    /// # Panics
    ///
    /// Panics if `i`/`k` are out of range.
    pub fn cost(&self, i: usize, k: usize) -> f64 {
        self.costs[i][k]
    }

    /// Distance from facility `i` to client `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i`/`j` are out of range.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        self.dist[i][j]
    }

    /// The timed client batches in arrival order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The batches as `(time, client ids)` requests for a
    /// [`Driver`](leasing_core::engine::Driver) over an online algorithm.
    pub fn requests(&self) -> impl Iterator<Item = (TimeStep, Vec<usize>)> + '_ {
        self.batches.iter().map(|b| (b.time, b.clients.clone()))
    }

    /// The batch sizes `|D_t|` in order (input to the `H_q` series of
    /// Equation 4.3).
    pub fn batch_sizes(&self) -> Vec<usize> {
        self.batches.iter().map(|b| b.clients.len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::LeaseType;

    fn lengths() -> LeaseStructure {
        LeaseStructure::new(vec![LeaseType::new(4, 2.0), LeaseType::new(16, 6.0)]).unwrap()
    }

    #[test]
    fn euclidean_instance_computes_distances() {
        let inst = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            lengths(),
            vec![
                (0, vec![Point::new(1.0, 0.0)]),
                (3, vec![Point::new(9.0, 0.0)]),
            ],
        )
        .unwrap();
        assert_eq!(inst.num_facilities(), 2);
        assert_eq!(inst.num_clients(), 2);
        assert!((inst.distance(0, 0) - 1.0).abs() < 1e-12);
        assert!((inst.distance(1, 1) - 1.0).abs() < 1e-12);
        assert_eq!(inst.batch_sizes(), vec![1, 1]);
    }

    #[test]
    fn rejects_unsorted_batches() {
        let err = FacilityInstance::euclidean(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![
                (5, vec![Point::new(0.0, 0.0)]),
                (5, vec![Point::new(1.0, 0.0)]),
            ],
        );
        assert_eq!(err, Err(FacilityInstanceError::UnsortedBatches(1)));
    }

    #[test]
    fn rejects_bad_costs() {
        let err = FacilityInstance::euclidean_with_costs(
            vec![Point::new(0.0, 0.0)],
            lengths(),
            vec![vec![1.0]],
            vec![],
        );
        assert_eq!(err, Err(FacilityInstanceError::BadCost(0, 1)));
    }

    #[test]
    fn rejects_empty_facility_list() {
        let err = FacilityInstance::euclidean(vec![], lengths(), vec![]);
        assert_eq!(err, Err(FacilityInstanceError::NoFacilities));
    }

    #[test]
    fn metric_backed_instance_uses_site_distances() {
        let metric = MatrixMetric::new(vec![
            vec![0.0, 2.0, 3.0],
            vec![2.0, 0.0, 1.5],
            vec![3.0, 1.5, 0.0],
        ])
        .unwrap();
        let inst = FacilityInstance::on_metric(
            &metric,
            &[0],
            lengths(),
            vec![vec![2.0, 6.0]],
            vec![(0, vec![1]), (1, vec![2])],
        )
        .unwrap();
        assert!((inst.distance(0, 0) - 2.0).abs() < 1e-12);
        assert!((inst.distance(0, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn metric_backed_instance_rejects_unknown_sites() {
        let metric = MatrixMetric::new(vec![vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let err =
            FacilityInstance::on_metric(&metric, &[5], lengths(), vec![vec![2.0, 6.0]], vec![]);
        assert_eq!(err, Err(FacilityInstanceError::SiteOutOfRange(5)));
    }
}
