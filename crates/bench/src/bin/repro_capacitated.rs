//! Experiment E18: capacitated facility leasing (thesis §4.5 outlook).
//!
//! * E18a: the optimum rises monotonically as capacities tighten, and the
//!   greedy follows it (online >= opt always).
//! * E18b: lease-choice ablation — the myopic CheapestTotal rule vs the
//!   BestRate rule under sparse and sustained demand.
//! * E18c: the scheduling view (machines/jobs) through the same pipeline.

use capacitated_facility::instance::CapacitatedInstance;
use capacitated_facility::offline;
use capacitated_facility::online::{CapacitatedGreedy, LeaseChoice};
use capacitated_facility::scheduling::{to_capacitated, JobBatch, Machine};
use facility_leasing::instance::FacilityInstance;
use facility_leasing::metric::Point;
use leasing_bench::{drive, table};
use leasing_core::lease::LeaseStructure;
use leasing_core::rng::seeded;
use rand::RngExt;

const SEED: u64 = 18001;

fn random_base(
    rng: &mut impl rand::Rng,
    structure: &LeaseStructure,
    facilities: usize,
    batches: usize,
    batch_size: usize,
) -> FacilityInstance {
    let sites: Vec<Point> = (0..facilities)
        .map(|_| Point::new(rng.random(), rng.random()))
        .collect();
    let mut point_batches = Vec::new();
    let mut t = 0u64;
    for _ in 0..batches {
        t += 1 + rng.random_range(0..3u64);
        let pts: Vec<Point> = (0..batch_size)
            .map(|_| Point::new(rng.random(), rng.random()))
            .collect();
        point_batches.push((t, pts));
    }
    FacilityInstance::euclidean(sites, structure.clone(), point_batches).unwrap()
}

fn main() {
    let structure = LeaseStructure::geometric(2, 2, 4, 1.0, 0.6);

    println!("== E18a: optimum and greedy vs capacity (seed {SEED}) ==\n");
    table::header(&["cap", "opt", "greedy", "ratio"], 10);
    let mut rng = seeded(SEED);
    let base = random_base(&mut rng, &structure, 3, 2, 3);
    for cap in [1usize, 2, 3, 100] {
        let Ok(inst) = CapacitatedInstance::uniform(base.clone(), cap) else {
            continue;
        };
        let opt = offline::optimal_cost(&inst, 500_000).unwrap_or(f64::NAN);
        let greedy = drive(
            CapacitatedGreedy::new(&inst, LeaseChoice::CheapestTotal),
            inst.base.structure(),
            inst.base.requests(),
        )
        .cost();
        table::row(
            &[
                table::i(cap),
                table::f(opt),
                table::f(greedy),
                table::f(greedy / opt),
            ],
            10,
        );
    }
    println!("\nExpect opt non-increasing in cap; greedy >= opt throughout.\n");

    println!("== E18b: lease-choice ablation under sustained vs sparse demand ==\n");
    table::header(&["demand", "cheapest", "best-rate", "winner"], 12);
    for (label, batches, gap) in [("sustained", 16usize, 1u64), ("sparse", 4, 16)] {
        let mut cheap_sum = 0.0;
        let mut rate_sum = 0.0;
        for _trial in 0..5u64 {
            let sites = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
            let mut point_batches = Vec::new();
            let mut t = 0u64;
            for _ in 0..batches {
                t += gap;
                point_batches.push((t, vec![Point::new(0.05, 0.0)]));
            }
            let base =
                FacilityInstance::euclidean(sites, structure.clone(), point_batches).unwrap();
            let inst = CapacitatedInstance::uniform(base, 1).unwrap();
            cheap_sum += drive(
                CapacitatedGreedy::new(&inst, LeaseChoice::CheapestTotal),
                inst.base.structure(),
                inst.base.requests(),
            )
            .cost();
            rate_sum += drive(
                CapacitatedGreedy::new(&inst, LeaseChoice::BestRate),
                inst.base.structure(),
                inst.base.requests(),
            )
            .cost();
        }
        let winner = if rate_sum < cheap_sum {
            "best-rate"
        } else {
            "cheapest"
        };
        table::row(
            &[
                label.into(),
                table::f(cheap_sum / 5.0),
                table::f(rate_sum / 5.0),
                winner.into(),
            ],
            12,
        );
    }
    println!("\nExpect best-rate to win under sustained demand, cheapest under sparse.\n");

    println!("== E18c: machine renting (scheduling view of §4.5) ==\n");
    let machines = vec![
        Machine {
            rental_costs: vec![1.0, 3.0],
            capacity: 1,
        },
        Machine {
            rental_costs: vec![1.5, 4.0],
            capacity: 2,
        },
    ];
    let mut rng = seeded(SEED * 5);
    let mut jobs = Vec::new();
    let mut t = 0u64;
    for _ in 0..4 {
        t += 1 + rng.random_range(0..2u64);
        let n = 1 + rng.random_range(0..3usize).min(2);
        let affinity: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.random::<f64>(), rng.random::<f64>()])
            .collect();
        jobs.push(JobBatch { time: t, affinity });
    }
    let inst = to_capacitated(&machines, structure.clone(), &jobs).unwrap();
    let opt = offline::optimal_cost(&inst, 500_000).unwrap_or(f64::NAN);
    let greedy = drive(
        CapacitatedGreedy::new(&inst, LeaseChoice::CheapestTotal),
        inst.base.structure(),
        inst.base.requests(),
    )
    .cost();
    table::header(&["jobs", "opt", "greedy", "ratio"], 10);
    table::row(
        &[
            table::i(inst.base.num_clients()),
            table::f(opt),
            table::f(greedy),
            table::f(greedy / opt),
        ],
        10,
    );
    println!("\nMachines rented, jobs placed: the same algorithms, renamed.");
}
