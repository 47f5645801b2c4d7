//! The three seeded workloads and their op streams.
//!
//! A stream is a pure function of its seed: the same seed yields the same
//! `leased` requests, byte for byte once encoded. Times never decrease
//! along a stream, so no shard ever clamps a timestamp, and a fresh daemon
//! serves every demand at the time the stream gave it.

use leased::protocol::Request;
use leasing_core::lease::{LeaseStructure, LeaseType};

/// Shards the daemon runs with in every workload.
pub const SHARDS: usize = 4;

/// The daemon's default lease structure, passed to it explicitly so the
/// daemon and the in-process reference price alike.
pub const LEASE_SPEC: &str = "1:1,4:2.5,16:6";

/// Demands per `submit-batch` frame on `pipelined`.
pub const BATCH: usize = 64;

/// Chance that a tenant demands at a given step on the sweeping workloads.
const DEMAND_PROBABILITY: f64 = 0.3;

/// Read probes after each closed-loop drive: enough that each daemon's
/// read p99 has 200 samples beyond it, so that it is not set by the few
/// reads a brief stall of the machine delays.
const READ_PROBES: usize = 20_000;

/// Drive length from which a closed-loop drive samples its checkpoint at
/// the full demand count (see [`Workload::checkpoint_demands`]).
const CHECKPOINT_SECONDS: f64 = 2.0;

/// Ops per logical time step on `mixed-open`.
const MIXED_OPS_PER_STEP: u64 = 1_000;

/// Zipf exponent of tenant popularity on `mixed-open`.
const ZIPF_EXPONENT: f64 = 1.1;

/// [`LEASE_SPEC`] as a structure.
pub fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .expect("the benchmark's lease structure is valid")
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one `submit` per frame, one frame in flight: the cost
    /// of a round trip through every layer, dominated by handoff.
    Lockstep,
    /// Closed loop, 64-demand `submit-batch` frames, 8 in flight, over a
    /// state that outgrows the caches: dominated by dispatch and engine.
    Pipelined,
    /// Open loop at a fixed rate: Zipf tenants, with reads and releases
    /// mixed into the demands.
    MixedOpen,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Lockstep, Workload::Pipelined, Workload::MixedOpen];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lockstep => "lockstep",
            Workload::Pipelined => "pipelined",
            Workload::MixedOpen => "mixed-open",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct tenants the stream draws from.
    pub fn tenants(self) -> u64 {
        match self {
            Workload::Pipelined => 100_000,
            Workload::Lockstep | Workload::MixedOpen => 10_000,
        }
    }

    /// Frames a closed-loop client keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::Pipelined => 8,
            Workload::Lockstep | Workload::MixedOpen => 1,
        }
    }

    /// `list-active` reads sent one at a time after a closed-loop drive,
    /// against the state it built. The closed-loop streams carry demands
    /// only, so this is where their read latency comes from; the open-loop
    /// workload mixes its reads into the stream and probes none.
    pub fn read_probes(self) -> usize {
        match self {
            Workload::Lockstep | Workload::Pipelined => READ_PROBES,
            Workload::MixedOpen => 0,
        }
    }

    /// Frames of a drive left out of its latency percentiles: on the
    /// sweeping workloads, the first sweep over the tenants, which creates
    /// every tenant's state on a fresh daemon. The open loop keeps all.
    pub fn warmup_frames(self) -> usize {
        let per_frame = match self {
            Workload::Lockstep => 1.0,
            Workload::Pipelined => BATCH as f64,
            Workload::MixedOpen => return 0,
        };
        (self.tenants() as f64 * DEMAND_PROBABILITY / per_frame).ceil() as usize
    }

    /// Offered rate in ops per second, for the open-loop workload.
    pub fn offered_rate(self) -> Option<f64> {
        match self {
            Workload::MixedOpen => Some(10_000.0),
            Workload::Lockstep | Workload::Pipelined => None,
        }
    }

    /// Demands after which a closed-loop drive of `seconds` samples the
    /// daemon's cost and memory, so both are taken at the same amount of
    /// work however fast the daemon is. The count is fixed for drives of
    /// [`CHECKPOINT_SECONDS`] or more and shrinks in proportion for shorter
    /// ones. A drive lasts until it gets there, even past its seconds. The
    /// open-loop workload sends a fixed op count and samples at its end.
    pub fn checkpoint_demands(self, seconds: f64) -> Option<u64> {
        let full = match self {
            Workload::Lockstep => 40_000.0,
            Workload::Pipelined => 500_000.0,
            Workload::MixedOpen => return None,
        };
        Some((full * (seconds / CHECKPOINT_SECONDS).min(1.0)).ceil() as u64)
    }
}

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The seeded request stream of one workload.
#[derive(Clone, Debug)]
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    /// Cumulative Zipf weights over tenant ranks (`mixed-open` only).
    zipf: Vec<f64>,
    /// Next tenant of the sweep (`lockstep`, `pipelined`).
    cursor: u64,
    /// Current logical time.
    time: u64,
    /// Frames emitted so far.
    emitted: u64,
    /// Draws the read probes' tenants, apart from the stream's own draws,
    /// so the probed tenants do not depend on how far a drive got.
    probes: Rng,
}

impl OpStream {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> OpStream {
        let zipf = match workload {
            Workload::MixedOpen => {
                let weights: Vec<f64> = (1..=workload.tenants())
                    .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
            Workload::Lockstep | Workload::Pipelined => Vec::new(),
        };
        OpStream {
            workload,
            rng: Rng::new(seed),
            zipf,
            cursor: 0,
            time: 0,
            emitted: 0,
            probes: Rng::new(!seed),
        }
    }

    /// The next frame of the workload.
    pub fn next_frame(&mut self) -> Request {
        self.emitted += 1;
        match self.workload {
            Workload::Lockstep => {
                let (tenant, time) = self.next_demand();
                Request::Submit { tenant, time }
            }
            Workload::Pipelined => Request::SubmitBatch {
                entries: (0..BATCH).map(|_| self.next_demand()).collect(),
            },
            Workload::MixedOpen => self.next_mixed(),
        }
    }

    /// A read probe: `list-active` of a uniform tenant at the current time.
    pub fn next_probe(&mut self) -> Request {
        Request::ListActive {
            tenant: self.probes.below(self.workload.tenants()),
            time: self.time,
        }
    }

    /// Sweeps the tenants in id order, one step at a time; each tenant
    /// demands at a step with [`DEMAND_PROBABILITY`]. Id order makes every
    /// batch touch every shard.
    fn next_demand(&mut self) -> (u64, u64) {
        loop {
            if self.cursor == self.workload.tenants() {
                self.cursor = 0;
                self.time += 1;
            }
            let tenant = self.cursor;
            self.cursor += 1;
            if self.rng.unit() < DEMAND_PROBABILITY {
                return (tenant, self.time);
            }
        }
    }

    /// 75% `submit`, 20% `list-active`, 5% `force-release`, all at the
    /// current time, of a Zipf-popular tenant.
    fn next_mixed(&mut self) -> Request {
        self.time = (self.emitted - 1) / MIXED_OPS_PER_STEP;
        let u = self.rng.unit();
        let rank = self.zipf.partition_point(|&c| c <= u);
        let tenant = (rank as u64).min(self.workload.tenants() - 1);
        let time = self.time;
        let kind = self.rng.unit();
        if kind < 0.75 {
            Request::Submit { tenant, time }
        } else if kind < 0.95 {
            Request::ListActive { tenant, time }
        } else {
            Request::ForceRelease { tenant, time }
        }
    }
}

/// Demands a request carries.
pub fn demands(request: &Request) -> u64 {
    match request {
        Request::Submit { .. } => 1,
        Request::SubmitBatch { entries } => entries.len() as u64,
        _ => 0,
    }
}

/// Ops a request carries: demands, reads and releases count one each, as
/// does every control request the benchmark sends.
pub fn ops(request: &Request) -> u64 {
    match request {
        Request::SubmitBatch { entries } => entries.len() as u64,
        _ => 1,
    }
}

/// Whether a request is workload traffic (a demand, read or release)
/// rather than a control request such as `stats`.
pub fn is_work(request: &Request) -> bool {
    matches!(
        request,
        Request::Submit { .. }
            | Request::SubmitBatch { .. }
            | Request::ListActive { .. }
            | Request::ForceRelease { .. }
    )
}
