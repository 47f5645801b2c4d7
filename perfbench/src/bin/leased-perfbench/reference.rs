//! The in-process reference the daemon's answers are checked against: one
//! `EngineHandle<TenantPermit>` per shard, fed each request in the order
//! the daemon serves it, routed by `shard_of`.

use crate::workload::{ops, structure, SHARDS};
use leased::policy::PermitCore;
use leased::protocol::{self, ActiveLease, DaemonStats, Request, Response};
use leased::{shard_of, TenantOp, TenantPermit};
use leasing_core::engine::{EngineHandle, Ledger};
use leasing_core::time::TimeStep;
use std::cell::RefCell;
use std::rc::Rc;

/// One request sent to the daemon and the payload it answered with.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// The request, as sent.
    pub request: Request,
    /// The reply frame's payload, as received.
    pub reply: String,
}

/// `tenant`'s live leases at `time`: every type's active lease that has
/// not been force-released — what a shard answers to `list-active`.
pub fn list_active(
    ledger: &Ledger,
    core: &PermitCore,
    tenant: u64,
    time: TimeStep,
) -> Vec<ActiveLease> {
    let structure = core.structure();
    (0..structure.num_types())
        .filter_map(|k| {
            ledger
                .active_lease_of_type(tenant as usize, k, time)
                .filter(|&triple| !core.is_released(triple))
                .map(|triple| ActiveLease {
                    tenant,
                    type_index: k,
                    start: triple.start,
                    end: triple.start + structure.length(k),
                })
        })
        .collect()
}

struct RefShard {
    engine: EngineHandle<'static, TenantOp>,
    core: Rc<RefCell<PermitCore>>,
    clock: TimeStep,
}

/// Reference state of a whole daemon.
pub struct Reference {
    shards: Vec<RefShard>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A fresh daemon's state.
    pub fn new() -> Reference {
        let shards = (0..SHARDS)
            .map(|_| {
                let policy = TenantPermit::new(structure());
                let core = policy.core();
                RefShard {
                    engine: EngineHandle::new(policy, structure()),
                    core,
                    clock: 0,
                }
            })
            .collect();
        Reference { shards }
    }

    /// Applies `request` and returns the answer the daemon owes it.
    pub fn answer(&mut self, request: &Request) -> Response {
        match *request {
            Request::Submit { tenant, time } => self.serve(tenant, time, TenantOp::Demand),
            Request::SubmitBatch { ref entries } => {
                // Shards are independent and each sub-batch keeps arrival
                // order, so entry order gives every shard its own order.
                for &(tenant, time) in entries {
                    if let Response::Error(message) = self.serve(tenant, time, TenantOp::Demand) {
                        return Response::Error(message);
                    }
                }
                Response::Submitted(entries.len() as u64)
            }
            Request::ForceRelease { tenant, time } => self.serve(tenant, time, TenantOp::Release),
            Request::ListActive { tenant, time } => {
                Response::Leases(self.list_active(tenant, time))
            }
            Request::Stats => Response::Stats(self.stats()),
            ref other => Response::Error(format!("the reference does not model {other:?}")),
        }
    }

    fn serve(&mut self, tenant: u64, time: TimeStep, op: fn(usize) -> TenantOp) -> Response {
        let shard = &mut self.shards[shard_of(tenant, SHARDS)];
        let t = time.max(shard.clock);
        match shard.engine.submit(t, op(tenant as usize)) {
            Ok(()) => {
                shard.clock = t;
                Response::Ok
            }
            Err(e) => Response::Error(e.to_string()),
        }
    }

    fn list_active(&self, tenant: u64, time: TimeStep) -> Vec<ActiveLease> {
        let shard = &self.shards[shard_of(tenant, SHARDS)];
        list_active(shard.engine.ledger(), &shard.core.borrow(), tenant, time)
    }

    /// Per-shard engine statistics, as the daemon's `stats` reports them.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            shards: self.shards.iter().map(|s| s.engine.stats()).collect(),
        }
    }

    /// Every shard's ledger, in shard order.
    pub fn ledgers(&self) -> impl Iterator<Item = &Ledger> {
        self.shards.iter().map(|s| s.engine.ledger())
    }

    /// Replays `log` and returns the ops of every exchange whose reply
    /// differs, byte for byte, from the reference's encoded answer.
    pub fn mismatched_ops(&mut self, log: &[Exchange]) -> u64 {
        log.iter()
            .filter(|exchange| protocol::encode(&self.answer(&exchange.request)) != exchange.reply)
            .map(|exchange| ops(&exchange.request))
            .sum()
    }
}
