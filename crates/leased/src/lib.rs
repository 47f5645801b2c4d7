//! `leased` — a multi-tenant resource-leasing daemon over the
//! [`leasing_core::engine`] API.
//!
//! The daemon partitions tenants across a fixed set of **shards** with the
//! deterministic map `tenant % shards`. Each shard is a lock around one
//! [`Driver`](leasing_core::engine::Driver) bound to the multi-tenant
//! [`PermitCore`](policy::PermitCore) primal-dual policy (the thesis'
//! deterministic parking-permit algorithm with the tenant id as the
//! covered element). The connection thread that receives an operation
//! serves it under the shard's lock, so there is no hand-off between
//! threads and no queue to bound; callers of a busy shard wait on its
//! lock.
//!
//! Clients speak a length-delimited wire protocol over TCP — each frame is
//! a 4-byte little-endian payload length followed by that many bytes of
//! JSON (see [`protocol`]): `submit`, `list-active`, `force-release`,
//! `stats`, `metrics`, `trace-dump`, `snapshot` and `shutdown`. The
//! daemon is instrumented end to end (see [`metrics`]): per-shard op
//! counters, lock-depth gauges, submit-run and latency histograms and
//! a bounded per-shard event ring, all exposed both in-band (`metrics`,
//! `trace-dump`) and as a Prometheus scrape endpoint via
//! `--metrics-listen`. Observability is a read-side overlay — enabling it
//! never changes engine state, stats or snapshot bytes.
//! Shutdown snapshots every shard
//! (schema [`shard::SHARD_SNAPSHOT_SCHEMA`], wrapping the engine's
//! `engine-snapshot/v1` envelope plus the policy state) into the snapshot
//! directory; a daemon restarted with the same directory restores each
//! shard to a byte-identical
//! [`EngineStats`](leasing_core::engine::EngineStats) state.
//!
//! Quickstart: `leased --shards 4 --listen 127.0.0.1:7878 --snapshot-dir
//! state/` and drive it with `loadgen` from the bench crate (or the
//! [`client::Client`] API).

pub mod client;
pub mod error;
pub mod metrics;
pub mod policy;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::Client;
pub use error::LeasedError;
pub use metrics::{DaemonMetrics, ShardMetrics, TransportMetrics};
pub use policy::{TenantOp, TenantPermit, CATEGORY_FORCE_RELEASE};
pub use protocol::{ActiveLease, DaemonStats, Request, Response, RetentionInfo, TraceEvent};
pub use server::{Server, ServerConfig};
pub use shard::{Shard, ShardReply, ShardRequest, SHARD_SNAPSHOT_SCHEMA};

/// Deterministic tenant placement: shard index of `tenant` among `shards`
/// workers. The map is stable across restarts — snapshots restore into the
/// same shard that wrote them as long as the shard count is unchanged.
pub fn shard_of(tenant: u64, shards: usize) -> usize {
    // The remainder is below `shards`, itself a usize, so the conversion
    // never actually falls back.
    usize::try_from(tenant % shards.max(1) as u64).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_is_deterministic_and_in_range() {
        for shards in 1..9 {
            for tenant in 0..1000u64 {
                let s = shard_of(tenant, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(tenant, shards));
            }
        }
        assert_eq!(shard_of(7, 0), 0, "zero shard counts clamp to one shard");
    }
}
