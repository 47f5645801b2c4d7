//! The TCP daemon: accepts length-delimited connections, routes
//! operations to tenant shards, and persists/restores shard snapshots.
//!
//! Every connection gets its own handler thread, which serves each
//! operation itself under the target shard's lock; requests from
//! different connections interleave at shard-operation granularity, so
//! one slow client never blocks the rest.
//! `shutdown` snapshots every shard into the snapshot directory
//! (when configured) and stops the daemon; a daemon started over the same
//! directory restores each shard before accepting traffic. Snapshot files
//! are replaced atomically (temporary file, fsync, rename, directory
//! fsync), so a crash mid-snapshot leaves the previous file intact.

use crate::error::LeasedError;
use crate::metrics::{DaemonMetrics, ShardMetrics};
use crate::protocol::{
    self, DaemonStats, FrameRead, Request, Response, RetentionInfo, TraceEvent, MAX_FRAME_LEN,
};
use crate::shard::{Shard, ShardReply, ShardRequest};
use crate::shard_of;
use leasing_core::engine::{DecisionRetention, EngineStats};
use leasing_core::lease::LeaseStructure;
use leasing_core::time::TimeStep;
use leasing_telemetry::Stopwatch;
use std::fs::File;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Read-side buffer per connection: one syscall pulls a whole burst of
/// pipelined frames.
const READ_BURST_BYTES: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Number of tenant shards. Clamped below by 1.
    pub shards: usize,
    /// The lease structure every shard prices from.
    pub structure: LeaseStructure,
    /// Snapshot directory: written on `snapshot`/`shutdown`, read on
    /// start. `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// Recent operations each shard keeps for `trace-dump` (0 disables
    /// tracing).
    pub trace_capacity: usize,
    /// Decision-trace retention per shard engine. `Full` keeps the whole
    /// trace (the default); `Bounded(n)`/`AggregateOnly` cap trace memory
    /// on unbounded streams without changing what `stats` reports.
    pub retention: DecisionRetention,
}

impl ServerConfig {
    /// A daemon over `structure` with 4 shards, a 256-event trace ring
    /// per shard and no persistence.
    pub fn new(structure: LeaseStructure) -> Self {
        ServerConfig {
            shards: 4,
            structure,
            snapshot_dir: None,
            trace_capacity: 256,
            retention: DecisionRetention::Full,
        }
    }
}

/// Whether `buffered` (the unread tail of a connection's read buffer)
/// already holds one complete frame. Pipelined serving flushes its
/// response burst before blocking on the socket again, so a client that
/// sent only part of its next frame is never deadlocked waiting for
/// answers the server is still buffering.
fn holds_complete_frame(buffered: &[u8]) -> bool {
    let Some((prefix, rest)) = buffered.split_first_chunk::<4>() else {
        return false;
    };
    u32::from_le_bytes(*prefix) as usize <= rest.len()
}

/// Path of shard `index`'s snapshot inside `dir`.
pub fn shard_snapshot_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}.json"))
}

/// A bound daemon ready to serve.
pub struct Server {
    listener: TcpListener,
    shards: Vec<Shard>,
    snapshot_dir: Option<PathBuf>,
    metrics: Arc<DaemonMetrics>,
}

impl Server {
    /// Binds `addr` and builds the shards, restoring any shard
    /// whose snapshot file exists under the configured directory.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: &ServerConfig) -> Result<Server, LeasedError> {
        let listener = TcpListener::bind(addr)?;
        let metrics = DaemonMetrics::new(config.shards.max(1));
        let shards = (0..config.shards.max(1))
            .map(|index| {
                let restore = config
                    .snapshot_dir
                    .as_deref()
                    .map(|dir| shard_snapshot_path(dir, index))
                    .filter(|path| path.exists())
                    .and_then(|path| std::fs::read_to_string(path).ok());
                let shard_metrics = metrics
                    .shard(index)
                    .map(Arc::clone)
                    .unwrap_or_else(|| Arc::new(ShardMetrics::new()));
                Shard::spawn(
                    index,
                    config.structure.clone(),
                    0, // queue capacity: ignored, shards have no queue
                    restore,
                    shard_metrics,
                    config.trace_capacity,
                    config.retention,
                )
            })
            .collect();
        Ok(Server {
            listener,
            shards,
            snapshot_dir: config.snapshot_dir.clone(),
            metrics,
        })
    }

    /// The daemon's metric registry — share it with a scrape endpoint via
    /// [`crate::metrics::serve_metrics`].
    pub fn metrics(&self) -> &Arc<DaemonMetrics> {
        &self.metrics
    }

    /// The bound address (port 0 binds resolve to a concrete port).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> Result<SocketAddr, LeasedError> {
        Ok(self.listener.local_addr()?)
    }

    /// Serves connections until a client sends `shutdown`, then snapshots
    /// (when persistence is configured), shuts the shards down and
    /// returns.
    ///
    /// Each connection gets its own handler thread; requests from
    /// different connections interleave at shard-operation granularity,
    /// so a slow client never blocks the others.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures; per-connection errors only drop
    /// that connection.
    pub fn run(self) -> Result<(), LeasedError> {
        let local = self.local_addr()?;
        let stopping = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if stopping.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // Tiny request/response frames: disable Nagle so answers
                // are not batched behind a delayed-ACK round-trip.
                let _ = stream.set_nodelay(true);
                let server = &self;
                let stopping = &stopping;
                scope.spawn(move || {
                    if server.serve_connection(stream) {
                        stopping.store(true, std::sync::atomic::Ordering::SeqCst);
                        // The accept loop blocks in `accept`; a throwaway
                        // connection wakes it so it can observe the flag.
                        let _ = TcpStream::connect(local);
                    }
                });
            }
        });
        Ok(())
    }

    /// Serves one connection to completion; `true` means shutdown was
    /// requested and the accept loop must stop.
    ///
    /// The loop is pipelined: frames are pulled from a read buffer filled
    /// a burst at a time, responses accumulate in a write buffer, and the
    /// burst is flushed in one write only when the read buffer holds no
    /// further complete frame — a lone request still gets an immediate
    /// answer, while a pipelined burst pays one syscall each way.
    fn serve_connection(&self, stream: TcpStream) -> bool {
        let Ok(read_half) = stream.try_clone() else {
            return false;
        };
        let transport = &self.metrics.transport;
        transport.connections.inc();
        let mut reader = BufReader::with_capacity(READ_BURST_BYTES, read_half);
        let mut writer = stream;
        let mut burst: Vec<u8> = Vec::new();
        loop {
            let frame = match protocol::read_frame_lenient(&mut reader) {
                Ok(frame) => frame,
                // Disconnect (clean or not): move on to the next client.
                Err(_) => return false,
            };
            transport.frames_read.inc();
            let (response, shutdown) = match frame {
                FrameRead::Oversized(len) => {
                    transport.oversized_frames.inc();
                    transport.bytes_read.add((len as u64).saturating_add(4));
                    (
                        Response::Error(format!(
                            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                        )),
                        false,
                    )
                }
                FrameRead::Payload(payload) => {
                    transport.bytes_read.add(payload.len() as u64 + 4);
                    match protocol::decode::<Request>(&payload) {
                        Err(e) => (Response::Error(e.to_string()), false),
                        Ok(request) => {
                            let asked = request == Request::Shutdown;
                            let timed = matches!(
                                request,
                                Request::Submit { .. } | Request::SubmitBatch { .. }
                            );
                            let watch = Stopwatch::start();
                            let response = self.dispatch(request);
                            if timed {
                                self.metrics.submit_latency_ns.record(watch.elapsed_nanos());
                            }
                            let granted = asked && !matches!(response, Response::Error(_));
                            (response, granted)
                        }
                    }
                }
            };
            let queued_before = burst.len();
            if protocol::queue_frame(&mut burst, &protocol::encode(&response)).is_err() {
                return false;
            }
            transport.frames_written.inc();
            transport
                .bytes_written
                .add((burst.len() - queued_before) as u64);
            if shutdown || !holds_complete_frame(reader.buffer()) {
                if writer.write_all(&burst).is_err() {
                    return false;
                }
                burst.clear();
                if shutdown {
                    return true;
                }
            }
        }
    }

    fn dispatch(&self, request: Request) -> Response {
        match request {
            Request::Submit { tenant, time } => {
                self.tenant_op(tenant, |tenant| ShardRequest::Submit { tenant, time })
            }
            Request::SubmitBatch { entries } => self.submit_batch(entries),
            Request::ForceRelease { tenant, time } => {
                self.tenant_op(tenant, |tenant| ShardRequest::ForceRelease { tenant, time })
            }
            Request::ListActive { tenant, time } => {
                self.tenant_op(tenant, |tenant| ShardRequest::ListActive { tenant, time })
            }
            Request::Stats => match self.collect_stats() {
                Ok(shards) => Response::Stats(DaemonStats { shards }),
                Err(message) => Response::Error(message),
            },
            Request::RetentionInfo => match self.collect_retention() {
                Ok(shards) => Response::Retention(shards),
                Err(message) => Response::Error(message),
            },
            Request::Metrics => Response::Metrics(self.metrics.render()),
            Request::TraceDump => match self.collect_traces() {
                Ok(events) => Response::Trace(events),
                Err(message) => Response::Error(message),
            },
            Request::Snapshot => match self.snapshot_all() {
                Ok(()) => Response::Ok,
                Err(message) => Response::Error(message),
            },
            Request::Shutdown => {
                // Snapshot first (while the shards are still up); a
                // failed snapshot refuses the shutdown so no state is
                // lost. Without persistence configured, just stop.
                let persisted = if self.snapshot_dir.is_some() {
                    self.snapshot_all()
                } else {
                    Ok(())
                };
                match persisted {
                    Ok(()) => {
                        for shard in &self.shards {
                            let _ = shard.call(ShardRequest::Shutdown);
                        }
                        Response::Ok
                    }
                    Err(message) => Response::Error(message),
                }
            }
        }
    }

    /// Serves a `submit-batch`: the batch splits deterministically into
    /// per-shard sub-batches (each preserving the batch's arrival order)
    /// which are applied in shard-index order — the end state is identical
    /// to submitting every entry individually. The whole batch is
    /// validated before any shard is touched; a shard failure mid-batch
    /// reports an error but leaves earlier shards' sub-batches applied
    /// (exactly as individual submits would have).
    fn submit_batch(&self, entries: Vec<(u64, TimeStep)>) -> Response {
        let mut per_shard: Vec<Vec<(usize, TimeStep)>> = vec![Vec::new(); self.shards.len()];
        for (tenant, time) in entries {
            let Ok(tenant_index) = usize::try_from(tenant) else {
                return Response::Error(format!("tenant id {tenant} overflows this platform"));
            };
            let shard_index = shard_of(tenant, self.shards.len());
            let Some(bucket) = per_shard.get_mut(shard_index) else {
                return Response::Error(format!("no shard {shard_index}"));
            };
            bucket.push((tenant_index, time));
        }
        let mut submitted = 0u64;
        for (shard, batch) in self.shards.iter().zip(per_shard) {
            if batch.is_empty() {
                continue;
            }
            match shard.call(ShardRequest::SubmitBatch { entries: batch }) {
                Ok(ShardReply::Submitted(count)) => submitted += count,
                Ok(ShardReply::Failed(message)) => return Response::Error(message),
                Ok(other) => return Response::Error(format!("unexpected shard reply {other:?}")),
                Err(e) => return Response::Error(e.to_string()),
            }
        }
        Response::Submitted(submitted)
    }

    /// Routes one tenant-scoped operation to its shard.
    fn tenant_op(&self, tenant: u64, request: impl FnOnce(usize) -> ShardRequest) -> Response {
        let Ok(tenant_index) = usize::try_from(tenant) else {
            return Response::Error(format!("tenant id {tenant} overflows this platform"));
        };
        let shard_index = shard_of(tenant, self.shards.len());
        let Some(shard) = self.shards.get(shard_index) else {
            return Response::Error(format!("no shard {shard_index}"));
        };
        match shard.call(request(tenant_index)) {
            Ok(ShardReply::Done) => Response::Ok,
            Ok(ShardReply::Leases(leases)) => Response::Leases(leases),
            Ok(ShardReply::Failed(message)) => Response::Error(message),
            Ok(other) => Response::Error(format!("unexpected shard reply {other:?}")),
            Err(e) => Response::Error(e.to_string()),
        }
    }

    /// Gathers every shard's event ring, in shard order (each ring's
    /// events oldest first).
    fn collect_traces(&self) -> Result<Vec<TraceEvent>, String> {
        let mut events = Vec::new();
        for shard in &self.shards {
            match shard.call(ShardRequest::TraceDump) {
                Ok(ShardReply::Trace(shard_events)) => events.extend(shard_events),
                Ok(ShardReply::Failed(message)) => return Err(message),
                Ok(other) => return Err(format!("unexpected shard reply {other:?}")),
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(events)
    }

    /// Gathers every shard's retention report, in shard order.
    fn collect_retention(&self) -> Result<Vec<RetentionInfo>, String> {
        self.shards
            .iter()
            .map(|shard| match shard.call(ShardRequest::RetentionInfo) {
                Ok(ShardReply::Retention(info)) => Ok(info),
                Ok(ShardReply::Failed(message)) => Err(message),
                Ok(other) => Err(format!("unexpected shard reply {other:?}")),
                Err(e) => Err(e.to_string()),
            })
            .collect()
    }

    fn collect_stats(&self) -> Result<Vec<EngineStats>, String> {
        self.shards
            .iter()
            .map(|shard| match shard.call(ShardRequest::Stats) {
                Ok(ShardReply::Stats(stats)) => Ok(stats),
                Ok(ShardReply::Failed(message)) => Err(message),
                Ok(other) => Err(format!("unexpected shard reply {other:?}")),
                Err(e) => Err(e.to_string()),
            })
            .collect()
    }

    /// Snapshots every shard into the snapshot directory, replacing each
    /// file atomically: a crash at any instant leaves either the old or
    /// the new `shard-<i>.json`, never a torn one.
    fn snapshot_all(&self) -> Result<(), String> {
        let Some(dir) = self.snapshot_dir.as_deref() else {
            return Err("daemon started without --snapshot-dir".to_string());
        };
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        for shard in &self.shards {
            let text = match shard.call(ShardRequest::Snapshot) {
                Ok(ShardReply::Snapshot(text)) => text,
                Ok(ShardReply::Failed(message)) => return Err(message),
                Ok(other) => return Err(format!("unexpected shard reply {other:?}")),
                Err(e) => return Err(e.to_string()),
            };
            let path = shard_snapshot_path(dir, shard.index());
            replace_file(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        // Make the renames durable.
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| format!("syncing {}: {e}", dir.display()))
    }
}

/// Replaces the `.json` file at `path` with `text`: writes `<path>.tmp`,
/// syncs it to disk, then renames it over `path`. The caller syncs the
/// directory.
fn replace_file(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leasing_core::lease::LeaseType;

    #[test]
    fn snapshot_paths_are_per_shard_and_stable() {
        let dir = PathBuf::from("/tmp/leased-state");
        assert_eq!(
            shard_snapshot_path(&dir, 3),
            PathBuf::from("/tmp/leased-state/shard-3.json")
        );
    }

    #[test]
    fn default_config_is_sane() {
        let structure =
            LeaseStructure::new(vec![LeaseType::new(1, 1.0), LeaseType::new(4, 3.0)]).unwrap();
        let config = ServerConfig::new(structure);
        assert_eq!(config.shards, 4);
        assert!(config.snapshot_dir.is_none());
        assert_eq!(config.trace_capacity, 256);
        assert_eq!(config.retention, DecisionRetention::Full);
    }
}
