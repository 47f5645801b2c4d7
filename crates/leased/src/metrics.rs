//! Daemon observability: the per-shard and transport metric registries,
//! their Prometheus text rendering, and the minimal HTTP/1.1 responder
//! behind `--metrics-listen`.
//!
//! Together with `leasing_telemetry` this module is the only place in the
//! workspace's library code allowed to touch wall-clock time (the
//! `leasing-analysis` gate pins the `Instant`/`SystemTime` tokens here).
//! Everything recorded is a read-side overlay: metrics observe the engine
//! and the transport but never feed back into either, so deterministic
//! surfaces — engine snapshots, `EngineStats`, wire bytes — are
//! bit-identical with or without scraping.

use leasing_telemetry::{Counter, Exposition, Gauge, Histogram, HistogramSnapshot};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Operation labels in render order, paired with the accessor used by the
/// exposition. Kept as data so the rendering is one loop and the label set
/// cannot drift from the counter set.
const OPS: &[&str] = &[
    "submit",
    "submit-batch",
    "list-active",
    "force-release",
    "stats",
    "snapshot",
    "trace-dump",
];

/// Counters and histograms owned by one shard worker (shared with the
/// daemon's exposition through an `Arc`).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// `submit` frames served (one per collapsed demand).
    pub ops_submit: Counter,
    /// `submit-batch` sub-batches served.
    pub ops_submit_batch: Counter,
    /// `list-active` reads served.
    pub ops_list_active: Counter,
    /// `force-release` operations served.
    pub ops_force_release: Counter,
    /// `stats` reads served.
    pub ops_stats: Counter,
    /// Snapshot serializations served (including the shutdown snapshot).
    pub ops_snapshot: Counter,
    /// `trace-dump` reads served.
    pub ops_trace_dump: Counter,
    /// Individual demands served, counting every batch entry — the number
    /// the CI scrape cross-checks against the client-side request count.
    pub submit_demands: Counter,
    /// Demands whose requested timestamp was behind the shard clock and
    /// was clamped forward.
    pub clamped_timestamps: Counter,
    /// Callers currently holding or waiting on the shard's lock (exported
    /// as `leased_mailbox_depth`, a name dashboards already scrape).
    pub mailbox_depth: Gauge,
    /// Most callers ever holding or waiting on the shard's lock at once:
    /// at most the number of connections.
    pub mailbox_high_watermark: Gauge,
    /// Length of each collapsed equal-time submit run handed to the
    /// engine as one `submit_at` call.
    pub micro_batch_len: Histogram,
    /// Nanoseconds per snapshot serialization.
    pub snapshot_ns: Histogram,
    /// Nanoseconds restoring this shard from a snapshot at spawn.
    pub restore_ns: Histogram,
}

impl ShardMetrics {
    /// Fresh all-zero shard metrics.
    pub fn new() -> Self {
        ShardMetrics::default()
    }

    /// Counter for the `op` label, in [`OPS`] order.
    fn op_counter(&self, op: &str) -> Option<&Counter> {
        match op {
            "submit" => Some(&self.ops_submit),
            "submit-batch" => Some(&self.ops_submit_batch),
            "list-active" => Some(&self.ops_list_active),
            "force-release" => Some(&self.ops_force_release),
            "stats" => Some(&self.ops_stats),
            "snapshot" => Some(&self.ops_snapshot),
            "trace-dump" => Some(&self.ops_trace_dump),
            _ => None,
        }
    }
}

/// Connection/frame accounting, one instance per daemon.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Connections accepted.
    pub connections: Counter,
    /// Frames read off client connections.
    pub frames_read: Counter,
    /// Response frames queued for clients.
    pub frames_written: Counter,
    /// Bytes read off client connections (length prefixes included).
    pub bytes_read: Counter,
    /// Bytes written to clients (length prefixes included).
    pub bytes_written: Counter,
    /// Frames dropped (drained off the wire) for exceeding the frame cap.
    pub oversized_frames: Counter,
}

/// The daemon-wide metric registry: one [`ShardMetrics`] per shard plus
/// transport counters and the server-side submit latency histogram.
#[derive(Debug)]
pub struct DaemonMetrics {
    shards: Vec<Arc<ShardMetrics>>,
    /// Connection and frame accounting.
    pub transport: TransportMetrics,
    /// Nanoseconds from decoding a `submit`/`submit-batch` frame to its
    /// response being ready (queue wait + engine time).
    pub submit_latency_ns: Histogram,
}

impl DaemonMetrics {
    /// A registry for `shards` shard workers.
    pub fn new(shards: usize) -> Arc<DaemonMetrics> {
        Arc::new(DaemonMetrics {
            shards: (0..shards.max(1))
                .map(|_| Arc::new(ShardMetrics::new()))
                .collect(),
            transport: TransportMetrics::default(),
            submit_latency_ns: Histogram::new(),
        })
    }

    /// Shard `index`'s metrics, shared with its worker.
    pub fn shard(&self, index: usize) -> Option<&Arc<ShardMetrics>> {
        self.shards.get(index)
    }

    /// Per-shard metrics in shard order.
    pub fn shards(&self) -> &[Arc<ShardMetrics>] {
        &self.shards
    }

    /// Sum of every shard's served-demand counter.
    pub fn total_submit_demands(&self) -> u64 {
        self.shards
            .iter()
            .fold(0u64, |a, s| a.saturating_add(s.submit_demands.get()))
    }

    /// Renders the whole registry as Prometheus text exposition
    /// (format 0.0.4). The output order is fixed — same state, same bytes.
    pub fn render(&self) -> String {
        let mut expo = Exposition::new();
        let labels: Vec<String> = (0..self.shards.len()).map(|i| i.to_string()).collect();

        expo.family(
            "leased_ops_total",
            "counter",
            "operations served, by shard and op",
        );
        for (index, shard) in self.shards.iter().enumerate() {
            let Some(shard_value) = labels.get(index) else {
                continue;
            };
            for op in OPS {
                let value = shard.op_counter(op).map_or(0, Counter::get);
                expo.sample(
                    "leased_ops_total",
                    &[("shard", shard_value), ("op", op)],
                    value,
                );
            }
        }

        self.per_shard_counter(&mut expo, &labels, "leased_submit_demands_total", |s| {
            s.submit_demands.get()
        });
        self.per_shard_counter(&mut expo, &labels, "leased_clamped_timestamps_total", |s| {
            s.clamped_timestamps.get()
        });
        self.per_shard_gauge(&mut expo, &labels, "leased_mailbox_depth", |s| {
            s.mailbox_depth.get()
        });
        self.per_shard_gauge(&mut expo, &labels, "leased_mailbox_high_watermark", |s| {
            s.mailbox_high_watermark.get()
        });

        expo.family(
            "leased_micro_batch_size",
            "histogram",
            "submits collapsed into one engine call (all shards)",
        );
        expo.histogram(
            "leased_micro_batch_size",
            &[],
            &self.merged(|s| s.micro_batch_len.snapshot()),
        );
        expo.family(
            "leased_submit_latency_ns",
            "histogram",
            "server-side submit latency in nanoseconds",
        );
        expo.histogram(
            "leased_submit_latency_ns",
            &[],
            &self.submit_latency_ns.snapshot(),
        );
        expo.family(
            "leased_snapshot_duration_ns",
            "histogram",
            "shard snapshot serialization time in nanoseconds",
        );
        expo.histogram(
            "leased_snapshot_duration_ns",
            &[],
            &self.merged(|s| s.snapshot_ns.snapshot()),
        );
        expo.family(
            "leased_restore_duration_ns",
            "histogram",
            "shard restore-from-snapshot time in nanoseconds",
        );
        expo.histogram(
            "leased_restore_duration_ns",
            &[],
            &self.merged(|s| s.restore_ns.snapshot()),
        );

        let transport: &[(&str, &Counter)] = &[
            ("leased_connections_total", &self.transport.connections),
            ("leased_frames_read_total", &self.transport.frames_read),
            (
                "leased_frames_written_total",
                &self.transport.frames_written,
            ),
            ("leased_bytes_read_total", &self.transport.bytes_read),
            ("leased_bytes_written_total", &self.transport.bytes_written),
            (
                "leased_oversized_frames_total",
                &self.transport.oversized_frames,
            ),
        ];
        for (name, counter) in transport {
            expo.family(name, "counter", "transport accounting");
            expo.sample(name, &[], counter.get());
        }
        expo.finish()
    }

    fn per_shard_counter(
        &self,
        expo: &mut Exposition,
        labels: &[String],
        name: &str,
        get: impl Fn(&ShardMetrics) -> u64,
    ) {
        expo.family(name, "counter", "per-shard counter");
        self.per_shard_samples(expo, labels, name, get);
    }

    fn per_shard_gauge(
        &self,
        expo: &mut Exposition,
        labels: &[String],
        name: &str,
        get: impl Fn(&ShardMetrics) -> u64,
    ) {
        expo.family(name, "gauge", "per-shard gauge");
        self.per_shard_samples(expo, labels, name, get);
    }

    fn per_shard_samples(
        &self,
        expo: &mut Exposition,
        labels: &[String],
        name: &str,
        get: impl Fn(&ShardMetrics) -> u64,
    ) {
        for (index, shard) in self.shards.iter().enumerate() {
            let Some(shard_value) = labels.get(index) else {
                continue;
            };
            expo.sample(name, &[("shard", shard_value)], get(shard));
        }
    }

    /// Per-shard histograms merged into one daemon-wide snapshot.
    fn merged(&self, snap: impl Fn(&ShardMetrics) -> HistogramSnapshot) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for shard in &self.shards {
            merged.merge(&snap(shard));
        }
        merged
    }
}

/// Largest HTTP request head the scrape responder will read before
/// answering 400 — scrapes are a request line and a handful of headers.
const MAX_SCRAPE_HEAD: u64 = 8 * 1024;

/// How long a scrape connection may stall before being dropped. The
/// accept loop is sequential, so without this a client that connects and
/// never finishes its request head would block every later scrape.
const SCRAPE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(2);

/// Serves `GET /metrics` scrapes on `listener` until the process exits.
/// One connection at a time: a scrape is a render and a write, and
/// monitoring traffic never needs concurrency.
pub fn serve_metrics(listener: TcpListener, metrics: Arc<DaemonMetrics>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(SCRAPE_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SCRAPE_TIMEOUT));
        answer_scrape(stream, &metrics);
    }
}

/// Reads one HTTP/1.1 request head and answers it; the connection closes
/// after the response either way.
fn answer_scrape(stream: TcpStream, metrics: &DaemonMetrics) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half.take(MAX_SCRAPE_HEAD));
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain the headers so the peer is not mid-write when we respond.
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
            Err(_) => return,
        }
    }
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = match (method, path) {
        ("GET", "/metrics" | "/") => ("200 OK", metrics.render()),
        ("GET", _) => ("404 Not Found", "not found; scrape /metrics\n".to_string()),
        _ => ("405 Method Not Allowed", "GET only\n".to_string()),
    };
    let mut writer = stream;
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    let _ = writer.write_all(body.as_bytes());
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_covers_every_family_in_fixed_order() {
        let metrics = DaemonMetrics::new(2);
        let shard0 = metrics.shard(0).unwrap();
        shard0.ops_submit.add(3);
        shard0.submit_demands.add(3);
        shard0.clamped_timestamps.inc();
        shard0.mailbox_high_watermark.record_max(7);
        shard0.micro_batch_len.record(3);
        metrics.transport.frames_read.add(4);
        metrics.submit_latency_ns.record(1000);

        let text = metrics.render();
        assert_eq!(text, metrics.render(), "rendering is deterministic");
        let families = [
            "leased_ops_total",
            "leased_submit_demands_total",
            "leased_clamped_timestamps_total",
            "leased_mailbox_depth",
            "leased_mailbox_high_watermark",
            "leased_micro_batch_size",
            "leased_submit_latency_ns",
            "leased_snapshot_duration_ns",
            "leased_restore_duration_ns",
            "leased_connections_total",
            "leased_frames_read_total",
            "leased_frames_written_total",
            "leased_bytes_read_total",
            "leased_bytes_written_total",
            "leased_oversized_frames_total",
        ];
        let mut last = 0;
        for family in families {
            let marker = format!("# TYPE {family} ");
            let at = text
                .find(&marker)
                .unwrap_or_else(|| panic!("family {family} missing from exposition:\n{text}"));
            assert!(at >= last, "family {family} out of order");
            last = at;
        }
        assert!(text.contains("leased_ops_total{shard=\"0\",op=\"submit\"} 3"));
        assert!(text.contains("leased_ops_total{shard=\"1\",op=\"submit\"} 0"));
        assert!(text.contains("leased_submit_demands_total{shard=\"0\"} 3"));
        assert!(text.contains("leased_clamped_timestamps_total{shard=\"0\"} 1"));
        assert!(text.contains("leased_mailbox_high_watermark{shard=\"0\"} 7"));
        assert!(text.contains("leased_frames_read_total 4"));
        assert!(text.contains("leased_submit_latency_ns_count 1"));
        assert_eq!(metrics.total_submit_demands(), 3);
    }

    #[test]
    fn every_op_label_resolves_to_a_counter() {
        let shard = ShardMetrics::new();
        for op in OPS {
            assert!(shard.op_counter(op).is_some(), "{op}");
        }
        assert!(shard.op_counter("mystery").is_none());
    }
}
