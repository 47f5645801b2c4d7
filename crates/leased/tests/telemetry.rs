//! End-to-end tests of the daemon's observability surface over real TCP:
//! the `metrics` and `trace-dump` wire ops, the exposition's stable family
//! ordering, and the pin that telemetry never perturbs the deterministic
//! surfaces (stats JSON and snapshot bytes are identical with tracing off
//! and on).

use leased::client::Client;
use leased::error::LeasedError;
use leased::server::{Server, ServerConfig};
use leasing_core::lease::{LeaseStructure, LeaseType};
use std::net::SocketAddr;
use std::path::PathBuf;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leased-telemetry-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(config: &ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, thread)
}

/// Sums every sample of a counter family (bare or labelled), skipping
/// `_bucket`/`_sum`/`_count` sibling series — the same parse the loadgen
/// cross-check uses.
fn metric_sum(text: &str, family: &str) -> u64 {
    let mut total = 0u64;
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(family) else {
            continue;
        };
        if !(rest.starts_with('{') || rest.starts_with(' ')) {
            continue;
        }
        if let Some(value) = rest.rsplit(' ').next() {
            if let Ok(v) = value.trim().parse::<u64>() {
                total += v;
            }
        }
    }
    total
}

#[test]
fn metrics_op_reports_counts_that_match_the_traffic() {
    let config = ServerConfig {
        shards: 2,
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();

    for tenant in 0..10u64 {
        client.submit(tenant, tenant / 2).unwrap();
    }
    let batch: Vec<(u64, u64)> = (0..6u64).map(|i| (i % 4, 5 + i)).collect();
    assert_eq!(client.submit_batch(&batch).unwrap(), 6);

    let text = client.metrics_text().unwrap();
    assert_eq!(
        metric_sum(&text, "leased_submit_demands_total"),
        16,
        "10 singles + 6 batch entries\n{text}"
    );
    assert!(
        text.contains("leased_ops_total{shard=\"0\",op=\"submit\"}"),
        "{text}"
    );
    assert!(metric_sum(&text, "leased_connections_total") >= 1);
    assert!(metric_sum(&text, "leased_frames_read_total") >= 11);
    assert_eq!(
        metric_sum(&text, "leased_mailbox_depth"),
        0,
        "all mail drained once responses arrived\n{text}"
    );
    // Micro-batch histogram counted every demand.
    assert!(text.contains("leased_micro_batch_size_sum 16"), "{text}");

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn a_tenant_id_near_u64_max_allocates_no_dense_element_table() {
    let config = ServerConfig {
        shards: 1,
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    let hostile = u64::MAX - 1;
    client.submit(hostile, 0).unwrap();
    client.submit(3, 0).unwrap();

    let text = client.metrics_text().unwrap();
    assert_eq!(metric_sum(&text, "leased_engine_elements"), 2, "{text}");
    assert!(
        metric_sum(&text, "leased_element_table_entries") <= 8,
        "the id -> slot table is sized by the tenant count, not the id\n{text}"
    );
    for tenant in [hostile, 3] {
        let leases = client.list_active(tenant, 0).unwrap();
        assert_eq!(leases.len(), 1, "tenant {tenant}: {leases:?}");
        assert_eq!(leases[0].tenant, tenant);
    }

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn state_gauges_count_retained_decisions_and_released_leases() -> Result<(), LeasedError> {
    use leasing_core::engine::DecisionRetention;
    let scrape = |retention: DecisionRetention| -> Result<_, LeasedError> {
        let config = ServerConfig {
            shards: 2,
            retention,
            ..ServerConfig::new(structure())
        };
        let (addr, server) = start(&config);
        let mut client = Client::connect(addr)?;
        for tenant in 0..6u64 {
            client.submit(tenant, 0)?;
        }
        client.force_release(3, 0)?;
        let text = client.metrics_text()?;
        let gauges = (
            metric_sum(&text, "leased_retained_decisions"),
            metric_sum(&text, "leased_released_leases"),
        );
        // A request after the released day lease [0, 1) ends forgets it.
        client.submit(3, 1)?;
        let released_after = metric_sum(&client.metrics_text()?, "leased_released_leases");
        client.shutdown()?;
        server
            .join()
            .map_err(|_| LeasedError::Protocol("the server thread panicked".to_string()))?;
        Ok((gauges, released_after))
    };
    // Six day leases and one release charge.
    assert_eq!(scrape(DecisionRetention::Full)?, ((7, 1), 0));
    assert_eq!(
        scrape(ServerConfig::new(structure()).retention)?,
        ((0, 1), 0),
        "the default keeps no decision trace"
    );
    Ok(())
}

#[test]
fn exposition_families_appear_in_pinned_order_over_the_wire() {
    let (addr, server) = start(&ServerConfig::new(structure()));
    let mut client = Client::connect(addr).unwrap();
    client.submit(1, 1).unwrap();
    let text = client.metrics_text().unwrap();

    let families = [
        "leased_ops_total",
        "leased_submit_demands_total",
        "leased_clamped_timestamps_total",
        "leased_mailbox_depth",
        "leased_mailbox_high_watermark",
        "leased_engine_elements",
        "leased_element_table_entries",
        "leased_retained_decisions",
        "leased_released_leases",
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
    let mut last = 0usize;
    for family in families {
        let header = format!("# TYPE {family} ");
        let at = text.find(&header).unwrap_or_else(|| {
            panic!("family {family} missing from exposition:\n{text}");
        });
        assert!(at >= last, "family {family} out of order:\n{text}");
        last = at;
    }

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn trace_dump_returns_bounded_per_shard_rings_in_shard_order() {
    let config = ServerConfig {
        shards: 2,
        trace_capacity: 8,
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();

    // Tenant 0 hits shard 0 twelve times (overflowing its 8-slot ring);
    // tenant 1 hits shard 1 three times.
    for i in 0..12u64 {
        client.submit(0, i).unwrap();
    }
    for i in 0..3u64 {
        client.submit(1, i).unwrap();
    }

    let events = client.trace_dump().unwrap();
    let shard0: Vec<_> = events.iter().filter(|e| e.shard == 0).collect();
    let shard1: Vec<_> = events.iter().filter(|e| e.shard == 1).collect();
    assert_eq!(shard0.len(), 8, "ring keeps only the newest 8");
    assert_eq!(shard1.len(), 3);
    // Shard 0's ring evicted seqs 1..=4: the oldest kept event is seq 5.
    assert_eq!(shard0.first().map(|e| e.seq), Some(5));
    assert!(shard0.windows(2).all(|w| w[0].seq < w[1].seq));
    assert!(events.iter().all(|e| e.op == "submit" && e.outcome == "ok"));
    // Events arrive grouped by shard, shard 0 first.
    let first_shard1 = events.iter().position(|e| e.shard == 1).unwrap();
    assert!(events.iter().take(first_shard1).all(|e| e.shard == 0));

    // A stale timestamp is clamped and traced as such (the new event
    // lands at the tail of shard 0's ring).
    client.submit(0, 0).unwrap();
    let events = client.trace_dump().unwrap();
    let last_shard0 = events.iter().rfind(|e| e.shard == 0);
    assert_eq!(
        last_shard0.map(|e| e.outcome.as_str()),
        Some("clamped"),
        "{events:?}"
    );

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn trace_capacity_zero_disables_tracing() {
    let config = ServerConfig {
        shards: 1,
        trace_capacity: 0,
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..5u64 {
        client.submit(i, i).unwrap();
    }
    assert_eq!(client.trace_dump().unwrap(), Vec::new());
    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn telemetry_never_perturbs_stats_or_snapshot_bytes() {
    let run = |trace_capacity: usize, tag: &str| {
        let dir = temp_dir(tag);
        let config = ServerConfig {
            shards: 3,
            trace_capacity,
            snapshot_dir: Some(dir.clone()),
            ..ServerConfig::new(structure())
        };
        let (addr, server) = start(&config);
        let mut client = Client::connect(addr).unwrap();
        for i in 0..250u64 {
            client.submit(i % 17, i / 4).unwrap();
            if i % 40 == 39 {
                client.force_release(i % 17, i / 4).unwrap();
            }
        }
        let batch: Vec<(u64, u64)> = (0..30u64).map(|i| (i % 17, 70 + i / 8)).collect();
        client.submit_batch(&batch).unwrap();
        // Exercising the observability surface must not disturb anything.
        let _ = client.metrics_text().unwrap();
        let _ = client.trace_dump().unwrap();
        let stats = client.stats().unwrap().to_json();
        client.shutdown().unwrap();
        server.join().unwrap();
        let snapshots: Vec<String> = (0..3)
            .map(|shard| std::fs::read_to_string(dir.join(format!("shard-{shard}.json"))).unwrap())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (stats, snapshots)
    };

    let (stats_off, snaps_off) = run(0, "trace-off");
    let (stats_on, snaps_on) = run(1024, "trace-on");
    assert_eq!(stats_off, stats_on, "stats bytes independent of tracing");
    assert_eq!(snaps_off, snaps_on, "snapshot bytes independent of tracing");
}
