//! End-to-end daemon tests over real TCP: submit / list-active /
//! force-release / stats round-trips, and the snapshot-on-shutdown →
//! restore-on-start contract (byte-identical stats across a restart) —
//! the same sequence the CI `leased` job drives through the binary.

use leased::client::Client;
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
    let dir = std::env::temp_dir().join(format!("leased-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a daemon on an ephemeral port and serves it on a background
/// thread; returns the address and the server thread's join handle.
fn start(config: &ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, thread)
}

#[test]
fn daemon_serves_the_full_wire_vocabulary() {
    let config = ServerConfig {
        shards: 3,
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();

    // Demands across tenants land on different shards and all get leases.
    for tenant in 0..9u64 {
        client.submit(tenant, tenant).unwrap();
    }
    let leases = client.list_active(4, 4).unwrap();
    assert_eq!(leases.len(), 1);
    assert_eq!(leases[0].tenant, 4);
    assert!(leases[0].start <= 4 && 4 < leases[0].end);

    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 3);
    assert_eq!(stats.requests(), 9);
    assert!(stats.total_cost() > 0.0);
    assert_eq!(stats.leases_bought(), 9, "each first demand buys one lease");

    // Force-release empties the tenant's active list without charging.
    // Tenant 8 was served last on its shard, so its day lease is still
    // live at the shard clock.
    assert_eq!(client.list_active(8, 8).unwrap().len(), 1);
    let cost_before = client.stats().unwrap().total_cost();
    client.force_release(8, 8).unwrap();
    assert!(client.list_active(8, 8).unwrap().is_empty());
    let after = client.stats().unwrap();
    assert_eq!(after.total_cost(), cost_before, "force-release is free");

    // Snapshot without a configured directory is an operator error; the
    // daemon stays up.
    assert!(client.snapshot().is_err());
    client.submit(100, 50).unwrap();

    client.shutdown().unwrap();
    server.join().unwrap();
}

#[test]
fn stats_are_deterministic_for_the_same_traffic() {
    let run = || {
        let (addr, server) = start(&ServerConfig::new(structure()));
        let mut client = Client::connect(addr).unwrap();
        for i in 0..200u64 {
            client.submit(i % 23, i / 2).unwrap();
        }
        let stats = client.stats().unwrap();
        client.shutdown().unwrap();
        server.join().unwrap();
        stats.to_json()
    };
    assert_eq!(run(), run(), "same traffic, same bytes");
}

#[test]
fn shutdown_snapshots_and_restart_restores_byte_identical_stats() {
    let dir = temp_dir("restart");
    let config = ServerConfig {
        shards: 4,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::new(structure())
    };

    // First life: drive traffic, capture stats, shut down (snapshots).
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..300u64 {
        let tenant = i % 37;
        client.submit(tenant, i / 3).unwrap();
        if i % 50 == 49 {
            client.force_release(tenant, i / 3).unwrap();
        }
    }
    let before = client.stats().unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
    for shard in 0..4 {
        assert!(
            dir.join(format!("shard-{shard}.json")).exists(),
            "shutdown persists every shard"
        );
    }

    // Second life: restore from the same directory, stats byte-identical.
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    let after = client.stats().unwrap();
    assert_eq!(after.to_json(), before.to_json(), "restart is lossless");

    // The restored daemon keeps serving (clock resumes monotonically).
    client.submit(3, 500).unwrap();
    assert!(client.stats().unwrap().requests() > after.requests());
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `submit-batch` is not atomic across shards: sub-batches apply in
/// shard-index order, so when a later shard fails, the earlier shards'
/// demands stay served while the reply is an error.
#[test]
fn submit_batch_keeps_earlier_shards_applied_when_a_later_shard_fails() {
    let dir = temp_dir("partial-batch");
    std::fs::create_dir_all(&dir).unwrap();
    // A corrupt snapshot makes shard 1 answer every call with `Failed`.
    std::fs::write(dir.join("shard-1.json"), "not json").unwrap();
    let config = ServerConfig {
        shards: 2,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::new(structure())
    };
    let (addr, _server) = start(&config);
    let mut client = Client::connect(addr).unwrap();

    // Tenants 0 and 2 live on shard 0, tenant 1 on the failing shard 1.
    assert!(client.submit_batch(&[(0, 5), (1, 5), (2, 6)]).is_err());
    let leases = client.list_active(0, 5).unwrap();
    assert_eq!(leases.len(), 1, "shard 0's sub-batch stays applied");
    assert_eq!(leases[0].tenant, 0);
    assert_eq!(client.list_active(2, 6).unwrap().len(), 1);
    assert!(client.list_active(1, 5).is_err());

    // The failed shard cannot snapshot, so the daemon refuses to shut
    // down (no state is silently dropped); its thread is left running.
    assert!(client.shutdown().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI leased-job contract for bounded retention: a bounded daemon
/// serves the exact same traffic as a full-retention one with byte-equal
/// `stats`, while each shard holds at most `n` decisions in memory and the
/// cumulative total keeps counting.
#[test]
fn bounded_retention_matches_full_stats_with_capped_traces() {
    use leasing_core::engine::DecisionRetention;
    let bound = 16usize;
    let drive = |retention: DecisionRetention| {
        let config = ServerConfig {
            shards: 2,
            retention,
            ..ServerConfig::new(structure())
        };
        let (addr, server) = start(&config);
        let mut client = Client::connect(addr).unwrap();
        for i in 0..400u64 {
            client.submit(i % 19, i / 2).unwrap();
        }
        let stats = client.stats().unwrap();
        let retention = client.retention_info().unwrap();
        client.shutdown().unwrap();
        server.join().unwrap();
        (stats.to_json(), retention)
    };

    let (full_stats, full_info) = drive(DecisionRetention::Full);
    let (bounded_stats, bounded_info) = drive(DecisionRetention::Bounded(bound));

    assert_eq!(bounded_stats, full_stats, "retention never changes stats");
    assert_eq!(bounded_info.len(), 2);
    for (full, bounded) in full_info.iter().zip(&bounded_info) {
        assert_eq!(full.mode, "full");
        assert_eq!(bounded.mode, "bounded");
        assert_eq!(bounded.limit, bound as u64);
        assert!(
            bounded.retained <= bound as u64,
            "shard holds {} > {bound} decisions",
            bounded.retained
        );
        assert_eq!(
            bounded.total, full.total,
            "the cumulative decision count keeps counting past eviction"
        );
        assert_eq!(full.retained, full.total, "full retention keeps the trace");
        assert!(full.total > bound as u64, "the workload overflows the ring");
    }
}

#[test]
fn malformed_frames_get_an_error_without_killing_the_connection() {
    use leased::protocol::{read_frame, write_frame};
    let (addr, server) = start(&ServerConfig::new(structure()));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, "{\"op\":\"mystery\"}").unwrap();
    let answer = read_frame(&mut stream).unwrap();
    assert!(answer.contains("\"ok\":false"), "{answer}");
    // The connection survives; a valid request still works.
    write_frame(&mut stream, "{\"op\":\"stats\"}").unwrap();
    assert!(read_frame(&mut stream).unwrap().contains("\"ok\":true"));
    drop(stream);
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
}
