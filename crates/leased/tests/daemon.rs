//! End-to-end daemon tests over real TCP: submit / list-active /
//! force-release / stats round-trips, and the snapshot-on-shutdown →
//! restore-on-start contract (byte-identical stats across a restart) —
//! the same sequence the CI `leased` job drives through the binary.

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

/// Four connections submit concurrently, each to its own tenants spread
/// over every shard: per-shard locking neither loses nor duplicates an
/// operation.
#[test]
fn concurrent_connections_lose_and_duplicate_nothing() {
    const CLIENTS: u64 = 4;
    const TENANTS_PER_CLIENT: u64 = 24;
    const REPEATS: u64 = 3;
    let (addr, server) = start(&ServerConfig::new(structure()));
    let barrier = std::sync::Barrier::new(CLIENTS as usize);
    std::thread::scope(|scope| {
        for client_index in 0..CLIENTS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let tenants =
                    client_index * TENANTS_PER_CLIENT..(client_index + 1) * TENANTS_PER_CLIENT;
                barrier.wait();
                // Every demand at t = 0, so no timestamp clamps; repeats
                // are covered by the first demand's lease.
                for _ in 0..REPEATS {
                    for tenant in tenants.clone() {
                        client.submit(tenant, 0).unwrap();
                    }
                }
                for tenant in tenants {
                    let leases = client.list_active(tenant, 0).unwrap();
                    assert_eq!(leases.len(), 1, "tenant {tenant}");
                    assert_eq!(leases[0].tenant, tenant);
                }
            });
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let tenants = CLIENTS * TENANTS_PER_CLIENT;
    assert_eq!(stats.requests() as u64, tenants * REPEATS);
    assert_eq!(stats.leases_bought() as u64, tenants);
    assert_eq!(
        stats.total_cost(),
        tenants as f64,
        "one day lease per tenant"
    );
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// Snapshots replace `shard-<i>.json` through a temporary file: a stray
/// torn `.tmp` from a crash mid-snapshot does not affect restore, and a
/// snapshot leaves no `.tmp` behind.
#[test]
fn snapshots_are_written_atomically() {
    let dir = temp_dir("atomic");
    let config = ServerConfig {
        shards: 2,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    for i in 0..40u64 {
        client.submit(i % 7, i).unwrap();
    }
    let before = client.stats().unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();

    let complete = std::fs::read_to_string(dir.join("shard-0.json")).unwrap();
    let torn = &complete[..complete.len() / 2];
    std::fs::write(dir.join("shard-0.json.tmp"), torn).unwrap();

    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().to_json(), before.to_json());
    client.snapshot().unwrap();
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
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

/// A snapshot directory restarts under another retention mode: one
/// written by a `Full` daemon restarts under the default (aggregate-only,
/// dropping the trace it restored), and one written by a default daemon
/// restarts under `Full`. Either way `stats` is byte-identical across the
/// restart, and later `submit`/`list-active`/`stats` replies match those
/// of a daemon that never restarted.
#[test]
fn snapshots_restart_across_retention_modes() -> Result<(), Box<dyn std::error::Error>> {
    use leasing_core::engine::DecisionRetention;
    let traffic = |client: &mut Client| -> Result<(), LeasedError> {
        for i in 0..300u64 {
            let tenant = i % 37;
            client.submit(tenant, i / 3)?;
            if i % 50 == 49 {
                client.force_release(tenant, i / 3)?;
            }
        }
        Ok(())
    };
    // Later traffic, including reads at past times, some inside windows
    // released during `traffic`; returns every reply.
    let later = |client: &mut Client| -> Result<Vec<String>, LeasedError> {
        let mut replies = Vec::new();
        for i in 0..80u64 {
            client.submit(i % 41, 100 + i / 4)?;
            replies.push(format!("{:?}", client.list_active((i * 7) % 41, 90 + i)?));
        }
        for (tenant, time) in [(12u64, 16u64), (25, 33), (3, 99)] {
            replies.push(format!("{:?}", client.list_active(tenant, time)?));
        }
        replies.push(client.stats()?.to_json());
        Ok(replies)
    };
    let stop = |mut client: Client, server: std::thread::JoinHandle<()>| {
        client.shutdown()?;
        server.join().map_err(|_| "the server thread panicked")?;
        Ok::<(), Box<dyn std::error::Error>>(())
    };
    let default_retention = ServerConfig::new(structure()).retention;
    assert_eq!(default_retention, DecisionRetention::AggregateOnly);

    for (first, second) in [
        (DecisionRetention::Full, default_retention),
        (default_retention, DecisionRetention::Full),
    ] {
        let dir = temp_dir(&format!("retention-{first:?}"));
        let config = |retention| ServerConfig {
            snapshot_dir: Some(dir.clone()),
            retention,
            ..ServerConfig::new(structure())
        };

        // The reference daemon never restarts.
        let (addr, server) = start(&ServerConfig {
            retention: first,
            ..ServerConfig::new(structure())
        });
        let mut client = Client::connect(addr)?;
        traffic(&mut client)?;
        let expected = later(&mut client)?;
        stop(client, server)?;

        let (addr, server) = start(&config(first));
        let mut client = Client::connect(addr)?;
        traffic(&mut client)?;
        let before = client.stats()?.to_json();
        stop(client, server)?;

        let (addr, server) = start(&config(second));
        let mut client = Client::connect(addr)?;
        assert_eq!(
            client.stats()?.to_json(),
            before,
            "{first:?} -> {second:?}: restart is lossless"
        );
        let retention = client.retention_info()?;
        assert!(
            retention.iter().all(|shard| shard.retained == 0),
            "{retention:?}"
        );
        assert_eq!(later(&mut client)?, expected, "{first:?} -> {second:?}");
        stop(client, server)?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
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

/// A `shard-<i>.json` that exists but cannot be read (here: bytes that are
/// not UTF-8) refuses the bind with an error naming the file, and the file
/// is left untouched — serving fresh state would overwrite it on the next
/// `shutdown`.
#[test]
fn unreadable_snapshot_refuses_to_bind_and_is_left_untouched() {
    let dir = temp_dir("unreadable");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shard-0.json");
    let bytes = [0xff, 0xfe, b'{', b'}'];
    std::fs::write(&path, bytes).unwrap();
    let config = ServerConfig {
        shards: 2,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::new(structure())
    };
    let err = match Server::bind("127.0.0.1:0", &config) {
        Ok(_) => panic!("an unreadable snapshot must refuse the bind"),
        Err(err) => err,
    };
    assert!(
        matches!(err, LeasedError::UnreadableSnapshot { .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("shard-0.json"), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot directory is tied to the `--shards` it was written with:
/// routing is `tenant % shards`, so restoring it under another count
/// would strand tenants on shards that never see their traffic. Both
/// directions refuse the bind without touching the files; the same count
/// still restores byte-identical stats.
#[test]
fn snapshot_dir_is_tied_to_its_shard_count() {
    let dir = temp_dir("reshard");
    let config = |shards| ServerConfig {
        shards,
        snapshot_dir: Some(dir.clone()),
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config(4));
    let mut client = Client::connect(addr).unwrap();
    for (i, tenant) in [2u64, 4, 7, 2, 4].into_iter().enumerate() {
        client.submit(tenant, i as u64).unwrap();
    }
    let before = client.stats().unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
    let files: Vec<Vec<u8>> = (0..4)
        .map(|i| std::fs::read(dir.join(format!("shard-{i}.json"))).unwrap())
        .collect();

    // Fewer shards: shard-2.json and shard-3.json have no shard to go to.
    let fewer = Server::bind("127.0.0.1:0", &config(2)).err().unwrap();
    assert!(
        matches!(fewer, LeasedError::ShardCountMismatch { shards: 2, .. }),
        "{fewer:?}"
    );
    assert!(fewer.to_string().contains("shard-2.json"), "{fewer}");

    // More shards: shard 0 holds tenant 4, which 8 shards route to shard 4.
    let more = Server::bind("127.0.0.1:0", &config(8)).err().unwrap();
    assert!(
        matches!(more, LeasedError::ShardCountMismatch { shards: 8, .. }),
        "{more:?}"
    );
    assert!(more.to_string().contains("shard-0.json"), "{more}");
    assert!(more.to_string().contains("tenant 4"), "{more}");

    for (i, bytes) in files.iter().enumerate() {
        assert_eq!(
            &std::fs::read(dir.join(format!("shard-{i}.json"))).unwrap(),
            bytes,
            "a refused bind leaves shard-{i}.json untouched"
        );
    }

    let (addr, server) = start(&config(4));
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().to_json(), before.to_json());
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
