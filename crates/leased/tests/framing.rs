//! Wire-framing edge cases under pipelining, over real TCP: frames split
//! across read boundaries, bursts of back-to-back frames in one segment,
//! oversized frames rejected mid-pipeline without desyncing the stream,
//! and the deterministic cross-shard split of `submit-batch` — pinned
//! against the lockstep single-submit daemon byte-for-byte.

use leased::client::Client;
use leased::protocol::{encode, read_frame, Request, Response, MAX_FRAME_LEN};
use leased::server::{Server, ServerConfig};
use leasing_core::lease::{LeaseStructure, LeaseType};
use std::io::Write;
use std::net::SocketAddr;

fn structure() -> LeaseStructure {
    LeaseStructure::new(vec![
        LeaseType::new(1, 1.0),
        LeaseType::new(4, 2.5),
        LeaseType::new(16, 6.0),
    ])
    .unwrap()
}

fn start(config: &ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, thread)
}

fn shutdown(addr: SocketAddr, server: std::thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap();
}

/// One length-delimited frame as raw bytes.
fn raw_frame(payload: &str) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

/// A frame arriving in two TCP pushes — the split landing both inside the
/// length prefix and inside the payload — is reassembled transparently.
#[test]
fn partial_frames_straddling_read_boundaries_are_reassembled() {
    let (addr, server) = start(&ServerConfig::new(structure()));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    let frame = raw_frame(&encode(&Request::Submit { tenant: 1, time: 0 }));
    for split in [2usize, 4, frame.len() / 2] {
        let (head, tail) = frame.split_at(split);
        stream.write_all(head).unwrap();
        stream.flush().unwrap();
        // Give the daemon a chance to observe the truncated prefix before
        // the rest arrives.
        std::thread::sleep(std::time::Duration::from_millis(20));
        stream.write_all(tail).unwrap();
        stream.flush().unwrap();
        let answer = read_frame(&mut stream).unwrap();
        assert!(answer.contains("\"ok\":true"), "split at {split}: {answer}");
    }

    drop(stream);
    shutdown(addr, server);
}

/// A burst of back-to-back frames delivered in one segment yields exactly
/// one in-order response per frame.
#[test]
fn back_to_back_frames_in_one_segment_get_one_response_each() {
    let (addr, server) = start(&ServerConfig::new(structure()));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    let mut burst = Vec::new();
    let frames = 16u64;
    for i in 0..frames {
        burst.extend_from_slice(&raw_frame(&encode(&Request::Submit {
            tenant: i % 5,
            time: i,
        })));
    }
    burst.extend_from_slice(&raw_frame(&encode(&Request::Stats)));
    stream.write_all(&burst).unwrap();
    stream.flush().unwrap();

    for i in 0..frames {
        let answer = read_frame(&mut stream).unwrap();
        assert!(answer.contains("\"ok\":true"), "frame {i}: {answer}");
    }
    let stats = read_frame(&mut stream).unwrap();
    assert!(
        stats.contains("\"requests\":"),
        "last response answers the stats frame: {stats}"
    );

    drop(stream);
    shutdown(addr, server);
}

/// An oversized frame mid-pipeline draws an error response while the
/// frames queued before and after it are answered normally — the stream
/// stays frame-aligned.
#[test]
fn oversized_frames_are_rejected_mid_pipeline_without_desync() {
    let (addr, server) = start(&ServerConfig::new(structure()));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();

    let oversized_len = MAX_FRAME_LEN + 1;
    stream
        .write_all(&raw_frame(&encode(&Request::Submit { tenant: 7, time: 3 })))
        .unwrap();
    stream
        .write_all(&u32::try_from(oversized_len).unwrap().to_le_bytes())
        .unwrap();
    // Stream the too-large payload in slabs so the test doesn't hold a
    // 16 MiB buffer of its own.
    let slab = vec![b'x'; 1 << 20];
    let mut remaining = oversized_len;
    while remaining > 0 {
        let n = remaining.min(slab.len());
        stream.write_all(slab.get(..n).unwrap()).unwrap();
        remaining -= n;
    }
    stream
        .write_all(&raw_frame(&encode(&Request::Submit { tenant: 7, time: 4 })))
        .unwrap();
    stream.flush().unwrap();

    let first = read_frame(&mut stream).unwrap();
    assert!(first.contains("\"ok\":true"), "{first}");
    let rejected = read_frame(&mut stream).unwrap();
    assert!(rejected.contains("\"ok\":false"), "{rejected}");
    assert!(rejected.contains("exceeds"), "{rejected}");
    let last = read_frame(&mut stream).unwrap();
    assert!(last.contains("\"ok\":true"), "{last}");

    drop(stream);
    shutdown(addr, server);
}

/// Drives the same `(tenant, time)` stream through a daemon, either as
/// lockstep singles, as `submit-batch` frames of `batch` entries, or as a
/// deep pipeline of singles, and returns the resulting stats JSON.
fn stats_after(ops: &[(u64, u64)], shards: usize, batch: usize, pipelined: bool) -> String {
    let config = ServerConfig {
        shards,
        ..ServerConfig::new(structure())
    };
    let (addr, server) = start(&config);
    let mut client = Client::connect(addr).unwrap();
    if pipelined {
        // Every frame queued before any answer is read: the server reads
        // them in bursts and flushes its answers once per burst.
        for &(tenant, time) in ops {
            client.send(&Request::Submit { tenant, time }).unwrap();
        }
        client.flush().unwrap();
        for _ in ops {
            assert!(matches!(client.recv().unwrap(), Response::Ok));
        }
    } else if batch <= 1 {
        for &(tenant, time) in ops {
            client.submit(tenant, time).unwrap();
        }
    } else {
        for chunk in ops.chunks(batch) {
            let served = client.submit_batch(chunk).unwrap();
            assert_eq!(served, chunk.len() as u64);
        }
    }
    let stats = client.stats().unwrap().to_json();
    client.shutdown().unwrap();
    server.join().unwrap();
    stats
}

/// A `submit-batch` frame mixing tenants on different shards splits
/// deterministically: per-tenant order is preserved, and the resulting
/// per-shard engines match a lockstep single-submit run byte-for-byte.
#[test]
fn submit_batch_splits_across_shards_like_lockstep_singles() {
    let ops: Vec<(u64, u64)> = (0..240u64).map(|i| (i % 23, i / 23)).collect();
    let lockstep = stats_after(&ops, 4, 1, false);
    for batch in [7usize, 64, 240] {
        assert_eq!(
            lockstep,
            stats_after(&ops, 4, batch, false),
            "batch size {batch} must match lockstep byte-for-byte"
        );
    }
}

/// A flooded pipeline of singles matches the lockstep run byte-for-byte.
#[test]
fn micro_batched_mailbox_drain_matches_lockstep() {
    let ops: Vec<(u64, u64)> = (0..500u64).map(|i| (i % 13, i / 13)).collect();
    let lockstep = stats_after(&ops, 4, 1, false);
    let flooded = stats_after(&ops, 4, 1, true);
    assert_eq!(lockstep, flooded, "micro-batching must not change results");
}
