//! Tests of the benchmark itself, against in-process daemons:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::bench::{drive_workload, end_to_end, verify};
use crate::daemon::Launcher;
use crate::ladder::traced;
use crate::reference::Reference;
use crate::workload::{OpStream, Workload};
use leased::protocol::{self, Request};

fn encoded_stream(workload: Workload, seed: u64) -> Vec<u8> {
    let mut stream = OpStream::new(workload, seed);
    let mut bytes = Vec::new();
    for _ in 0..3_000 {
        protocol::queue_frame(&mut bytes, &protocol::encode(&stream.next_frame())).unwrap();
    }
    bytes
}

#[test]
fn a_seed_yields_byte_identical_op_streams() {
    for workload in Workload::ALL {
        assert_eq!(
            encoded_stream(workload, 7),
            encoded_stream(workload, 7),
            "{}",
            workload.name()
        );
        assert_ne!(
            encoded_stream(workload, 7),
            encoded_stream(workload, 8),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn stream_times_never_decrease_and_closed_loops_only_demand() {
    for workload in Workload::ALL {
        let mut stream = OpStream::new(workload, 3);
        let mut last = 0;
        for _ in 0..20_000 {
            let frame = stream.next_frame();
            // The closed loops' reads come as probes after the drive.
            assert!(
                workload.read_probes() == 0 || !matches!(frame, Request::ListActive { .. }),
                "{}: a read in a closed-loop stream",
                workload.name()
            );
            let times: Vec<u64> = match frame {
                Request::Submit { time, .. }
                | Request::ListActive { time, .. }
                | Request::ForceRelease { time, .. } => vec![time],
                Request::SubmitBatch { entries } => entries.iter().map(|&(_, t)| t).collect(),
                other => panic!("unexpected frame {other:?}"),
            };
            for time in times {
                assert!(time >= last, "{}: time went back", workload.name());
                last = time;
            }
        }
        assert!(last > 0, "{}: time never advanced", workload.name());
    }
}

#[test]
fn the_reference_check_catches_a_perturbed_reply() {
    for workload in Workload::ALL {
        let (daemon, _) = Launcher::InProcess.start().unwrap();
        let mut session = drive_workload(&daemon, workload, 5, 0.3).unwrap();
        daemon.stop().unwrap();
        assert_eq!(session.reads.log.len(), workload.read_probes());
        let clean = verify(&session, &mut Reference::new());
        assert!(clean.correct(), "{}: {clean:?}", workload.name());

        // Flip one byte of a reply the reference can predict.
        let exchange = session
            .main
            .log
            .iter_mut()
            .find(|e| e.reply.contains("true"))
            .unwrap();
        exchange.reply = exchange.reply.replacen("true", "false", 1);
        let perturbed = verify(&session, &mut Reference::new());
        assert!(perturbed.failed > 0, "{}: {perturbed:?}", workload.name());
        assert!(!perturbed.correct());
    }
}

#[test]
fn the_reference_check_catches_a_wrong_lease_list() {
    let (daemon, _) = Launcher::InProcess.start().unwrap();
    let mut session = drive_workload(&daemon, Workload::MixedOpen, 9, 0.3).unwrap();
    daemon.stop().unwrap();
    let read = session
        .main
        .log
        .iter_mut()
        .find(|e| e.reply.contains("\"end\":"))
        .expect("some read lists a lease");
    read.reply = read.reply.replacen("\"end\":", "\"end\":1", 1);
    let verdict = verify(&session, &mut Reference::new());
    assert_eq!(verdict.failed, 1, "{verdict:?}");
}

#[test]
fn smoke_mode_runs_every_workload() {
    for workload in Workload::ALL {
        let outcome = end_to_end(&Launcher::InProcess, workload, 1, 0.5).unwrap();
        assert!(
            outcome.verdict.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.verdict
        );
        assert_eq!(outcome.metrics.len(), 8);
        assert!(outcome
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));

        let outcome = traced(&Launcher::InProcess, workload, 1, 0.5).unwrap();
        assert!(
            outcome.verdict.correct(),
            "{}: {:?}",
            workload.name(),
            outcome.verdict
        );
        assert_eq!(outcome.metrics.len(), 26);
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
    }
}
