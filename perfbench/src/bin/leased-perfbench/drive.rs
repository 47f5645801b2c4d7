//! The load generator: closed- and open-loop drivers over one connection,
//! recording every exchange for the reference check and every frame's
//! latency in a preallocated buffer.

use crate::reference::Exchange;
use crate::workload::{demands, is_work};
use leased::protocol::{self, Request, Response};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Latency samples preallocated per phase; the buffers grow past this only
/// on phases longer than any the benchmark runs.
const SAMPLE_CAPACITY: usize = 1 << 20;

/// What one driven phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Every request sent, with its reply, in order.
    pub log: Vec<Exchange>,
    /// Nanoseconds per workload frame: from enqueue (closed loop) or from
    /// when the frame was due (open loop) to its decoded reply.
    pub latency_ns: Vec<u64>,
    /// The same, for `list-active` frames only.
    pub read_latency_ns: Vec<u64>,
    /// Wall time from the first send to the last reply.
    pub elapsed_s: f64,
    /// Ops whose frame the daemon answered with an error.
    pub error_ops: u64,
    /// Index in `log` of the first `stats` exchange, if any.
    pub checkpoint: Option<usize>,
    /// Daemon peak RSS sampled when that `stats` reply arrived.
    pub checkpoint_rss_mb: Option<f64>,
    /// Traced phases only: time spent encoding and writing frames.
    pub send_ns: u64,
    /// Traced phases only: time from a frame's send to its decoded reply
    /// (closed loop: time blocked in receive).
    pub recv_wait_ns: u64,
    /// Open loop only: how late the generator sent each frame.
    pub gen_lag_ns: Vec<u64>,
}

impl Phase {
    /// Workload frames sent (demands, reads, releases).
    pub fn work_frames(&self) -> u64 {
        self.log.iter().filter(|e| is_work(&e.request)).count() as u64
    }

    /// Demands plus reads plus releases sent.
    pub fn work_ops(&self) -> u64 {
        self.log
            .iter()
            .filter(|e| is_work(&e.request))
            .map(|e| crate::workload::ops(&e.request))
            .sum()
    }

    /// Demands sent.
    pub fn demands(&self) -> u64 {
        self.log.iter().map(|e| demands(&e.request)).sum()
    }

    /// Requests sent, in order.
    pub fn requests(&self) -> Vec<Request> {
        self.log.iter().map(|e| e.request.clone()).collect()
    }
}

/// Progress reported to a closed loop's frame source.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Seconds since the phase started.
    pub elapsed_s: f64,
    /// Demands sent so far.
    pub demands: u64,
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok(stream)
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Closed loop on one connection: sends the frames `next` yields, keeping
/// up to `depth` in flight, until it yields `None`. When `rss` is given it
/// is sampled as the first `stats` reply arrives. `traced` adds the send
/// and receive spans.
///
/// # Errors
///
/// Transport and decoding failures.
pub fn run_closed(
    addr: SocketAddr,
    depth: usize,
    traced: bool,
    rss: Option<&dyn Fn() -> Result<f64, String>>,
    mut next: impl FnMut(Progress) -> Option<Request>,
) -> Result<Phase, String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io("clone"))?);
    let mut writer = BufWriter::new(stream);
    let mut phase = Phase {
        latency_ns: Vec::with_capacity(SAMPLE_CAPACITY),
        read_latency_ns: Vec::with_capacity(SAMPLE_CAPACITY),
        ..Phase::default()
    };
    let mut inflight: VecDeque<(Instant, usize)> = VecDeque::with_capacity(depth);
    let started = Instant::now();
    let mut progress = Progress {
        elapsed_s: 0.0,
        demands: 0,
    };
    loop {
        progress.elapsed_s = started.elapsed().as_secs_f64();
        let Some(request) = next(progress) else { break };
        let enqueued = Instant::now();
        protocol::queue_frame(&mut writer, &protocol::encode(&request)).map_err(io("send"))?;
        progress.demands += demands(&request);
        phase.log.push(Exchange {
            request,
            reply: String::new(),
        });
        inflight.push_back((enqueued, phase.log.len() - 1));
        if inflight.len() >= depth {
            writer.flush().map_err(io("flush"))?;
            if traced {
                phase.send_ns += elapsed_ns(enqueued);
            }
            settle(&mut reader, &mut inflight, &mut phase, traced, rss)?;
        } else if traced {
            phase.send_ns += elapsed_ns(enqueued);
        }
    }
    let flushing = Instant::now();
    writer.flush().map_err(io("flush"))?;
    if traced {
        phase.send_ns += elapsed_ns(flushing);
    }
    while !inflight.is_empty() {
        settle(&mut reader, &mut inflight, &mut phase, traced, rss)?;
    }
    phase.elapsed_s = started.elapsed().as_secs_f64();
    Ok(phase)
}

fn settle(
    reader: &mut BufReader<TcpStream>,
    inflight: &mut VecDeque<(Instant, usize)>,
    phase: &mut Phase,
    traced: bool,
    rss: Option<&dyn Fn() -> Result<f64, String>>,
) -> Result<(), String> {
    let waiting = Instant::now();
    let payload = protocol::read_frame(reader).map_err(io("recv"))?;
    let response: Response = protocol::decode(&payload).map_err(|e| e.to_string())?;
    let done = Instant::now();
    if traced {
        phase.recv_wait_ns += nanos(done - waiting);
    }
    let Some((enqueued, index)) = inflight.pop_front() else {
        return Err("a reply arrived for no request".to_string());
    };
    let exchange = &mut phase.log[index];
    exchange.reply = payload;
    if matches!(response, Response::Error(_)) {
        phase.error_ops += crate::workload::ops(&exchange.request);
    }
    if !is_work(&exchange.request) {
        if phase.checkpoint.is_none() && exchange.request == Request::Stats {
            phase.checkpoint = Some(index);
            phase.checkpoint_rss_mb = rss.map(|sample| sample()).transpose()?;
        }
        return Ok(());
    }
    let latency = nanos(done - enqueued);
    phase.latency_ns.push(latency);
    if matches!(exchange.request, Request::ListActive { .. }) {
        phase.read_latency_ns.push(latency);
    }
    Ok(())
}

/// Open loop on one connection: a sender thread writes `requests[i]` when
/// it falls due, `i / rate` seconds after the start, whatever the replies
/// are doing; this thread receives. Latency runs from when a frame was
/// due. `traced` adds the send and receive spans.
///
/// # Errors
///
/// Transport and decoding failures.
pub fn run_open(
    addr: SocketAddr,
    requests: Vec<Request>,
    rate: f64,
    traced: bool,
) -> Result<Phase, String> {
    let stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io("clone"))?);
    let mut writer = stream;
    let count = requests.len();
    let interval = Duration::from_secs_f64(1.0 / rate);
    // A short lead so the first frame is not already late.
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + interval * u32::try_from(i).unwrap_or(u32::MAX);
    let mut phase = Phase {
        latency_ns: Vec::with_capacity(count),
        read_latency_ns: Vec::with_capacity(count),
        ..Phase::default()
    };
    let mut done_at: Vec<Instant> = Vec::with_capacity(if traced { count } else { 0 });
    let mut last_done = start;
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<_, String> {
            let mut frame = Vec::with_capacity(256);
            let mut lag = Vec::with_capacity(count);
            let mut sent_at = Vec::with_capacity(if traced { count } else { 0 });
            let mut send_ns = 0u64;
            for (i, request) in requests.iter().enumerate() {
                let due = due(i);
                let now = Instant::now();
                // The sender sleeps rather than spins: a spinning client
                // would take a CPU from the daemon. A sleep overshoots by
                // the kernel's timer slack, which shows as generator lag.
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sending = Instant::now();
                lag.push(nanos(sending.saturating_duration_since(due)));
                frame.clear();
                protocol::queue_frame(&mut frame, &protocol::encode(request))
                    .map_err(io("encode"))?;
                writer.write_all(&frame).map_err(io("send"))?;
                if traced {
                    let written = Instant::now();
                    send_ns += nanos(written - sending);
                    sent_at.push(written);
                }
            }
            Ok((lag, sent_at, send_ns))
        });
        let mut received = Vec::with_capacity(count);
        for (i, request) in requests.iter().enumerate() {
            let payload = protocol::read_frame(&mut reader).map_err(io("recv"))?;
            let response: Response = protocol::decode(&payload).map_err(|e| e.to_string())?;
            let done = Instant::now();
            last_done = done;
            if traced {
                done_at.push(done);
            }
            let latency = nanos(done.saturating_duration_since(due(i)));
            phase.latency_ns.push(latency);
            if matches!(request, Request::ListActive { .. }) {
                phase.read_latency_ns.push(latency);
            }
            if matches!(response, Response::Error(_)) {
                phase.error_ops += crate::workload::ops(request);
            }
            received.push(payload);
        }
        let sent = sender
            .join()
            .map_err(|_| "the sender thread panicked".to_string())??;
        Ok::<_, String>((sent, received))
    })?;
    phase.elapsed_s = last_done.saturating_duration_since(start).as_secs_f64();
    let ((lag, sent_at, send_ns), received) = sent;
    phase.gen_lag_ns = lag;
    phase.send_ns = send_ns;
    phase.recv_wait_ns = sent_at
        .iter()
        .zip(&done_at)
        .map(|(&sent, &done)| nanos(done.saturating_duration_since(sent)))
        .sum();
    phase.log = requests
        .into_iter()
        .zip(received)
        .map(|(request, reply)| Exchange { request, reply })
        .collect();
    Ok(phase)
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

fn elapsed_ns(since: Instant) -> u64 {
    nanos(since.elapsed())
}

/// Sums every sample of series `name` (bare or labelled) in a Prometheus
/// text exposition.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    metric_samples(text, name).sum()
}

/// The largest sample of series `name` in a Prometheus text exposition.
pub fn metric_max(text: &str, name: &str) -> f64 {
    metric_samples(text, name).fold(0.0, f64::max)
}

fn metric_samples<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = f64> + 'a {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(move |line| {
            let rest = line.strip_prefix(name)?;
            let value = match rest.strip_prefix('{') {
                Some(tail) => tail.split_once('}').map(|(_, v)| v)?,
                None if rest.starts_with(' ') => rest,
                None => return None,
            };
            value.trim().parse::<f64>().ok()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_helpers_read_bare_and_labelled_series_only() {
        let text = "# TYPE lat histogram\n\
                    lat_bucket{le=\"+Inf\"} 5\n\
                    lat_sum 900\n\
                    lat_count 5\n\
                    hwm{shard=\"0\"} 3\n\
                    hwm{shard=\"1\"} 7\n";
        assert_eq!(metric_sum(text, "lat_sum"), 900.0);
        assert_eq!(metric_sum(text, "lat_count"), 5.0);
        assert_eq!(metric_sum(text, "lat"), 0.0);
        assert_eq!(metric_sum(text, "hwm"), 10.0);
        assert_eq!(metric_max(text, "hwm"), 7.0);
    }
}
