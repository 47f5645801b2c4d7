//! The wire protocol: length-delimited JSON frames and the typed
//! request/response vocabulary.
//!
//! A frame is a 4-byte little-endian payload length followed by that many
//! bytes of UTF-8 JSON. Requests are maps tagged with an `"op"` field;
//! responses carry `"ok": true` plus an optional payload, or `"ok": false`
//! with an `"error"` message.
//!
//! Both directions go through the [`Message`] codec, which never builds a
//! `serde::Value` tree on the hot path: [`Request`] and [`Response`] are
//! written straight into a `String` as canonical compact JSON (the same
//! value always encodes to the same bytes), and requests are read back
//! through the pull [`json::Reader`]. Decoding accepts any JSON layout of
//! a message — whitespace, key order, escaped strings, unknown keys
//! (skipped), duplicate keys (the first wins), and ill-typed fields the op
//! does not use — nested at most [`json::MAX_DEPTH`] deep. Responses, a few
//! bytes of client-side reply, decode via their `Value` tree.

use crate::error::LeasedError;
use leasing_core::engine::EngineStats;
use leasing_core::time::TimeStep;
use serde::{de, json, value_field, value_str, Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::io::{Read, Write};

/// Upper bound on a frame payload, guarding the daemon against a garbage
/// length prefix allocating gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Writes `payload` as one length-delimited frame and flushes.
///
/// # Errors
///
/// Propagates socket errors; refuses payloads beyond [`MAX_FRAME_LEN`].
pub fn write_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    queue_frame(writer, payload)?;
    writer.flush()
}

/// Writes `payload` as one length-delimited frame *without* flushing —
/// the pipelined building block: queue a burst of frames into a buffered
/// writer, then flush once.
///
/// # Errors
///
/// Propagates socket errors; refuses payloads beyond [`MAX_FRAME_LEN`].
pub fn queue_frame(writer: &mut impl Write, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame payload too large",
        ));
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload.as_bytes())
}

/// Reads one length-delimited frame, returning its payload.
///
/// # Errors
///
/// Propagates socket errors (including clean EOF as
/// [`std::io::ErrorKind::UnexpectedEof`]); rejects frames beyond
/// [`MAX_FRAME_LEN`] and non-UTF-8 payloads.
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<String> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length prefix too large",
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Outcome of a lenient frame read — see [`read_frame_lenient`].
#[derive(Debug)]
pub enum FrameRead {
    /// A well-formed frame payload.
    Payload(String),
    /// A frame whose declared length exceeded [`MAX_FRAME_LEN`]. Its
    /// payload bytes were drained off the wire, so the stream is still
    /// frame-aligned and subsequent frames parse normally.
    Oversized(usize),
    /// A frame whose payload is not UTF-8. Its bytes were consumed, so the
    /// stream is still frame-aligned.
    NotUtf8 {
        /// The payload length.
        len: usize,
        /// Why the payload failed validation.
        reason: String,
    },
}

/// Reads one frame like [`read_frame`], but survives a bad frame: an
/// oversized length prefix drains (without buffering) the declared payload
/// and reports [`FrameRead::Oversized`], and a non-UTF-8 payload reports
/// [`FrameRead::NotUtf8`] — the daemon answers either with an in-band
/// error instead of desyncing or dropping a pipelined connection.
///
/// # Errors
///
/// Propagates socket errors (including EOF mid-frame).
pub fn read_frame_lenient(reader: &mut impl Read) -> std::io::Result<FrameRead> {
    let mut len = [0u8; 4];
    reader.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        let drained = std::io::copy(&mut reader.take(len as u64), &mut std::io::sink())?;
        if drained != len as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside an oversized frame",
            ));
        }
        return Ok(FrameRead::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(match String::from_utf8(payload) {
        Ok(payload) => FrameRead::Payload(payload),
        Err(e) => FrameRead::NotUtf8 {
            len,
            reason: e.to_string(),
        },
    })
}

/// A client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Serve a lease demand of `tenant` at logical time `time`.
    Submit {
        /// Tenant id (routes to shard `tenant % shards`).
        tenant: u64,
        /// Logical time of the demand (clamped forward to the shard clock).
        time: TimeStep,
    },
    /// Serve a whole batch of `(tenant, time)` demands in one round-trip.
    ///
    /// Entries may mix tenants living on different shards: the daemon
    /// splits the batch deterministically — per-shard sub-batches preserve
    /// the batch's arrival order and are applied in shard-index order —
    /// so the end state is identical to submitting each entry
    /// individually. Answered by [`Response::Submitted`].
    SubmitBatch {
        /// `(tenant, time)` demands, in arrival order.
        entries: Vec<(u64, TimeStep)>,
    },
    /// List `tenant`'s live (non-released) leases at `time`.
    ListActive {
        /// Tenant id.
        tenant: u64,
        /// Query time (clamped forward to the shard clock).
        time: TimeStep,
    },
    /// Void `tenant`'s live leases from `time` on (zero-cost audit charge;
    /// the next demand buys fresh).
    ForceRelease {
        /// Tenant id.
        tenant: u64,
        /// Release time (clamped forward to the shard clock).
        time: TimeStep,
    },
    /// Per-shard [`EngineStats`], in shard order.
    Stats,
    /// Per-shard decision-trace retention report, in shard order.
    /// Answered by [`Response::Retention`].
    RetentionInfo,
    /// The daemon's metric registry rendered as Prometheus text
    /// exposition. Answered by [`Response::Metrics`].
    Metrics,
    /// The recent-operation event rings of every shard, concatenated in
    /// shard order (each shard's events oldest first). Answered by
    /// [`Response::Trace`].
    TraceDump,
    /// Persist every shard's snapshot to the daemon's snapshot directory.
    Snapshot,
    /// Snapshot (when a directory is configured) and stop the daemon.
    Shutdown,
}

impl Request {
    /// The operation's wire name, the `"op"` field.
    fn op(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::SubmitBatch { .. } => "submit-batch",
            Request::ListActive { .. } => "list-active",
            Request::ForceRelease { .. } => "force-release",
            Request::Stats => "stats",
            Request::RetentionInfo => "retention",
            Request::Metrics => "metrics",
            Request::TraceDump => "trace-dump",
            Request::Snapshot => "snapshot",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A message that travels in a frame: a [`Request`] or a [`Response`].
pub trait Message: Sized {
    /// Appends the canonical compact JSON of `self` to `out`.
    fn write_json(&self, out: &mut String);

    /// Reads one message from a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`LeasedError::Protocol`] on malformed JSON or vocabulary.
    fn read_json(payload: &str) -> Result<Self, LeasedError>;
}

impl Message for Request {
    fn write_json(&self, out: &mut String) {
        // Op names need no escaping.
        out.push_str("{\"op\":\"");
        out.push_str(self.op());
        out.push('"');
        match self {
            Request::Submit { tenant, time }
            | Request::ListActive { tenant, time }
            | Request::ForceRelease { tenant, time } => {
                out.push_str(",\"tenant\":");
                json::write_u64(*tenant, out);
                out.push_str(",\"time\":");
                json::write_u64(*time, out);
            }
            Request::SubmitBatch { entries } => {
                out.reserve(16 * entries.len() + 16);
                out.push_str(",\"entries\":[");
                for (i, (tenant, time)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('[');
                    json::write_u64(*tenant, out);
                    out.push(',');
                    json::write_u64(*time, out);
                    out.push(']');
                }
                out.push(']');
            }
            Request::Stats
            | Request::RetentionInfo
            | Request::Metrics
            | Request::TraceDump
            | Request::Snapshot
            | Request::Shutdown => {}
        }
        out.push('}');
    }

    fn read_json(payload: &str) -> Result<Request, LeasedError> {
        let mut reader = json::Reader::new(payload);
        if reader.peek()? != b'{' {
            let other = reader.value()?;
            reader.end()?;
            // Fails: only a map has an "op" field.
            value_field(&other, "op")?;
        }
        let mut op: Field<Cow<'_, str>> = None;
        let mut tenant: Field<u64> = None;
        let mut time: Field<TimeStep> = None;
        let mut entries: Field<Vec<(u64, TimeStep)>> = None;
        reader.begin_object()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                "op" if op.is_none() => op = Some(read_op(&mut reader)?),
                "tenant" if tenant.is_none() => tenant = Some(read_u64(&mut reader)?),
                "time" if time.is_none() => time = Some(read_u64(&mut reader)?),
                "entries" if entries.is_none() => entries = Some(read_entries(&mut reader)?),
                _ => {
                    reader.value()?;
                }
            }
        }
        reader.end()?;
        let op = op.unwrap_or_else(|| value_str(&Value::Null).map(Cow::Borrowed))?;
        let tenant_time =
            || -> Result<(u64, TimeStep), de::Error> { Ok((required(tenant)?, required(time)?)) };
        Ok(match &*op {
            "submit" => {
                let (tenant, time) = tenant_time()?;
                Request::Submit { tenant, time }
            }
            "submit-batch" => Request::SubmitBatch {
                entries: required(entries)?,
            },
            "list-active" => {
                let (tenant, time) = tenant_time()?;
                Request::ListActive { tenant, time }
            }
            "force-release" => {
                let (tenant, time) = tenant_time()?;
                Request::ForceRelease { tenant, time }
            }
            "stats" => Request::Stats,
            "retention" => Request::RetentionInfo,
            "metrics" => Request::Metrics,
            "trace-dump" => Request::TraceDump,
            "snapshot" => Request::Snapshot,
            "shutdown" => Request::Shutdown,
            other => return Err(de::Error::new(format!("unknown op {other:?}")).into()),
        })
    }
}

/// A request field as read off the wire, judged only once the op is known:
/// an op may ignore an ill-typed field it does not use. `None` until the
/// field's first occurrence; later duplicates are skipped.
type Field<T> = Option<Result<T, de::Error>>;

/// A field the op needs: a missing one fails the way a `null` would.
fn required<T: Deserialize>(field: Field<T>) -> Result<T, de::Error> {
    field.unwrap_or_else(|| T::from_value(&Value::Null))
}

// The readers below return `Err` for malformed JSON, which fails the
// whole payload, and `Ok(Err(_))` for well-formed JSON of the wrong shape.

/// Reads the `op` field, borrowed from the payload unless it is escaped.
fn read_op<'s>(
    reader: &mut json::Reader<'s>,
) -> Result<Result<Cow<'s, str>, de::Error>, de::Error> {
    if reader.peek()? == b'"' {
        return reader.str().map(Ok);
    }
    let other = reader.value()?;
    Ok(value_str(&other).map(|s| Cow::Owned(s.to_owned())))
}

/// Reads an integer field.
fn read_u64(reader: &mut json::Reader<'_>) -> Result<Result<u64, de::Error>, de::Error> {
    // `value` reads everything but these leading bytes as a number; going
    // to `number` directly keeps the common case inline.
    let value = match reader.peek()? {
        b'n' | b't' | b'f' | b'"' | b'[' | b'{' => reader.value()?,
        _ => reader.number()?,
    };
    Ok(u64::from_value(&value))
}

/// Reads the `entries` field: a sequence of `[tenant, time]` pairs.
fn read_entries(
    reader: &mut json::Reader<'_>,
) -> Result<Result<Vec<(u64, TimeStep)>, de::Error>, de::Error> {
    if reader.peek()? != b'[' {
        return Ok(Vec::from_value(&reader.value()?));
    }
    reader.begin_array()?;
    let mut entries = Vec::new();
    let mut failure = None;
    while reader.next_element()? {
        // After the first bad pair the rest is only checked for syntax.
        match read_entry(reader)? {
            Ok(pair) if failure.is_none() => entries.push(pair),
            Ok(_) => {}
            Err(e) => {
                failure.get_or_insert(e);
            }
        }
    }
    Ok(failure.map_or(Ok(entries), Err))
}

/// Reads one `[tenant, time]` pair. Like a tuple read from a `Value`
/// tree, it ignores elements past the second.
fn read_entry(
    reader: &mut json::Reader<'_>,
) -> Result<Result<(u64, TimeStep), de::Error>, de::Error> {
    if reader.peek()? != b'[' {
        return Ok(<(u64, TimeStep)>::from_value(&reader.value()?));
    }
    let too_short = |index| de::Error::new(format!("sequence too short for index {index}"));
    reader.begin_array()?;
    if !reader.next_element()? {
        return Ok(Err(too_short(0)));
    }
    let tenant = read_u64(reader)?;
    if !reader.next_element()? {
        return Ok(tenant.and(Err(too_short(1))));
    }
    let time = read_u64(reader)?;
    while reader.next_element()? {
        reader.value()?;
    }
    Ok(tenant.and_then(|tenant| Ok((tenant, time?))))
}

/// One live lease in a `list-active` answer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActiveLease {
    /// Owning tenant.
    pub tenant: u64,
    /// Lease type index into the daemon's structure.
    pub type_index: usize,
    /// Window start (inclusive).
    pub start: TimeStep,
    /// Window end (exclusive).
    pub end: TimeStep,
}

/// One recent operation from a shard's bounded event ring, as returned
/// by `trace-dump`. Events are observability data: they describe what the
/// shard did (with its clamped clock) and never feed back into it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Per-shard sequence number (total events ever recorded when this
    /// one was pushed; gaps mean the ring evicted older events).
    pub seq: u64,
    /// Shard that served the operation.
    pub shard: u64,
    /// Shard clock at which the operation applied (after clamping).
    pub time: TimeStep,
    /// Tenant the operation concerned.
    pub tenant: u64,
    /// Operation kind: `submit` or `force-release`.
    pub op: String,
    /// `ok`, `clamped` (served after a forward clamp), or `err: ...`.
    pub outcome: String,
}

/// One shard's decision-trace retention report, as returned by the
/// `retention` op. Retention never changes what `stats` reports — the
/// aggregates are maintained at record time — so this is the one place
/// the daemon exposes how much trace memory each shard actually holds.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetentionInfo {
    /// Retention mode: `full`, `bounded`, or `aggregate-only`.
    pub mode: String,
    /// Ring capacity under `bounded`; 0 otherwise.
    pub limit: u64,
    /// Decisions currently held in memory.
    pub retained: u64,
    /// Decisions ever recorded (the cumulative count `stats` agrees with).
    pub total: u64,
}

/// The `stats` payload: per-shard engine statistics, in shard order.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DaemonStats {
    /// One [`EngineStats`] per shard.
    pub shards: Vec<EngineStats>,
}

impl DaemonStats {
    /// Total requests served across shards.
    pub fn requests(&self) -> usize {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total money spent across shards.
    pub fn total_cost(&self) -> f64 {
        self.shards.iter().map(|s| s.total_cost).sum()
    }

    /// Leases bought across shards.
    pub fn leases_bought(&self) -> usize {
        self.shards.iter().map(|s| s.leases_bought).sum()
    }

    /// Deterministic JSON rendering (same state, same bytes) — the
    /// restart-equivalence check in CI compares these strings.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

/// A daemon answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The operation succeeded with no payload.
    Ok,
    /// `submit-batch` payload: how many demands were served.
    Submitted(u64),
    /// `list-active` payload.
    Leases(Vec<ActiveLease>),
    /// `stats` payload.
    Stats(DaemonStats),
    /// `retention` payload: per-shard retention reports, in shard order.
    Retention(Vec<RetentionInfo>),
    /// `metrics` payload: the Prometheus text exposition.
    Metrics(String),
    /// `trace-dump` payload: recent events, in shard order then oldest
    /// first within a shard.
    Trace(Vec<TraceEvent>),
    /// The operation failed; the daemon stays up.
    Error(String),
}

impl Message for Response {
    fn write_json(&self, out: &mut String) {
        match self {
            Response::Error(message) => {
                out.push_str("{\"ok\":false,\"error\":");
                json::write_str(message, out);
            }
            Response::Ok => out.push_str("{\"ok\":true"),
            Response::Submitted(count) => {
                out.push_str("{\"ok\":true,\"submitted\":");
                json::write_u64(*count, out);
            }
            Response::Leases(leases) => {
                out.push_str("{\"ok\":true,\"leases\":[");
                for (i, lease) in leases.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"tenant\":");
                    json::write_u64(lease.tenant, out);
                    out.push_str(",\"type_index\":");
                    json::write_u64(lease.type_index as u64, out);
                    out.push_str(",\"start\":");
                    json::write_u64(lease.start, out);
                    out.push_str(",\"end\":");
                    json::write_u64(lease.end, out);
                    out.push('}');
                }
                out.push(']');
            }
            Response::Stats(stats) => {
                out.push_str("{\"ok\":true,\"stats\":");
                out.push_str(&json::to_string(stats));
            }
            Response::Retention(shards) => {
                out.push_str("{\"ok\":true,\"retention\":");
                out.push_str(&json::to_string(shards));
            }
            Response::Metrics(text) => {
                out.push_str("{\"ok\":true,\"metrics\":");
                json::write_str(text, out);
            }
            Response::Trace(events) => {
                out.push_str("{\"ok\":true,\"events\":");
                out.push_str(&json::to_string(events));
            }
        }
        out.push('}');
    }

    fn read_json(payload: &str) -> Result<Response, LeasedError> {
        Ok(Response::from_value(&json::parse(payload)?)?)
    }
}

impl Deserialize for Response {
    fn from_value(value: &Value) -> Result<Self, de::Error> {
        let ok = bool::from_value(value_field(value, "ok")?)?;
        if !ok {
            let message = String::from_value(value_field(value, "error")?)?;
            return Ok(Response::Error(message));
        }
        if let Some(count) = value.get("submitted") {
            return Ok(Response::Submitted(u64::from_value(count)?));
        }
        if let Some(leases) = value.get("leases") {
            return Ok(Response::Leases(Vec::<ActiveLease>::from_value(leases)?));
        }
        if let Some(stats) = value.get("stats") {
            return Ok(Response::Stats(DaemonStats::from_value(stats)?));
        }
        if let Some(shards) = value.get("retention") {
            return Ok(Response::Retention(Vec::<RetentionInfo>::from_value(
                shards,
            )?));
        }
        if let Some(text) = value.get("metrics") {
            return Ok(Response::Metrics(String::from_value(text)?));
        }
        if let Some(events) = value.get("events") {
            return Ok(Response::Trace(Vec::<TraceEvent>::from_value(events)?));
        }
        Ok(Response::Ok)
    }
}

/// Encodes a request/response into its frame payload.
pub fn encode<T: Message>(message: &T) -> String {
    let mut out = String::new();
    message.write_json(&mut out);
    out
}

/// Decodes a frame payload into a request/response.
///
/// # Errors
///
/// Returns [`LeasedError::Protocol`] on malformed JSON or vocabulary.
pub fn decode<T: Message>(payload: &str) -> Result<T, LeasedError> {
    T::read_json(payload)
}

/// The `Value`-tree codec the direct one replaced, kept as the oracle of
/// the differential tests.
#[cfg(test)]
mod reference {
    use super::*;

    fn tagged(op: &str, tenant_time: Option<(u64, TimeStep)>) -> Value {
        let mut fields = vec![("op".to_string(), Value::Str(op.to_string()))];
        if let Some((tenant, time)) = tenant_time {
            fields.push(("tenant".to_string(), Value::UInt(tenant)));
            fields.push(("time".to_string(), Value::UInt(time)));
        }
        Value::Map(fields)
    }

    pub(super) fn request_to_value(request: &Request) -> Value {
        match *request {
            Request::Submit { tenant, time } => tagged("submit", Some((tenant, time))),
            Request::SubmitBatch { ref entries } => Value::Map(vec![
                ("op".to_string(), Value::Str("submit-batch".to_string())),
                ("entries".to_string(), entries.to_value()),
            ]),
            Request::ListActive { tenant, time } => tagged("list-active", Some((tenant, time))),
            Request::ForceRelease { tenant, time } => tagged("force-release", Some((tenant, time))),
            Request::Stats => tagged("stats", None),
            Request::RetentionInfo => tagged("retention", None),
            Request::Metrics => tagged("metrics", None),
            Request::TraceDump => tagged("trace-dump", None),
            Request::Snapshot => tagged("snapshot", None),
            Request::Shutdown => tagged("shutdown", None),
        }
    }

    pub(super) fn request_from_value(value: &Value) -> Result<Request, de::Error> {
        let op = value_str(value_field(value, "op")?)?;
        let tenant_time = |value: &Value| -> Result<(u64, TimeStep), de::Error> {
            let tenant = u64::from_value(value_field(value, "tenant")?)?;
            let time = TimeStep::from_value(value_field(value, "time")?)?;
            Ok((tenant, time))
        };
        match op {
            "submit" => {
                let (tenant, time) = tenant_time(value)?;
                Ok(Request::Submit { tenant, time })
            }
            "submit-batch" => {
                let entries = Vec::from_value(value_field(value, "entries")?)?;
                Ok(Request::SubmitBatch { entries })
            }
            "list-active" => {
                let (tenant, time) = tenant_time(value)?;
                Ok(Request::ListActive { tenant, time })
            }
            "force-release" => {
                let (tenant, time) = tenant_time(value)?;
                Ok(Request::ForceRelease { tenant, time })
            }
            "stats" => Ok(Request::Stats),
            "retention" => Ok(Request::RetentionInfo),
            "metrics" => Ok(Request::Metrics),
            "trace-dump" => Ok(Request::TraceDump),
            "snapshot" => Ok(Request::Snapshot),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(de::Error::new(format!("unknown op {other:?}"))),
        }
    }

    pub(super) fn response_to_value(response: &Response) -> Value {
        let ok = |payload: Option<(&str, Value)>| {
            let mut fields = vec![("ok".to_string(), Value::Bool(true))];
            fields.extend(payload.map(|(key, value)| (key.to_string(), value)));
            Value::Map(fields)
        };
        match response {
            Response::Ok => ok(None),
            Response::Submitted(count) => ok(Some(("submitted", Value::UInt(*count)))),
            Response::Leases(leases) => ok(Some(("leases", leases.to_value()))),
            Response::Stats(stats) => ok(Some(("stats", stats.to_value()))),
            Response::Retention(shards) => ok(Some(("retention", shards.to_value()))),
            Response::Metrics(text) => ok(Some(("metrics", Value::Str(text.clone())))),
            Response::Trace(events) => ok(Some(("events", events.to_value()))),
            Response::Error(message) => Value::Map(vec![
                ("ok".to_string(), Value::Bool(false)),
                ("error".to_string(), Value::Str(message.clone())),
            ]),
        }
    }

    /// The old request decoder: parse a tree, then read it.
    pub(super) fn decode_request(payload: &str) -> Result<Request, LeasedError> {
        Ok(request_from_value(&json::parse(payload)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_round_trip_through_the_wire_encoding() {
        let requests = [
            Request::Submit {
                tenant: 7,
                time: 42,
            },
            Request::ListActive { tenant: 0, time: 0 },
            Request::ForceRelease {
                tenant: u64::MAX,
                time: 9,
            },
            Request::SubmitBatch {
                entries: vec![(7, 42), (8, 42), (7, 43)],
            },
            Request::SubmitBatch {
                entries: Vec::new(),
            },
            Request::Stats,
            Request::RetentionInfo,
            Request::Metrics,
            Request::TraceDump,
            Request::Snapshot,
            Request::Shutdown,
        ];
        for request in requests {
            let payload = encode(&request);
            let back: Request = decode(&payload).unwrap();
            assert_eq!(back, request, "{payload}");
        }
    }

    #[test]
    fn responses_round_trip_through_the_wire_encoding() {
        let responses = [
            Response::Ok,
            Response::Submitted(0),
            Response::Submitted(1_000_000),
            Response::Leases(vec![ActiveLease {
                tenant: 3,
                type_index: 1,
                start: 8,
                end: 16,
            }]),
            Response::Stats(DaemonStats { shards: Vec::new() }),
            Response::Retention(vec![RetentionInfo {
                mode: "bounded".to_string(),
                limit: 1024,
                retained: 512,
                total: 99_000,
            }]),
            Response::Retention(Vec::new()),
            Response::Metrics("# HELP x y\nx 1\n".to_string()),
            Response::Trace(vec![TraceEvent {
                seq: 41,
                shard: 2,
                time: 9,
                tenant: 18,
                op: "submit".to_string(),
                outcome: "clamped".to_string(),
            }]),
            Response::Trace(Vec::new()),
            Response::Error("nope".to_string()),
        ];
        for response in responses {
            let payload = encode(&response);
            let back: Response = decode(&payload).unwrap();
            assert_eq!(back, response, "{payload}");
        }
    }

    #[test]
    fn unknown_ops_and_garbage_are_rejected() {
        assert!(decode::<Request>("{\"op\":\"mystery\"}").is_err());
        assert!(decode::<Request>("not json").is_err());
        assert!(
            decode::<Request>("{\"op\":\"submit\"}").is_err(),
            "missing fields"
        );
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").unwrap();
        write_frame(&mut wire, "").unwrap();
        let mut reader = wire.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), "hello");
        assert_eq!(read_frame(&mut reader).unwrap(), "");
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_length_prefixes_are_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            read_frame(&mut wire.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn queued_frames_only_hit_the_wire_as_one_burst() {
        struct CountingWriter {
            bytes: Vec<u8>,
            flushes: usize,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushes += 1;
                Ok(())
            }
        }
        let mut wire = CountingWriter {
            bytes: Vec::new(),
            flushes: 0,
        };
        queue_frame(&mut wire, "a").unwrap();
        queue_frame(&mut wire, "bb").unwrap();
        assert_eq!(wire.flushes, 0, "queueing never flushes");
        write_frame(&mut wire, "c").unwrap();
        assert_eq!(wire.flushes, 1, "write_frame = queue + one flush");
        let mut reader = wire.bytes.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), "a");
        assert_eq!(read_frame(&mut reader).unwrap(), "bb");
        assert_eq!(read_frame(&mut reader).unwrap(), "c");
    }

    #[test]
    fn lenient_reads_drain_oversized_frames_and_stay_aligned() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "before").unwrap();
        let oversized = MAX_FRAME_LEN + 1;
        wire.extend_from_slice(&u32::try_from(oversized).unwrap().to_le_bytes());
        wire.extend(std::iter::repeat_n(b'x', oversized));
        write_frame(&mut wire, "after").unwrap();
        let mut reader = wire.as_slice();
        assert!(matches!(
            read_frame_lenient(&mut reader).unwrap(),
            FrameRead::Payload(p) if p == "before"
        ));
        assert!(matches!(
            read_frame_lenient(&mut reader).unwrap(),
            FrameRead::Oversized(len) if len == oversized
        ));
        assert!(
            matches!(
                read_frame_lenient(&mut reader).unwrap(),
                FrameRead::Payload(p) if p == "after"
            ),
            "the stream stays frame-aligned after the drain"
        );
    }

    #[test]
    fn lenient_reads_report_truncated_oversized_frames_as_eof() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(b"only a few bytes");
        assert_eq!(
            read_frame_lenient(&mut wire.as_slice()).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn decoding_accepts_any_layout_of_a_request() {
        let cases = [
            (
                " {\n\"time\" : 4 ,\t\"tenant\":3, \"op\":\"submit\" }\r\n",
                Request::Submit { tenant: 3, time: 4 },
            ),
            (
                r#"{"op":"submit","tenant":1,"time":2,"tenant":9,"op":"stats"}"#,
                Request::Submit { tenant: 1, time: 2 },
            ),
            (
                r#"{"op":"stats","tenant":"x","time":-1,"entries":{}}"#,
                Request::Stats,
            ),
            (
                r#"{"op":"submit","tenant":-0,"time":+5}"#,
                Request::Submit { tenant: 0, time: 5 },
            ),
            (
                r#"{"entries":[[1,2,"extra"],[3,4,{"x":[]}]],"op":"submit-batch"}"#,
                Request::SubmitBatch {
                    entries: vec![(1, 2), (3, 4)],
                },
            ),
            (
                r#"{"x":{"op":"stats"},"":[null,true],"op":"metrics"}"#,
                Request::Metrics,
            ),
        ];
        for (payload, expected) in cases {
            assert_eq!(decode::<Request>(payload).unwrap(), expected, "{payload}");
            assert_eq!(
                reference::decode_request(payload).unwrap(),
                expected,
                "{payload}"
            );
        }
    }

    #[test]
    fn decoding_rejects_what_the_tree_decoder_rejects_with_its_message() {
        let nested = format!(
            r#"{{"op":"stats","x":{}{}}}"#,
            "[".repeat(json::MAX_DEPTH + 1),
            "]".repeat(json::MAX_DEPTH + 1)
        );
        let cases = [
            "",
            "[]",
            "7",
            r#""submit""#,
            "{}",
            r#"{"op":7}"#,
            r#"{"op":"submit","tenant":1}"#,
            r#"{"op":"submit","tenant":1,"time":1.0}"#,
            r#"{"op":"list-active","tenant":"1","time":1}"#,
            r#"{"op":"submit-batch"}"#,
            r#"{"op":"submit-batch","entries":{}}"#,
            r#"{"op":"submit-batch","entries":[[1]]}"#,
            r#"{"op":"submit-batch","entries":[[]]}"#,
            r#"{"op":"submit-batch","entries":[[1,2],7,[-1,2]]}"#,
            r#"{"op":"submit-batch","entries":[[1,2],[3,4]],}"#,
            r#"{"op":"stats"} {}"#,
            r#"{"op":"stats","x":[1,]}"#,
            r#"{"op":"stats","x":"\ud83d"}"#,
            r#"{"op":"Stats"}"#,
            &nested,
        ];
        for payload in cases {
            let direct = decode::<Request>(payload).map_err(|e| e.to_string());
            assert!(direct.is_err(), "{payload}");
            assert_eq!(
                direct,
                reference::decode_request(payload).map_err(|e| e.to_string()),
                "{payload}"
            );
        }
    }

    #[test]
    fn negative_and_huge_tenant_ids_are_typed_protocol_errors() {
        for tenant in [
            "-1",
            "-9223372036854775808",
            "18446744073709551616",
            "1e3",
            "1.0",
        ] {
            for payload in [
                format!(r#"{{"op":"submit","tenant":{tenant},"time":0}}"#),
                format!(r#"{{"op":"submit-batch","entries":[[{tenant},0]]}}"#),
            ] {
                assert!(
                    matches!(decode::<Request>(&payload), Err(LeasedError::Protocol(_))),
                    "{payload}"
                );
            }
        }
    }

    /// Characters that stress string escaping: quotes, backslashes, control
    /// characters, multi-byte and astral code points.
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '€', '😀',
    ];

    fn text() -> impl Strategy<Value = String> {
        collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Ids biased towards the edges of `u64`.
    fn id() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(edge, x)| match edge {
            0 => 0,
            1 => u64::MAX,
            2 => x % 100,
            _ => x,
        })
    }

    fn request() -> impl Strategy<Value = Request> {
        (0u8..10, id(), id(), collection::vec((id(), id()), 0..6)).prop_map(
            |(op, tenant, time, entries)| match op {
                0 => Request::Submit { tenant, time },
                1 => Request::SubmitBatch { entries },
                2 => Request::ListActive { tenant, time },
                3 => Request::ForceRelease { tenant, time },
                4 => Request::Stats,
                5 => Request::RetentionInfo,
                6 => Request::Metrics,
                7 => Request::TraceDump,
                8 => Request::Snapshot,
                _ => Request::Shutdown,
            },
        )
    }

    fn response() -> impl Strategy<Value = Response> {
        (
            0u8..8,
            id(),
            text(),
            collection::vec((id(), id(), id(), id()), 0..4),
        )
            .prop_map(|(kind, n, text, rows)| match kind {
                0 => Response::Ok,
                1 => Response::Submitted(n),
                2 => Response::Leases(
                    rows.into_iter()
                        .map(|(tenant, type_index, start, end)| ActiveLease {
                            tenant,
                            type_index: type_index as usize,
                            start,
                            end,
                        })
                        .collect(),
                ),
                3 => Response::Stats(DaemonStats {
                    shards: rows
                        .into_iter()
                        .map(|(a, b, c, d)| EngineStats {
                            requests: a as usize,
                            decisions: b as usize,
                            leases_bought: c as usize,
                            active_leases: d as usize,
                            now: n,
                            total_cost: (a % 1000) as f64 / 8.0,
                            cost_by_category: vec![(text.clone(), (b % 1000) as f64 / 3.0)],
                        })
                        .collect(),
                }),
                4 => Response::Retention(
                    rows.into_iter()
                        .map(|(limit, retained, total, _)| RetentionInfo {
                            mode: text.clone(),
                            limit,
                            retained,
                            total,
                        })
                        .collect(),
                ),
                5 => Response::Metrics(text),
                6 => Response::Trace(
                    rows.into_iter()
                        .map(|(seq, shard, time, tenant)| TraceEvent {
                            seq,
                            shard,
                            time,
                            tenant,
                            op: text.clone(),
                            outcome: text.clone(),
                        })
                        .collect(),
                ),
                _ => Response::Error(text),
            })
    }

    /// A deterministic stream of choices (SplitMix64) for one mutated
    /// payload.
    struct Dice(u64);

    impl Dice {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len())]
        }

        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", "", " ", "\n", "\t", "\r\n  "])
        }
    }

    /// Number spellings the tree decoder treats specially: negative,
    /// negative zero, explicit plus, exponent, fraction, past `u64::MAX`,
    /// and values of the wrong type.
    const ODD_NUMBERS: &[&str] = &[
        "-1",
        "-0",
        "+5",
        "1e3",
        "1.0",
        "18446744073709551616",
        "18446744073709551615",
        "0007",
        "\"7\"",
        "null",
        "[]",
        "true",
    ];

    /// Any-shaped JSON for unknown keys and ill-typed fields.
    const ODD_VALUES: &[&str] = &[
        "{}",
        "{\"a\":[1,{\"b\":null}]}",
        "\"str\"",
        "[[1,2]]",
        "-1.5e3",
        "false",
        "\"\\u00e9\\n\"",
    ];

    const OPS: &[&str] = &[
        "submit",
        "submit-batch",
        "list-active",
        "force-release",
        "stats",
        "retention",
        "metrics",
        "trace-dump",
        "snapshot",
        "shutdown",
        "mystery",
    ];

    /// A string literal spelling `s`, with some characters `\u`-escaped.
    fn escaped(s: &str, dice: &mut Dice) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            if dice.one_in(4) {
                out.push_str(&format!("\\u{:04X}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    fn number(n: u64, dice: &mut Dice) -> String {
        if dice.one_in(6) {
            dice.pick(ODD_NUMBERS).to_string()
        } else {
            n.to_string()
        }
    }

    fn entries(entries: &[(u64, TimeStep)], dice: &mut Dice) -> String {
        let mut out = String::from("[");
        for (i, &(tenant, time)) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(dice.ws());
                out.push(',');
            }
            out.push_str(dice.ws());
            match dice.below(12) {
                0 => out.push_str(dice.pick(ODD_VALUES)),
                1 => out.push_str(&format!("[{}]", number(tenant, dice))),
                _ => {
                    out.push('[');
                    out.push_str(dice.ws());
                    out.push_str(&number(tenant, dice));
                    out.push_str(dice.ws());
                    out.push(',');
                    out.push_str(dice.ws());
                    out.push_str(&number(time, dice));
                    if dice.one_in(8) {
                        out.push(',');
                        out.push_str(dice.pick(ODD_VALUES));
                    }
                    out.push_str(dice.ws());
                    out.push(']');
                }
            }
        }
        out.push_str(dice.ws());
        out.push(']');
        out
    }

    /// A payload spelling `request` (or a near miss of it): re-spaced,
    /// reordered, with escaped strings, duplicate and unknown keys, odd
    /// numbers, and fields the op does not use.
    fn mutated(request: &Request, dice: &mut Dice) -> String {
        let op = if dice.one_in(8) {
            dice.pick(OPS)
        } else {
            request.op()
        };
        let op = match dice.below(16) {
            0 => dice.pick(ODD_NUMBERS).to_string(),
            1..=5 => escaped(op, dice),
            _ => format!("\"{op}\""),
        };
        let mut fields = vec![("op", op)];
        let (tenant, time, batch) = match request {
            Request::Submit { tenant, time }
            | Request::ListActive { tenant, time }
            | Request::ForceRelease { tenant, time } => (Some(*tenant), Some(*time), None),
            Request::SubmitBatch { entries } => (None, None, Some(entries.as_slice())),
            _ => (None, None, None),
        };
        for (key, value) in [("tenant", tenant), ("time", time)] {
            match value {
                Some(n) if !dice.one_in(16) => fields.push((key, number(n, dice))),
                _ if dice.one_in(4) => fields.push((key, dice.pick(ODD_VALUES).to_string())),
                _ => {}
            }
        }
        match batch {
            Some(list) if !dice.one_in(16) => fields.push(("entries", entries(list, dice))),
            _ if dice.one_in(4) => fields.push(("entries", dice.pick(ODD_VALUES).to_string())),
            _ => {}
        }
        for _ in 0..dice.below(3) {
            let key = dice.pick(&["x", "", "OP", "opx", "tenant ", "entries"]);
            fields.push((key, dice.pick(ODD_VALUES).to_string()));
        }
        if dice.one_in(3) {
            let (key, _) = fields[dice.below(fields.len())];
            let value = if dice.one_in(2) {
                dice.pick(ODD_NUMBERS)
            } else {
                dice.pick(ODD_VALUES)
            };
            let at = dice.below(fields.len() + 1);
            fields.insert(at, (key, value.to_string()));
        }
        if dice.one_in(2) {
            for i in (1..fields.len()).rev() {
                fields.swap(i, dice.below(i + 1));
            }
        }
        let mut out = String::new();
        out.push_str(dice.ws());
        out.push('{');
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push_str(dice.ws());
                out.push(',');
            }
            out.push_str(dice.ws());
            if dice.one_in(8) {
                out.push_str(&escaped(key, dice));
            } else {
                out.push_str(&format!("\"{key}\""));
            }
            out.push_str(dice.ws());
            out.push(':');
            out.push_str(dice.ws());
            out.push_str(value);
        }
        out.push_str(dice.ws());
        out.push('}');
        out.push_str(dice.ws());
        out
    }

    /// Both decoders' verdicts on `payload`, errors compared by message.
    fn verdicts(payload: &str) -> (Result<Request, String>, Result<Request, String>) {
        (
            decode::<Request>(payload).map_err(|e| e.to_string()),
            reference::decode_request(payload).map_err(|e| e.to_string()),
        )
    }

    /// JSON-ish fragments for token soup.
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ",",
        ":",
        "\"op\"",
        "\"submit\"",
        "\"submit-batch\"",
        "\"entries\"",
        "\"tenant\"",
        "\"time\"",
        "\"stats\"",
        "1",
        "-1",
        "0",
        " ",
        "\"",
        "\\",
        "null",
        "true",
        "1e3",
        "\"\\u00",
        "é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn requests_encode_like_the_reference_tree(request in request()) {
            let payload = encode(&request);
            prop_assert_eq!(&payload, &json::to_string(&reference::request_to_value(&request)));
            prop_assert_eq!(verdicts(&payload), (Ok(request.clone()), Ok(request)));
        }

        #[test]
        fn responses_encode_like_the_reference_tree(response in response()) {
            let payload = encode(&response);
            prop_assert_eq!(
                &payload,
                &json::to_string(&reference::response_to_value(&response))
            );
            prop_assert_eq!(decode::<Response>(&payload).ok(), Some(response));
        }

        #[test]
        fn mutated_payloads_decode_like_the_reference(request in request(), seed in any::<u64>()) {
            let payload = mutated(&request, &mut Dice(seed));
            let (direct, tree) = verdicts(&payload);
            prop_assert_eq!(&direct, &tree, "payload {}", payload);
            for cut in 0..payload.len() {
                if let Some(prefix) = payload.get(..cut) {
                    let (direct, tree) = verdicts(prefix);
                    if cut < payload.trim_end().len() {
                        prop_assert!(direct.is_err(), "prefix {} decoded", prefix);
                    }
                    prop_assert_eq!(&direct, &tree, "prefix {}", prefix);
                }
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_decode_like_the_reference(
            bytes in collection::vec(any::<u8>(), 0..48),
            soup in collection::vec(0..TOKENS.len(), 0..24),
        ) {
            let mut wire = (bytes.len() as u32).to_le_bytes().to_vec();
            wire.extend_from_slice(&bytes);
            match read_frame_lenient(&mut wire.as_slice()) {
                Ok(FrameRead::Payload(payload)) => {
                    let (direct, tree) = verdicts(&payload);
                    prop_assert_eq!(direct, tree);
                }
                Ok(FrameRead::NotUtf8 { len, .. }) => prop_assert_eq!(len, bytes.len()),
                other => prop_assert!(false, "unexpected read {:?}", other),
            }
            let lossy = String::from_utf8_lossy(&bytes);
            let (direct, tree) = verdicts(&lossy);
            prop_assert_eq!(direct, tree);
            let soup: String = soup.into_iter().map(|i| TOKENS[i]).collect();
            let (direct, tree) = verdicts(&soup);
            prop_assert_eq!(&direct, &tree, "soup {}", soup);
        }
    }
}
