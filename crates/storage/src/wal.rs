//! Write-ahead log with checksummed frames.
//!
//! §4 "Recovery": *"Each pending resource transaction is serialized and
//! inserted into a special database table called the pending transactions
//! table. This insertion happens after the satisfiability check and before
//! the transaction commits."* We generalize this slightly: the log records
//! **all** durable events — DDL, extensional writes, pending-transaction
//! additions and removals — so that replaying the log reconstructs both the
//! extensional database and the in-memory quantum state.
//!
//! Frame format: `[len: u32 LE][crc32(payload): u32 LE][payload]`. Replay
//! stops at the first truncated or corrupt frame, which is how torn tail
//! writes after a crash are tolerated.
//!
//! Every reader takes the log by byte range, in chunks
//! ([`LogSink::read_from`], [`Wal::read_from`]), and [`FrameReader`] is the
//! one place frame headers are parsed: recovery, [`replay_bytes`],
//! [`frame_spans`] and replication all decode through it, so none of them
//! holds more of the log than one chunk plus one partial frame.

use crate::codec::{self, Reader};
use crate::database::WriteOp;
use crate::error::StorageError;
use crate::schema::Schema;
use crate::text::Str;
use crate::Result;

/// A single durable event.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// DDL: a table was created.
    CreateTable(Schema),
    /// DDL: a secondary index was created.
    CreateIndex {
        /// Relation name.
        relation: String,
        /// Indexed column.
        column: u32,
    },
    /// An extensional write was applied.
    Write(WriteOp),
    /// A resource transaction passed its satisfiability check and committed;
    /// `payload` is the engine's serialization of the transaction.
    PendingAdd {
        /// Engine-assigned transaction id.
        id: u64,
        /// Opaque serialized transaction.
        payload: Vec<u8>,
    },
    /// A pending resource transaction was removed without grounding
    /// (administrative; normal grounding uses [`LogRecord::Ground`]).
    PendingRemove {
        /// Engine-assigned transaction id.
        id: u64,
    },
    /// A pending resource transaction was grounded: its concrete writes
    /// and its removal from the pending table form **one atomic frame**,
    /// so a crash can never leave a half-grounded transaction in the log.
    Ground {
        /// Engine-assigned transaction id.
        id: u64,
        /// The concrete updates executed under the chosen valuation.
        ops: Vec<WriteOp>,
    },
    /// Marker record with no state effect; used by tests and tooling.
    Checkpoint,
}

const T_CREATE_TABLE: u8 = 1;
const T_CREATE_INDEX: u8 = 2;
const T_INSERT: u8 = 3;
const T_DELETE: u8 = 4;
const T_PENDING_ADD: u8 = 5;
const T_PENDING_REMOVE: u8 = 6;
const T_CHECKPOINT: u8 = 7;
const T_GROUND: u8 = 8;

/// A write op as a `Write` record payload, and as one op of a `Ground`.
fn put_op(buf: &mut Vec<u8>, op: &WriteOp) {
    let (tag, relation, tuple) = match op {
        WriteOp::Insert { relation, tuple } => (T_INSERT, relation, tuple),
        WriteOp::Delete { relation, tuple } => (T_DELETE, relation, tuple),
    };
    buf.push(tag);
    codec::put_string(buf, relation);
    codec::put_tuple(buf, tuple);
}

/// The rest of a write op whose tag byte has been read.
fn get_op(r: &mut Reader, tag: u8) -> Result<WriteOp> {
    let relation = Str::new(r.str()?);
    let tuple = codec::get_tuple(r)?;
    match tag {
        T_INSERT => Ok(WriteOp::Insert { relation, tuple }),
        T_DELETE => Ok(WriteOp::Delete { relation, tuple }),
        t => Err(StorageError::Codec(format!("unknown write op tag {t}"))),
    }
}

impl LogRecord {
    /// Encode the record payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        buf
    }

    /// Append the record payload (no frame header) to `buf` — how
    /// [`Wal::append`] writes a frame straight into its tail buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            LogRecord::CreateTable(schema) => {
                buf.push(T_CREATE_TABLE);
                codec::put_schema(buf, schema);
            }
            LogRecord::CreateIndex { relation, column } => {
                buf.push(T_CREATE_INDEX);
                codec::put_string(buf, relation);
                codec::put_u32(buf, *column);
            }
            LogRecord::Write(op) => put_op(buf, op),
            LogRecord::PendingAdd { id, payload } => {
                buf.push(T_PENDING_ADD);
                codec::put_u64(buf, *id);
                codec::put_bytes(buf, payload);
            }
            LogRecord::PendingRemove { id } => {
                buf.push(T_PENDING_REMOVE);
                codec::put_u64(buf, *id);
            }
            LogRecord::Ground { id, ops } => {
                buf.push(T_GROUND);
                codec::put_u64(buf, *id);
                codec::put_u32(buf, ops.len() as u32);
                for op in ops {
                    put_op(buf, op);
                }
            }
            LogRecord::Checkpoint => buf.push(T_CHECKPOINT),
        }
    }

    /// Decode a record payload; bytes past the record's end are an error.
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        let r = &mut Reader::new(buf);
        let record = match r.u8()? {
            T_CREATE_TABLE => LogRecord::CreateTable(codec::get_schema(r)?),
            T_CREATE_INDEX => LogRecord::CreateIndex {
                relation: r.str()?.to_owned(),
                column: r.u32()?,
            },
            tag @ (T_INSERT | T_DELETE) => LogRecord::Write(get_op(r, tag)?),
            T_PENDING_ADD => {
                let id = r.u64()?;
                let len = r.u32()? as usize;
                let payload = r.bytes(len)?.to_vec();
                LogRecord::PendingAdd { id, payload }
            }
            T_PENDING_REMOVE => LogRecord::PendingRemove { id: r.u64()? },
            T_GROUND => {
                let id = r.u64()?;
                // An op is at least a tag, a relation length and an arity.
                let n = r.count(codec::MAX_LOG_COUNT, 9, "ground op count")?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = r.u8()?;
                    ops.push(get_op(r, tag)?);
                }
                LogRecord::Ground { id, ops }
            }
            T_CHECKPOINT => LogRecord::Checkpoint,
            t => return Err(StorageError::Codec(format!("unknown record tag {t}"))),
        };
        r.finish()?;
        Ok(record)
    }
}

/// Destination for framed log bytes.
pub trait LogSink: Send {
    /// Append raw frame bytes (already framed by [`Wal`]).
    fn append(&mut self, frame: &[u8]) -> Result<()>;
    /// Lend the log's bytes from `offset` to its end — exactly the bytes
    /// [`LogSink::len`] counts — to `f` in order, as one or more non-empty
    /// chunks. Stops early once `f` returns `false`; an `offset` at or past
    /// the end lends nothing.
    fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()>;
    /// Current log size in bytes.
    fn len(&self) -> u64;
    /// Discard everything past `len` bytes (recovery drops torn tails
    /// before appending resumes).
    fn truncate_to(&mut self, len: u64) -> Result<()>;
    /// Push buffered bytes towards durable media (no-op for sinks without
    /// their own buffering).
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    /// True when no bytes have been written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// In-memory sink (the default; also used to simulate crashes by truncating).
#[derive(Debug, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
}

impl MemorySink {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Construct from existing bytes (e.g. a recovered log image).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemorySink { bytes }
    }

    /// Truncate to `len` bytes — simulates a crash with a torn tail.
    pub fn truncate(&mut self, len: usize) {
        self.bytes.truncate(len);
    }

    /// Raw log bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl LogSink for MemorySink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.bytes.extend_from_slice(frame);
        Ok(())
    }

    fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()> {
        if let Some(rest) = self.bytes.get(offset as usize..).filter(|r| !r.is_empty()) {
            f(rest)?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.bytes.truncate(len as usize);
        Ok(())
    }
}

/// Bytes [`FileSink::read_from`] reads from the file per chunk, into one
/// buffer reused for the whole read.
const FILE_READ_CHUNK: usize = 64 * 1024;

/// File-backed sink with buffered writes and explicit sync points.
///
/// Its log is the file followed by the bytes still in the write buffer:
/// `append` may leave bytes there (and a failed flush keeps them), yet
/// they count in [`LogSink::len`], so [`LogSink::read_from`] lends them
/// too.
pub struct FileSink {
    path: std::path::PathBuf,
    file: std::io::BufWriter<std::fs::File>,
    written: u64,
}

impl FileSink {
    /// Open (append) or create the log file at `path`.
    pub fn open(path: impl Into<std::path::PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let written = file.metadata()?.len();
        Ok(FileSink {
            path,
            file: std::io::BufWriter::new(file),
            written,
        })
    }

    /// Flush buffered frames to the OS.
    pub fn flush(&mut self) -> Result<()> {
        use std::io::Write;
        self.file.flush()?;
        Ok(())
    }
}

impl LogSink for FileSink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        use std::io::Write;
        self.file.write_all(frame)?;
        self.written += frame.len() as u64;
        Ok(())
    }

    fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let unflushed = self.file.buffer();
        let flushed = self.written - unflushed.len() as u64;
        if offset < flushed {
            let mut file = std::fs::File::open(&self.path)?;
            file.seek(SeekFrom::Start(offset))?;
            let mut left = flushed - offset;
            let mut chunk = vec![0u8; FILE_READ_CHUNK.min(left as usize)];
            while left > 0 {
                let n = chunk.len().min(left as usize);
                file.read_exact(&mut chunk[..n])?;
                left -= n as u64;
                if !f(&chunk[..n])? {
                    return Ok(());
                }
            }
        }
        let skip = offset.saturating_sub(flushed) as usize;
        if skip < unflushed.len() {
            f(&unflushed[skip..])?;
        }
        Ok(())
    }

    fn len(&self) -> u64 {
        self.written
    }

    fn truncate_to(&mut self, len: u64) -> Result<()> {
        use std::io::Write;
        self.file.flush()?;
        let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(len)?;
        self.written = len;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.flush()
    }
}

/// The write-ahead log: frames records into a [`LogSink`], with **group
/// commit**.
///
/// `append` encodes and frames the record into an in-memory tail buffer —
/// no sink I/O. The buffered frames reach the sink in one write + one
/// [`LogSink::sync`] per *drain*: when the buffer exceeds
/// [`Wal::DEFAULT_GROUP_LIMIT`] bytes (tune with [`Wal::set_group_limit`];
/// `0` drains every append, reproducing the pre-group-commit behavior), on
/// an explicit [`Wal::sync`], or before any operation that reads or edits
/// the sink directly. Buffer order is append order, so the log-order ==
/// txn-id-order invariant of the engine (ids allocated under the WAL lock)
/// is preserved across drains. [`Wal::read_from`] lends sink *plus*
/// buffered bytes, so a record is observable from the moment `append`
/// returns.
///
/// **Durability window**: a process crash loses whatever sits in the tail
/// buffer (at most one group). This prototype has always had such a
/// window — the file sink's `BufWriter` was never flushed per append and
/// no sink fsyncs — the group buffer makes it explicit, bounded, and
/// tunable: `set_group_limit(0)` restores drain-per-append for callers
/// that want the smallest window the sink can provide.
pub struct Wal {
    sink: Box<dyn LogSink>,
    records_written: u64,
    /// Framed records not yet pushed to the sink.
    pending: Vec<u8>,
    pending_records: u64,
    group_limit: usize,
    drains: u64,
    /// Observability handle: `append` records [`qdb_obs::Phase::WalAppend`]
    /// and each drain records [`qdb_obs::Phase::WalFlush`]. `None` (the
    /// default for standalone WALs) or a disabled handle reads no clock.
    obs: Option<std::sync::Arc<qdb_obs::Obs>>,
}

impl Wal {
    /// Default tail-buffer size that triggers a drain.
    pub const DEFAULT_GROUP_LIMIT: usize = 64 * 1024;

    /// A WAL over an in-memory sink.
    pub fn in_memory() -> Self {
        Wal::with_sink(Box::new(MemorySink::new()))
    }

    /// A WAL over a custom sink.
    pub fn with_sink(sink: Box<dyn LogSink>) -> Self {
        Wal {
            sink,
            records_written: 0,
            pending: Vec::new(),
            pending_records: 0,
            group_limit: Wal::DEFAULT_GROUP_LIMIT,
            drains: 0,
            obs: None,
        }
    }

    /// Set the drain threshold in bytes (`0` = drain on every append).
    pub fn set_group_limit(&mut self, bytes: usize) {
        self.group_limit = bytes;
    }

    /// Install the observability handle append/flush timings feed into.
    pub fn set_obs(&mut self, obs: Option<std::sync::Arc<qdb_obs::Obs>>) {
        self.obs = obs;
    }

    /// Append one record (framed + checksummed) to the tail buffer,
    /// draining to the sink when the buffer exceeds the group limit.
    ///
    /// Error contract: `Err` means the record is **not** in the log (it is
    /// rolled back out of the tail buffer when the triggered drain cannot
    /// hand the bytes to the sink), and `Ok` means it **is** — buffered or
    /// already sunk. A sink *sync* failure after the sink accepted the
    /// bytes does not fail the append (the record reached the log); flush
    /// health is surfaced by explicit [`Wal::sync`] calls (checkpoints).
    pub fn append(&mut self, record: &LogRecord) -> Result<()> {
        let t0 = self.obs.as_ref().map(|o| o.start()).unwrap_or_default();
        let result = self.append_inner(record);
        if let Some(obs) = &self.obs {
            obs.span(qdb_obs::Phase::WalAppend, t0);
        }
        result
    }

    fn append_inner(&mut self, record: &LogRecord) -> Result<()> {
        // Reserve the frame header, encode the payload behind it, then
        // patch in its length and checksum: no intermediate buffer.
        let start = self.pending.len();
        self.pending.extend_from_slice(&[0; 8]);
        record.encode_into(&mut self.pending);
        let payload = &self.pending[start + 8..];
        let header = [
            (payload.len() as u32).to_le_bytes(),
            codec::crc32(payload).to_le_bytes(),
        ];
        self.pending[start..start + 8].copy_from_slice(header.as_flattened());
        self.records_written += 1;
        self.pending_records += 1;
        if self.pending.len() > self.group_limit {
            if let Err(e) = self.drain() {
                if !self.pending.is_empty() {
                    // The sink rejected the batch: un-log this record so a
                    // failure report never precedes a later durable copy
                    // (the caller treats Err as "did not happen").
                    self.pending.truncate(start);
                    self.records_written -= 1;
                    self.pending_records -= 1;
                    return Err(e);
                }
                // Sink accepted the bytes, only the flush failed: the
                // record is in the log — report success here and let the
                // next explicit sync surface the sink's health.
            }
        }
        Ok(())
    }

    /// Push every buffered frame to the sink in one write, then sync the
    /// sink. One drain = one buffered write + one flush, regardless of how
    /// many records accumulated.
    pub fn sync(&mut self) -> Result<()> {
        self.drain()
    }

    fn drain(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let t0 = self.obs.as_ref().map(|o| o.start()).unwrap_or_default();
        let result = self.drain_inner();
        if let Some(obs) = &self.obs {
            obs.span(qdb_obs::Phase::WalFlush, t0);
        }
        result
    }

    fn drain_inner(&mut self) -> Result<()> {
        self.sink.append(&self.pending)?;
        // The sink owns the bytes now: clear *before* syncing, so a flush
        // failure can never cause the same frames to be appended twice on
        // the next drain (duplicated records would replay as double
        // writes).
        self.pending.clear();
        self.pending_records = 0;
        self.drains += 1;
        self.sink.sync()
    }

    /// Number of records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Records currently buffered (not yet drained to the sink).
    pub fn buffered_records(&self) -> u64 {
        self.pending_records
    }

    /// Number of drains (group commits) so far. `records_written /
    /// max(drains, 1)` approximates the achieved group size.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Log size in bytes (sink plus tail buffer).
    pub fn size_bytes(&self) -> u64 {
        self.sink.len() + self.pending.len() as u64
    }

    /// Lend the log from byte `offset` — the sink's bytes, then the
    /// buffered tail — to `f` in chunks, without draining; stops early
    /// once `f` returns `false`. Feed the chunks to a [`FrameReader`] to
    /// decode them.
    pub fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()> {
        let sunk = self.sink.len();
        let mut more = true;
        if offset < sunk {
            self.sink.read_from(offset, &mut |chunk| {
                more = f(chunk)?;
                Ok(more)
            })?;
        }
        let skip = offset.saturating_sub(sunk) as usize;
        if more && skip < self.pending.len() {
            f(&self.pending[skip..])?;
        }
        Ok(())
    }

    /// Drain the tail buffer, then copy at most `max` log bytes starting
    /// at `offset` (clamped to the end). Returns the log length with the
    /// copy; only the copied range is read from the sink.
    pub fn segment(&mut self, offset: u64, max: usize) -> Result<(u64, Vec<u8>)> {
        self.drain()?;
        let len = self.sink.len();
        let start = offset.min(len);
        let mut out = Vec::with_capacity(max.min((len - start) as usize));
        self.sink.read_from(start, &mut |chunk| {
            let take = chunk.len().min(max - out.len());
            out.extend_from_slice(&chunk[..take]);
            Ok(out.len() < max)
        })?;
        Ok((len, out))
    }

    /// The full framed log image (drains the tail buffer first, so the
    /// sink holds every appended record) — the one whole-log copy; every
    /// other reader takes the log by range.
    pub fn image(&mut self) -> Result<Vec<u8>> {
        Ok(self.segment(0, usize::MAX)?.1)
    }

    /// Drop a torn tail: discard all bytes past `len` so appends resume on
    /// a frame boundary.
    pub fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.drain()?;
        self.sink.truncate_to(len)
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

/// A byte-level fault applied to a log image — the physical failure modes a
/// checksummed log is supposed to contain: silent bit rot and a buffered
/// group commit that never reached the media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFault {
    /// XOR the byte at `offset` with `0xFF` (bit rot / misdirected write).
    FlipByte {
        /// Absolute byte offset into the log image.
        offset: u64,
    },
    /// Remove `len` bytes starting at `offset` (a lost group flush: later
    /// writes landed, the buffered batch did not).
    DropRange {
        /// Absolute byte offset into the log image.
        offset: u64,
        /// Number of bytes lost.
        len: u64,
    },
}

/// Apply `faults` in order to a copy of `bytes`. Offsets past the end of
/// the (evolving) image are clamped — a fault can never grow the log.
pub fn apply_faults(bytes: &[u8], faults: &[SinkFault]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for fault in faults {
        match *fault {
            SinkFault::FlipByte { offset } => {
                if let Some(b) = out.get_mut(offset as usize) {
                    *b ^= 0xFF;
                }
            }
            SinkFault::DropRange { offset, len } => {
                let start = (offset as usize).min(out.len());
                let end = (offset as usize)
                    .saturating_add(len as usize)
                    .min(out.len());
                out.drain(start..end);
            }
        }
    }
    out
}

/// A [`LogSink`] wrapper that presents a faulted view of its inner sink.
///
/// Reads see the inner bytes with every registered [`SinkFault`] applied.
/// The first write-path call (`append` / `truncate_to`) *materializes* the
/// faulted view into a fresh [`MemorySink`] and clears the fault list, so
/// offsets observed by recovery (e.g. `consumed_bytes` truncation) stay
/// consistent with the bytes later appends land on — exactly as if the
/// corruption had happened on media before the process restarted.
pub struct FaultSink {
    inner: Box<dyn LogSink>,
    faults: Vec<SinkFault>,
}

impl FaultSink {
    /// Wrap `inner`, presenting it with `faults` applied.
    pub fn new(inner: Box<dyn LogSink>, faults: Vec<SinkFault>) -> Self {
        FaultSink { inner, faults }
    }

    fn materialize(&mut self) -> Result<()> {
        if self.faults.is_empty() {
            return Ok(());
        }
        self.inner = Box::new(self.faulted()?);
        self.faults.clear();
        Ok(())
    }

    /// The faulted view: the inner bytes with [`apply_faults`] applied.
    fn faulted(&self) -> Result<MemorySink> {
        let mut bytes = Vec::with_capacity(self.inner.len() as usize);
        self.inner.read_from(0, &mut |chunk| {
            bytes.extend_from_slice(chunk);
            Ok(true)
        })?;
        Ok(MemorySink::from_bytes(apply_faults(&bytes, &self.faults)))
    }
}

impl LogSink for FaultSink {
    fn append(&mut self, frame: &[u8]) -> Result<()> {
        self.materialize()?;
        self.inner.append(frame)
    }

    fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()> {
        if self.faults.is_empty() {
            return self.inner.read_from(offset, f);
        }
        self.faulted()?.read_from(offset, f)
    }

    fn len(&self) -> u64 {
        let mut len = self.inner.len();
        for fault in &self.faults {
            if let SinkFault::DropRange { offset, len: cut } = *fault {
                len -= cut.min(len.saturating_sub(offset));
            }
        }
        len
    }

    fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.materialize()?;
        self.inner.truncate_to(len)
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

/// Frame header: `[len: u32 LE][crc32(payload): u32 LE]`.
const FRAME_HEADER: usize = 8;

/// Total size of the frame starting at `bytes[0]`, once its header is in.
fn frame_len(bytes: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    (bytes.len() >= FRAME_HEADER).then_some(FRAME_HEADER + len)
}

/// Incremental frame decoder — the one parser of frame headers.
///
/// Fed a log's bytes in chunks of any size, it decodes each frame as soon
/// as its last byte arrives, carrying a partial frame across chunk
/// boundaries (the only bytes it copies). It stops for good at the first
/// frame whose checksum fails or whose payload does not decode: the
/// prefix rule recovery, replay and replication share. A frame that never
/// completes is a torn tail — it stays [`FrameReader::carried`] and is
/// never yielded.
#[derive(Debug, Default)]
pub struct FrameReader {
    /// Bytes of the frame the last chunk ended inside.
    carry: Vec<u8>,
    /// Offset just past the last accepted frame.
    consumed: u64,
    stopped: bool,
}

impl FrameReader {
    /// A reader at the log's first byte.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Bytes of intact frames accepted so far: the offset of the first
    /// byte not consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Bytes held of a frame not yet complete.
    pub fn carried(&self) -> usize {
        self.carry.len()
    }

    /// Feed the next chunk. `on_frame` receives each intact record with
    /// its frame's `[start, end)` byte span, in log order. Returns
    /// `Ok(false)` once the reader has stopped at a bad frame — so it can
    /// serve directly as a [`LogSink::read_from`] callback — and the first
    /// error `on_frame` returns, which also stops the reader.
    pub fn feed<E>(
        &mut self,
        mut chunk: &[u8],
        mut on_frame: impl FnMut(LogRecord, (u64, u64)) -> std::result::Result<(), E>,
    ) -> std::result::Result<bool, E> {
        // Finish the frame a previous chunk ended inside.
        while !self.stopped && !self.carry.is_empty() {
            let want = frame_len(&self.carry).unwrap_or(FRAME_HEADER);
            let take = (want - self.carry.len()).min(chunk.len());
            self.carry.extend_from_slice(&chunk[..take]);
            chunk = &chunk[take..];
            if self.carry.len() < want {
                return Ok(true);
            }
            if frame_len(&self.carry) == Some(self.carry.len()) {
                let frame = std::mem::take(&mut self.carry);
                let result = self.accept(&frame, &mut on_frame);
                self.carry = frame;
                self.carry.clear();
                result?;
            }
        }
        // Then frames straight from the chunk, copying only a partial one.
        while !self.stopped {
            match frame_len(chunk) {
                Some(total) if chunk.len() >= total => {
                    self.accept(&chunk[..total], &mut on_frame)?;
                    chunk = &chunk[total..];
                }
                _ => {
                    self.carry.extend_from_slice(chunk);
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// Check and decode one whole frame; a bad one stops the reader.
    fn accept<E>(
        &mut self,
        frame: &[u8],
        on_frame: &mut impl FnMut(LogRecord, (u64, u64)) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let crc = u32::from_le_bytes(frame[4..FRAME_HEADER].try_into().unwrap());
        let payload = &frame[FRAME_HEADER..];
        let decoded = if codec::crc32(payload) == crc {
            LogRecord::decode(payload).ok()
        } else {
            None
        };
        let Some(record) = decoded else {
            self.stopped = true;
            return Ok(());
        };
        let span = (self.consumed, self.consumed + frame.len() as u64);
        if let Err(e) = on_frame(record, span) {
            self.stopped = true;
            return Err(e);
        }
        self.consumed = span.1;
        Ok(())
    }
}

/// Byte spans `[start, end)` of each intact frame in a raw log image,
/// stopping at the first torn or corrupt frame — the same prefix rule as
/// [`replay_bytes`]. Fault planners use this to target whole frames.
pub fn frame_spans(bytes: &[u8]) -> Vec<(u64, u64)> {
    let mut spans = Vec::new();
    FrameReader::new()
        .feed(bytes, |_, span| {
            spans.push(span);
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap_or_else(|never| match never {});
    spans
}

/// Decode framed records from a raw log image. Returns the records and the
/// offset of the first byte **not** consumed (torn tails stop the replay).
pub fn replay_bytes(bytes: &[u8]) -> Result<(Vec<LogRecord>, u64)> {
    let mut records = Vec::new();
    let mut reader = FrameReader::new();
    reader.feed(bytes, |record, _| {
        records.push(record);
        Ok::<(), StorageError>(())
    })?;
    Ok((records, reader.consumed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ValueType;
    use crate::tuple;

    /// Every intact record of `wal`, buffered frames included, read by
    /// range through the frame reader (no drain).
    fn read_back(wal: &Wal) -> (Vec<LogRecord>, u64) {
        let mut records = Vec::new();
        let mut reader = FrameReader::new();
        wal.read_from(0, &mut |chunk| {
            reader.feed(chunk, |record, _| {
                records.push(record);
                Ok(())
            })
        })
        .unwrap();
        (records, reader.consumed())
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::CreateTable(Schema::new(
                "Available",
                vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
            )),
            LogRecord::CreateIndex {
                relation: "Available".into(),
                column: 0,
            },
            LogRecord::Write(WriteOp::insert("Available", tuple![1, "1A"])),
            LogRecord::PendingAdd {
                id: 7,
                payload: vec![1, 2, 3, 4],
            },
            LogRecord::Write(WriteOp::delete("Available", tuple![1, "1A"])),
            LogRecord::PendingRemove { id: 7 },
            LogRecord::Ground {
                id: 9,
                ops: vec![
                    WriteOp::delete("Available", tuple![2, "2B"]),
                    WriteOp::insert("Available", tuple![3, "3C"]),
                ],
            },
            LogRecord::Checkpoint,
        ]
    }

    #[test]
    fn record_encode_decode_roundtrip() {
        for r in sample_records() {
            let encoded = r.encode();
            assert_eq!(LogRecord::decode(&encoded).unwrap(), r);
        }
    }

    #[test]
    fn wal_append_replay_roundtrip() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let (records, consumed) = read_back(&wal);
        assert_eq!(records, sample_records());
        assert_eq!(consumed, wal.size_bytes());
        assert_eq!(wal.records_written(), sample_records().len() as u64);
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let full = wal.size_bytes() as usize;
        // Chop off bytes one at a time; replay must never error and must
        // return a prefix of the record stream.
        assert_eq!(read_back(&wal).0.len(), sample_records().len());
        let image = wal.image().unwrap();
        for cut in 0..full {
            let (records, consumed) = replay_bytes(&image[..cut]).unwrap();
            assert!(consumed as usize <= cut);
            let expected = &sample_records()[..records.len()];
            assert_eq!(records.as_slice(), expected);
        }
    }

    #[test]
    fn corrupt_byte_stops_replay_at_frame_boundary() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let mut bytes = wal.image().unwrap();
        // Flip a byte inside the second frame's payload.
        let second_payload = frame_spans(&bytes)[1].0 as usize + 8 + 1;
        bytes[second_payload] ^= 0xFF;
        let (records, _) = replay_bytes(&bytes).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], sample_records()[0]);
    }

    #[test]
    fn file_sink_roundtrip() {
        let dir = std::env::temp_dir().join(format!("qdb-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut sink = FileSink::open(&path).unwrap();
            let mut wal = Wal::with_sink(Box::new(FileSink::open(&path).unwrap()));
            for r in sample_records() {
                wal.append(&r).unwrap();
            }
            // Ensure buffered bytes hit the file.
            drop(wal);
            sink.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let (records, _) = replay_bytes(&bytes).unwrap();
        assert_eq!(records, sample_records());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let wal = Wal::in_memory();
        let (records, consumed) = read_back(&wal);
        assert!(records.is_empty());
        assert_eq!(consumed, 0);
    }

    /// Sink that counts write and sync calls (group-commit observability).
    #[derive(Default)]
    struct CountingSink {
        inner: MemorySink,
        writes: std::sync::Arc<std::sync::atomic::AtomicU64>,
        syncs: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl LogSink for CountingSink {
        fn append(&mut self, frame: &[u8]) -> Result<()> {
            self.writes
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.inner.append(frame)
        }
        fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()> {
            self.inner.read_from(offset, f)
        }
        fn len(&self) -> u64 {
            LogSink::len(&self.inner)
        }
        fn truncate_to(&mut self, len: u64) -> Result<()> {
            self.inner.truncate_to(len)
        }
        fn sync(&mut self) -> Result<()> {
            self.syncs.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn group_commit_batches_appends_into_one_sink_write() {
        use std::sync::atomic::Ordering::SeqCst;
        let writes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let syncs = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sink = CountingSink {
            inner: MemorySink::new(),
            writes: writes.clone(),
            syncs: syncs.clone(),
        };
        let mut wal = Wal::with_sink(Box::new(sink));
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        // Everything still buffered: zero sink traffic, yet fully
        // observable through replay and size_bytes.
        assert_eq!(writes.load(SeqCst), 0);
        assert_eq!(wal.buffered_records(), sample_records().len() as u64);
        let (records, consumed) = read_back(&wal);
        assert_eq!(records, sample_records());
        assert_eq!(consumed, wal.size_bytes());
        // One drain = one buffered write + one flush for the whole batch.
        wal.sync().unwrap();
        assert_eq!(writes.load(SeqCst), 1);
        assert_eq!(syncs.load(SeqCst), 1);
        assert_eq!(wal.drains(), 1);
        assert_eq!(wal.buffered_records(), 0);
        // Draining an empty buffer is free.
        wal.sync().unwrap();
        assert_eq!(writes.load(SeqCst), 1);
        assert_eq!(wal.drains(), 1);
    }

    #[test]
    fn group_limit_zero_drains_every_append() {
        let writes = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let sink = CountingSink {
            inner: MemorySink::new(),
            writes: writes.clone(),
            syncs: Default::default(),
        };
        let mut wal = Wal::with_sink(Box::new(sink));
        wal.set_group_limit(0);
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        assert_eq!(
            writes.load(std::sync::atomic::Ordering::SeqCst),
            sample_records().len() as u64
        );
        assert_eq!(wal.drains(), sample_records().len() as u64);
    }

    /// Sink with injectable append/sync failures.
    struct FlakySink {
        inner: MemorySink,
        fail_appends: std::sync::Arc<std::sync::atomic::AtomicBool>,
        fail_syncs: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl LogSink for FlakySink {
        fn append(&mut self, frame: &[u8]) -> Result<()> {
            if self.fail_appends.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(StorageError::Io("injected append failure".into()));
            }
            self.inner.append(frame)
        }
        fn read_from(&self, offset: u64, f: &mut dyn FnMut(&[u8]) -> Result<bool>) -> Result<()> {
            self.inner.read_from(offset, f)
        }
        fn len(&self) -> u64 {
            LogSink::len(&self.inner)
        }
        fn truncate_to(&mut self, len: u64) -> Result<()> {
            self.inner.truncate_to(len)
        }
        fn sync(&mut self) -> Result<()> {
            if self.fail_syncs.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(StorageError::Io("injected sync failure".into()));
            }
            Ok(())
        }
    }

    fn flaky_wal() -> (
        Wal,
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) {
        let fail_appends = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let fail_syncs = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let wal = Wal::with_sink(Box::new(FlakySink {
            inner: MemorySink::new(),
            fail_appends: fail_appends.clone(),
            fail_syncs: fail_syncs.clone(),
        }));
        (wal, fail_appends, fail_syncs)
    }

    #[test]
    fn sync_failure_never_duplicates_a_drained_group() {
        use std::sync::atomic::Ordering::SeqCst;
        let (mut wal, _appends, syncs) = flaky_wal();
        wal.set_group_limit(0); // drain per append
        syncs.store(true, SeqCst);
        // The sink accepted the bytes; only the flush failed — the record
        // is in the log and the append reports success.
        wal.append(&LogRecord::Checkpoint).unwrap();
        wal.append(&LogRecord::PendingRemove { id: 7 }).unwrap();
        syncs.store(false, SeqCst);
        wal.append(&LogRecord::Checkpoint).unwrap();
        let (records, _) = read_back(&wal);
        // Exactly three records — the failed syncs must not have left the
        // group in the buffer to be appended to the sink a second time.
        assert_eq!(
            records,
            vec![
                LogRecord::Checkpoint,
                LogRecord::PendingRemove { id: 7 },
                LogRecord::Checkpoint,
            ]
        );
    }

    #[test]
    fn failed_sink_append_rolls_the_record_out_of_the_log() {
        use std::sync::atomic::Ordering::SeqCst;
        let (mut wal, appends, _syncs) = flaky_wal();
        wal.set_group_limit(0);
        wal.append(&LogRecord::Checkpoint).unwrap();
        appends.store(true, SeqCst);
        // Err must mean "not in the log": no buffered copy may later
        // become durable behind the caller's back.
        assert!(wal
            .append(&LogRecord::PendingAdd {
                id: 9,
                payload: vec![1]
            })
            .is_err());
        assert_eq!(wal.buffered_records(), 0);
        assert_eq!(wal.records_written(), 1);
        appends.store(false, SeqCst);
        wal.append(&LogRecord::PendingRemove { id: 3 }).unwrap();
        let (records, _) = read_back(&wal);
        assert_eq!(
            records,
            vec![LogRecord::Checkpoint, LogRecord::PendingRemove { id: 3 }]
        );
    }

    /// `record` framed from its standalone encoding.
    fn framed(record: &LogRecord) -> Vec<u8> {
        let payload = record.encode();
        let len = (payload.len() as u32).to_le_bytes();
        let crc = codec::crc32(&payload).to_le_bytes();
        [&len[..], &crc[..], &payload[..]].concat()
    }

    #[test]
    fn in_place_frames_equal_framed_encodings_of_every_record_kind() {
        let mut wal = Wal::in_memory();
        let mut want = Vec::new();
        for r in sample_records() {
            wal.append(&r).unwrap();
            want.extend(framed(&r));
        }
        assert_eq!(wal.image().unwrap(), want);

        // A drain the sink refuses rolls the record back out of the tail
        // buffer and leaves the frames buffered before it intact.
        use std::sync::atomic::Ordering::SeqCst;
        for r in sample_records() {
            let (mut wal, appends, _syncs) = flaky_wal();
            let first = LogRecord::PendingRemove { id: 1 };
            wal.set_group_limit(framed(&first).len());
            wal.append(&first).unwrap();
            appends.store(true, SeqCst);
            assert!(wal.append(&r).is_err());
            appends.store(false, SeqCst);
            wal.append(&LogRecord::Checkpoint).unwrap();
            let want = [framed(&first), framed(&LogRecord::Checkpoint)].concat();
            assert_eq!(wal.image().unwrap(), want, "{r:?}");
        }
    }

    #[test]
    fn frame_spans_tile_the_image_and_stop_at_corruption() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let bytes = wal.image().unwrap();
        let spans = frame_spans(&bytes);
        assert_eq!(spans.len(), sample_records().len());
        assert_eq!(spans[0].0, 0);
        for w in spans.windows(2) {
            assert_eq!(w[0].1, w[1].0); // frames tile with no gaps
        }
        assert_eq!(spans.last().unwrap().1, bytes.len() as u64);
        // Corrupting frame 3's payload stops the span walk there.
        let mut bad = bytes.clone();
        bad[spans[2].0 as usize + 8] ^= 0xFF;
        assert_eq!(frame_spans(&bad).len(), 2);
    }

    #[test]
    fn fault_sink_flip_byte_cuts_recovery_at_the_frame_boundary() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let bytes = wal.image().unwrap();
        let spans = frame_spans(&bytes);
        // Flip a byte inside the 4th frame's payload.
        let fault = SinkFault::FlipByte {
            offset: spans[3].0 + 8,
        };
        let faulted = Wal::with_sink(Box::new(FaultSink::new(
            Box::new(MemorySink::from_bytes(bytes.clone())),
            vec![fault],
        )));
        let (records, consumed) = read_back(&faulted);
        assert_eq!(records, sample_records()[..3].to_vec());
        assert_eq!(consumed, spans[2].1);
        // The direct byte view agrees with the sink view.
        let (direct, _) = replay_bytes(&apply_faults(&bytes, &[fault])).unwrap();
        assert_eq!(direct, records);
    }

    #[test]
    fn fault_sink_drop_range_loses_whole_frames_but_keeps_the_rest_valid() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let bytes = wal.image().unwrap();
        let spans = frame_spans(&bytes);
        // Drop frames 2..4 (a lost group flush mid-log).
        let fault = SinkFault::DropRange {
            offset: spans[2].0,
            len: spans[3].1 - spans[2].0,
        };
        let sink = FaultSink::new(Box::new(MemorySink::from_bytes(bytes.clone())), vec![fault]);
        assert_eq!(
            LogSink::len(&sink),
            bytes.len() as u64 - (spans[3].1 - spans[2].0)
        );
        let faulted = Wal::with_sink(Box::new(sink));
        let (records, consumed) = read_back(&faulted);
        let mut expected = sample_records();
        expected.drain(2..4);
        assert_eq!(records, expected);
        assert_eq!(consumed, faulted.size_bytes());
    }

    #[test]
    fn fault_sink_materializes_before_writes() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let bytes = wal.image().unwrap();
        let spans = frame_spans(&bytes);
        let fault = SinkFault::FlipByte {
            offset: spans[3].0 + 8,
        };
        let mut faulted = Wal::with_sink(Box::new(FaultSink::new(
            Box::new(MemorySink::from_bytes(bytes)),
            vec![fault],
        )));
        // Recovery-style sequence: truncate to the valid prefix, then keep
        // appending. The faulted suffix must be gone for good.
        let (prefix, consumed) = read_back(&faulted);
        faulted.truncate_to(consumed).unwrap();
        faulted.append(&LogRecord::Checkpoint).unwrap();
        let (records, _) = read_back(&faulted);
        let mut expected = prefix;
        expected.push(LogRecord::Checkpoint);
        assert_eq!(records, expected);
    }

    #[test]
    fn buffer_overflow_triggers_drain_preserving_order() {
        let mut wal = Wal::in_memory();
        wal.set_group_limit(64); // tiny: force several drains
        let mut expected = Vec::new();
        for i in 0..50u64 {
            let r = LogRecord::PendingAdd {
                id: i,
                payload: vec![i as u8; 16],
            };
            wal.append(&r).unwrap();
            expected.push(r);
        }
        assert!(wal.drains() > 1);
        let (records, _) = read_back(&wal);
        assert_eq!(records, expected);
        // image() drains the tail and equals the replayed stream.
        let image = wal.image().unwrap();
        let (from_image, _) = replay_bytes(&image).unwrap();
        assert_eq!(from_image, expected);
        assert_eq!(wal.buffered_records(), 0);
    }

    /// Copy a sink's bytes from `offset`, checking every chunk is non-empty.
    fn lent(sink: &dyn LogSink, offset: u64) -> Vec<u8> {
        let mut out = Vec::new();
        sink.read_from(offset, &mut |chunk| {
            assert!(!chunk.is_empty(), "sinks lend non-empty chunks");
            out.extend_from_slice(chunk);
            Ok(true)
        })
        .unwrap();
        out
    }

    /// Records, spans and consumed offset from feeding `chunks` in order.
    fn feed_all<'a>(
        chunks: impl IntoIterator<Item = &'a [u8]>,
    ) -> (Vec<LogRecord>, Vec<(u64, u64)>, u64) {
        let (mut records, mut spans) = (Vec::new(), Vec::new());
        let mut reader = FrameReader::new();
        for chunk in chunks {
            reader
                .feed(chunk, |record, span| {
                    records.push(record);
                    spans.push(span);
                    Ok::<(), StorageError>(())
                })
                .unwrap();
        }
        (records, spans, reader.consumed())
    }

    #[test]
    fn frame_reader_yields_the_one_shot_replay_at_any_chunking() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let image = wal.image().unwrap();
        let spans = frame_spans(&image);
        let mut torn = image.clone();
        torn.truncate(image.len() - 3);
        let mut flipped = image.clone();
        flipped[spans[4].0 as usize + 9] ^= 0xFF;
        for (name, bytes) in [("whole", &image), ("torn", &torn), ("flipped", &flipped)] {
            let (want, want_consumed) = replay_bytes(bytes).unwrap();
            let want_spans = frame_spans(bytes);
            let expected = (want.clone(), want_spans.clone(), want_consumed);
            assert_eq!(want_spans.len(), want.len());
            for size in 1..=bytes.len() {
                assert_eq!(
                    feed_all(bytes.chunks(size)),
                    expected,
                    "{name}: chunk size {size}"
                );
            }
            for at in 0..=bytes.len() {
                let (a, b) = bytes.split_at(at);
                assert_eq!(feed_all([a, b]), expected, "{name}: split at {at}");
            }
        }
        assert_eq!(
            replay_bytes(&torn).unwrap().0.len(),
            sample_records().len() - 1
        );
        assert_eq!(replay_bytes(&flipped).unwrap().0.len(), 4);
        assert_eq!(replay_bytes(&flipped).unwrap().1, spans[3].1);
    }

    #[test]
    fn frame_reader_stops_for_good_at_a_bad_frame_and_on_a_callback_error() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let image = wal.image().unwrap();
        let spans = frame_spans(&image);
        let mut bad = image.clone();
        bad[spans[1].0 as usize + 8] ^= 0xFF;
        let mut reader = FrameReader::new();
        let mut seen = 0;
        let mut count = |_, _| -> Result<()> {
            seen += 1;
            Ok(())
        };
        assert!(!reader.feed(&bad, &mut count).unwrap());
        // Intact frames after the bad one are never yielded.
        assert!(!reader.feed(&image, &mut count).unwrap());
        assert_eq!((seen, reader.consumed()), (1, spans[0].1));

        let mut reader = FrameReader::new();
        let mut calls = 0;
        let err = reader.feed(&image, |_, _| {
            calls += 1;
            if calls == 3 {
                Err("apply failed")
            } else {
                Ok(())
            }
        });
        assert_eq!(err, Err("apply failed"));
        // The failed frame is not consumed, and nothing follows it.
        assert_eq!(reader.consumed(), spans[1].1);
        assert_eq!(reader.feed(&image, |_, _| Ok::<(), ()>(())), Ok(false));
    }

    #[test]
    fn file_sink_reads_back_exactly_the_bytes_it_counts() {
        let dir = std::env::temp_dir().join(format!("qdb-wal-range-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("range.wal");
        let _ = std::fs::remove_file(&path);
        let mut frames = Wal::in_memory();
        for r in sample_records() {
            frames.append(&r).unwrap();
        }
        let frames = frames.image().unwrap();

        let mut sink = FileSink::open(&path).unwrap();
        // Appended, never flushed: the bytes sit in the write buffer, yet
        // `len` counts them — so the read side must lend them.
        sink.append(&frames).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 0);
        assert_eq!(lent(&sink, 0), frames);
        assert_eq!(lent(&sink, 0).len() as u64, LogSink::len(&sink));
        assert_eq!(replay_bytes(&lent(&sink, 0)).unwrap().0, sample_records());

        // Part on disk, part buffered: every offset reads the same suffix,
        // across the file/buffer seam and past the end.
        sink.flush().unwrap();
        sink.append(&frames).unwrap();
        let mut both = frames.clone();
        both.extend_from_slice(&frames);
        assert_eq!(LogSink::len(&sink), both.len() as u64);
        for offset in 0..=both.len() + 2 {
            assert_eq!(lent(&sink, offset as u64), both[offset.min(both.len())..]);
        }

        // Larger than one read chunk: several chunks, same bytes, and an
        // early stop reads no further.
        let big: Vec<u8> = (0..3 * FILE_READ_CHUNK + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        sink.append(&big).unwrap();
        sink.flush().unwrap();
        both.extend_from_slice(&big);
        for offset in [0, 5, FILE_READ_CHUNK + 1, both.len() - 1] {
            assert_eq!(lent(&sink, offset as u64), both[offset..]);
        }
        let mut chunks = 0;
        sink.read_from(0, &mut |chunk| {
            assert!(chunk.len() <= FILE_READ_CHUNK);
            chunks += 1;
            Ok(false)
        })
        .unwrap();
        assert_eq!(chunks, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn segment_copies_only_its_range() {
        let mut wal = Wal::in_memory();
        for r in sample_records() {
            wal.append(&r).unwrap();
        }
        let image = wal.image().unwrap();
        let len = image.len();
        for offset in (0..len + 3).step_by(7) {
            for max in [0, 1, 5, 64, len, usize::MAX] {
                let (total, bytes) = wal.segment(offset as u64, max).unwrap();
                let from = offset.min(len);
                assert_eq!(total, len as u64);
                assert_eq!(bytes, image[from..from.saturating_add(max).min(len)]);
            }
        }
    }
}
