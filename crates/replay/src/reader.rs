//! Streaming `.agtrace` replay.
//!
//! [`TraceReader`] validates the header on open (magic + version, so a
//! wrong or stale file fails immediately), then [`TraceReader::replay`]
//! decodes chunk after chunk — verifying each checksum *before*
//! interpreting a single record — and delivers the decoded batches to
//! any set of [`SharedSink`]s. The cache hierarchy, figure
//! accumulators, and the summary rebuilder all consume a replayed file
//! exactly as they consume a live run.

use crate::codec::{decode_records, get_varint, unwalkable, Checksum, DecodeTotals};
use crate::format::{TraceError, MAGIC, MAX_CHUNK_BYTES, TAG_DIRECTORY, TAG_RECORDS, VERSION};
use agave_trace::{
    CounterSnapshot, NameDirectory, NameId, Pid, Reference, SharedSink, SnapshotEntry,
    ThreadRecord, Tid,
};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// Everything a fully replayed trace yields besides the stream itself:
/// the workload label, the end-of-run directory, the boot-baseline
/// counters, and the stream totals (validated against the footer).
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The recorded workload's label (e.g. `"gallery.mp4.view"`).
    pub label: String,
    /// Name/process/thread tables, byte-equivalent to the live run's.
    pub directory: NameDirectory,
    /// Counters charged before the recorder attached (world boot).
    pub baseline: CounterSnapshot,
    /// Reference blocks delivered.
    pub records: u64,
    /// Total words those blocks span.
    pub words: u64,
}

/// What a [`TraceReader::validate`] walk establishes about a trace:
/// header parsed, every chunk checksum verified, footer present and
/// structurally sound — without decoding or delivering any record.
#[derive(Debug, Clone)]
pub struct ValidateOutcome {
    /// The recorded workload's label, from the header.
    pub label: String,
    /// Number of record chunks whose checksums verified.
    pub record_chunks: u64,
    /// Total bytes walked (header through footer).
    pub bytes: u64,
    /// Record count promised by the footer (not cross-checked — see
    /// [`TraceReader::validate`]).
    pub records: u64,
    /// Word count promised by the footer.
    pub words: u64,
}

/// A streaming `.agtrace` decoder.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    label: String,
    /// Bytes consumed so far — reported in corruption errors.
    offset: u64,
}

impl TraceReader<BufReader<File>> {
    /// Opens `path` and validates the header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        TraceReader::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> TraceReader<R> {
    /// Wraps `input` and validates the `.agtrace` header.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        read_exact_at(&mut input, &mut magic, 0, "file header")?;
        if magic != MAGIC {
            return Err(TraceError::NotATrace);
        }
        let mut version = [0u8; 4];
        read_exact_at(&mut input, &mut version, 8, "format version")?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut offset = 12;
        let label_len = read_varint(&mut input, &mut offset, "label length")?;
        if label_len > 4096 {
            return Err(TraceError::corrupt(offset, "implausible label length"));
        }
        let mut label = vec![0u8; label_len as usize];
        read_exact_at(&mut input, &mut label, offset, "workload label")?;
        offset += label_len;
        let label = String::from_utf8(label)
            .map_err(|_| TraceError::corrupt(offset, "label is not UTF-8"))?;
        Ok(TraceReader {
            input,
            label,
            offset,
        })
    }

    /// The recorded workload's label, from the header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Replays the whole trace into `sinks`, delivering decoded record
    /// batches in captured order, and returns the [`ReplayOutcome`].
    ///
    /// Fails — without delivering the offending chunk — on checksum
    /// mismatch, malformed records, truncation, a missing directory
    /// footer, or totals that contradict the footer.
    pub fn replay(mut self, sinks: &[SharedSink]) -> Result<ReplayOutcome, TraceError> {
        let mut span = agave_telemetry::Span::enter_labeled("replay decode", &self.label);
        let mut records: u64 = 0;
        let mut words: u64 = 0;
        let mut max_tid: u64 = 0;
        let mut max_region: u64 = 0;
        let mut batch: Vec<Reference> = Vec::new();
        loop {
            let chunk_start = self.offset;
            let (tag, payload) = match self.read_chunk()? {
                Some(chunk) => chunk,
                None => {
                    return Err(TraceError::corrupt(
                        self.offset,
                        "trace ends before the directory footer (truncated?)",
                    ));
                }
            };
            match tag {
                TAG_RECORDS => {
                    // Telemetry gate once per chunk (thousands of records).
                    let decode_start = agave_telemetry::enabled().then(std::time::Instant::now);
                    let totals = decode_record_chunk(&payload, chunk_start, &mut batch)?;
                    records += batch.len() as u64;
                    words += totals.words;
                    max_tid = max_tid.max(totals.max_tid);
                    max_region = max_region.max(totals.max_region);
                    for sink in sinks {
                        sink.borrow_mut().on_batch(&batch);
                    }
                    if let Some(start) = decode_start {
                        chunk_metrics(start, batch.len() as u64, payload.len() as u64);
                    }
                    batch.clear();
                }
                TAG_DIRECTORY => {
                    let footer = parse_footer(&payload, chunk_start)?;
                    let mut trailing = [0u8; 1];
                    if self.input.read(&mut trailing)? != 0 {
                        return Err(TraceError::corrupt(
                            self.offset,
                            "trailing data after the directory footer",
                        ));
                    }
                    if records > 0
                        && (max_tid >= footer.directory.thread_count() as u64
                            || max_region >= footer.directory.names().len() as u64)
                    {
                        return Err(TraceError::corrupt(
                            chunk_start,
                            "stream references ids missing from the directory footer",
                        ));
                    }
                    if footer.total_records != records || footer.total_words != words {
                        return Err(TraceError::corrupt(
                            chunk_start,
                            format!(
                                "footer promises {} records / {} words but the body \
                                 carries {records} / {words} (missing chunks?)",
                                footer.total_records, footer.total_words
                            ),
                        ));
                    }
                    span.set_refs(words);
                    return Ok(ReplayOutcome {
                        label: self.label,
                        directory: footer.directory,
                        baseline: footer.baseline,
                        records,
                        words,
                    });
                }
                other => {
                    return Err(TraceError::corrupt(
                        chunk_start,
                        format!("unknown chunk tag 0x{other:02x}"),
                    ));
                }
            }
        }
    }

    /// Walks the whole trace verifying structure without delivering a
    /// single record: every chunk checksum is recomputed, the directory
    /// footer must be present, parseable, and last. No sink sees the
    /// stream and no record is decoded, so validation is bounded by I/O
    /// plus one checksum pass — the cheap admission check `agave-serve`
    /// runs on every upload before a session is created.
    ///
    /// Returns the footer-promised totals. Cross-checking those totals
    /// against the body requires decoding every record, which is
    /// [`TraceReader::replay`]'s job; a record-level inconsistency that a
    /// checksum cannot catch is still caught at analysis time.
    pub fn validate(mut self) -> Result<ValidateOutcome, TraceError> {
        let mut record_chunks: u64 = 0;
        loop {
            let chunk_start = self.offset;
            let (tag, payload) = self.read_chunk()?.ok_or_else(|| {
                TraceError::corrupt(
                    self.offset,
                    "trace ends before the directory footer (truncated?)",
                )
            })?;
            match tag {
                TAG_RECORDS => record_chunks += 1,
                TAG_DIRECTORY => {
                    let footer = parse_footer(&payload, chunk_start)?;
                    let mut trailing = [0u8; 1];
                    if self.input.read(&mut trailing)? != 0 {
                        return Err(TraceError::corrupt(
                            self.offset,
                            "trailing data after the directory footer",
                        ));
                    }
                    return Ok(ValidateOutcome {
                        label: self.label,
                        record_chunks,
                        bytes: self.offset,
                        records: footer.total_records,
                        words: footer.total_words,
                    });
                }
                other => {
                    return Err(TraceError::corrupt(
                        chunk_start,
                        format!("unknown chunk tag 0x{other:02x}"),
                    ));
                }
            }
        }
    }

    /// Reads one framed chunk, verifying its checksum. `Ok(None)` means
    /// clean EOF at a chunk boundary (only valid after the footer — the
    /// caller decides).
    fn read_chunk(&mut self) -> Result<Option<(u8, Vec<u8>)>, TraceError> {
        let mut tag = [0u8; 1];
        match self.input.read(&mut tag)? {
            0 => return Ok(None),
            _ => self.offset += 1,
        }
        let len = read_varint(&mut self.input, &mut self.offset, "chunk length")?;
        // A chunk is at most MAX_CHUNK_RECORDS maximally sized records
        // or the directory; anything beyond a generous bound is damage.
        if len > MAX_CHUNK_BYTES {
            return Err(TraceError::corrupt(self.offset, "implausible chunk length"));
        }
        let mut payload = vec![0u8; len as usize];
        read_exact_at(&mut self.input, &mut payload, self.offset, "chunk payload")?;
        self.offset += len;
        let mut stored = [0u8; 8];
        read_exact_at(&mut self.input, &mut stored, self.offset, "chunk checksum")?;
        self.offset += 8;
        let mut check = Checksum::new();
        check.update(&tag);
        check.update(&payload);
        if check.finish() != u64::from_le_bytes(stored) {
            return Err(TraceError::corrupt(
                self.offset - 8,
                "chunk checksum mismatch (corrupt or truncated write)",
            ));
        }
        Ok(Some((tag[0], payload)))
    }
}

/// Telemetry accounting for one decoded-and-delivered records chunk;
/// only reached when telemetry is enabled. Shared with the buffered
/// read path so both report under the same metric names.
pub(crate) fn chunk_metrics(start: std::time::Instant, chunk_records: u64, chunk_bytes: u64) {
    use agave_telemetry::metrics::{Counter, Histogram};
    use std::sync::OnceLock;
    static DECODE_NS: OnceLock<&'static Counter> = OnceLock::new();
    static DECODE_CHUNKS: OnceLock<&'static Counter> = OnceLock::new();
    static DECODE_RECORDS: OnceLock<&'static Counter> = OnceLock::new();
    static CHUNK_BYTES: OnceLock<&'static Histogram> = OnceLock::new();
    static CHUNK_DECODE_NS: OnceLock<&'static Histogram> = OnceLock::new();
    let ns = start.elapsed().as_nanos() as u64;
    DECODE_NS
        .get_or_init(|| agave_telemetry::metrics::counter("replay.decode_ns"))
        .add(ns);
    DECODE_CHUNKS
        .get_or_init(|| agave_telemetry::metrics::counter("replay.decode_chunks"))
        .incr();
    DECODE_RECORDS
        .get_or_init(|| agave_telemetry::metrics::counter("replay.decode_records"))
        .add(chunk_records);
    CHUNK_BYTES
        .get_or_init(|| agave_telemetry::metrics::histogram("replay.chunk_bytes"))
        .record(chunk_bytes);
    CHUNK_DECODE_NS
        .get_or_init(|| agave_telemetry::metrics::histogram("replay.chunk_decode_ns"))
        .record(ns);
}

/// Decodes a records-chunk payload into `out`, via the branchless
/// [`decode_records`] fast path shared with the buffered reader.
pub(crate) fn decode_record_chunk(
    payload: &[u8],
    chunk_start: u64,
    out: &mut Vec<Reference>,
) -> Result<DecodeTotals, TraceError> {
    let corrupt = |what: &str| TraceError::corrupt(chunk_start, what.to_owned());
    let mut pos = 0;
    let count = get_varint(payload, &mut pos).ok_or_else(|| corrupt("bad record count"))?;
    // Every record costs at least one payload byte, so a count beyond
    // the payload length is damage — reject before reserving memory.
    if count > payload.len() as u64 {
        return Err(corrupt("record count exceeds chunk size"));
    }
    let first = out.len();
    let totals =
        decode_records(payload, &mut pos, count, out).ok_or_else(|| corrupt("malformed record"))?;
    if pos != payload.len() {
        return Err(corrupt("record chunk has leftover bytes"));
    }
    if totals.unwalkable > 0 {
        let i = out[first..].iter().position(unwalkable).unwrap_or_default();
        let r = out[first + i];
        return Err(corrupt(&format!(
            "record {i} at {:#x} ({} words) is not word-aligned or overruns the address space",
            r.addr, r.words
        )));
    }
    Ok(totals)
}

pub(crate) struct Footer {
    pub(crate) directory: NameDirectory,
    pub(crate) baseline: CounterSnapshot,
    pub(crate) total_records: u64,
    pub(crate) total_words: u64,
}

/// Parses the directory footer payload.
pub(crate) fn parse_footer(payload: &[u8], chunk_start: u64) -> Result<Footer, TraceError> {
    let corrupt = |what: &str| TraceError::corrupt(chunk_start, format!("footer: {what}"));
    let mut pos = 0;
    let uint = |pos: &mut usize, what: &str| get_varint(payload, pos).ok_or_else(|| corrupt(what));
    // Every table entry costs at least one payload byte, so any count
    // beyond the payload length is damage — reject before reserving.
    let counted = |v: u64, what: &str| {
        if v > payload.len() as u64 {
            Err(corrupt(what))
        } else {
            Ok(v)
        }
    };

    let name_count = counted(uint(&mut pos, "name count")?, "implausible name count")?;
    let mut names: Vec<String> = Vec::with_capacity(name_count as usize);
    for _ in 0..name_count {
        let len = uint(&mut pos, "name length")? as usize;
        let bytes = payload
            .get(pos..pos + len)
            .ok_or_else(|| corrupt("name bytes"))?;
        pos += len;
        names.push(String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("name is not UTF-8"))?);
    }

    let id = |v: u64, what: &str| -> Result<NameId, TraceError> {
        if v < name_count {
            Ok(NameId::from_raw(v as u32))
        } else {
            Err(corrupt(what))
        }
    };
    let proc_count = counted(
        uint(&mut pos, "process count")?,
        "implausible process count",
    )?;
    let mut proc_names = Vec::with_capacity(proc_count as usize);
    for _ in 0..proc_count {
        let v = uint(&mut pos, "process name id")?;
        proc_names.push(id(v, "process name id out of range")?);
    }

    let thread_count = counted(uint(&mut pos, "thread count")?, "implausible thread count")?;
    let mut threads = Vec::with_capacity(thread_count as usize);
    for _ in 0..thread_count {
        let pid = uint(&mut pos, "thread pid")?;
        if pid >= proc_count {
            return Err(corrupt("thread pid out of range"));
        }
        let name = id(
            uint(&mut pos, "thread name id")?,
            "thread name id out of range",
        )?;
        let canonical = id(
            uint(&mut pos, "thread canonical id")?,
            "thread canonical id out of range",
        )?;
        threads.push(ThreadRecord {
            pid: Pid::from_raw(pid as u32),
            name,
            canonical,
        });
    }

    let baseline_count = counted(
        uint(&mut pos, "baseline count")?,
        "implausible baseline count",
    )?;
    let mut entries = Vec::with_capacity(baseline_count as usize);
    for _ in 0..baseline_count {
        let tid = uint(&mut pos, "baseline tid")?;
        if tid >= thread_count {
            return Err(corrupt("baseline tid out of range"));
        }
        let region = id(
            uint(&mut pos, "baseline region")?,
            "baseline region out of range",
        )?;
        let mut counts = [0u64; 3];
        for c in &mut counts {
            *c = uint(&mut pos, "baseline counter")?;
        }
        entries.push(SnapshotEntry {
            tid: Tid::from_raw(tid as u32),
            region,
            counts,
        });
    }

    let total_records = uint(&mut pos, "total record count")?;
    let total_words = uint(&mut pos, "total word count")?;
    if pos != payload.len() {
        return Err(corrupt("leftover bytes"));
    }
    Ok(Footer {
        directory: NameDirectory::from_parts(names.iter().map(String::as_str), proc_names, threads),
        baseline: CounterSnapshot { entries },
        total_records,
        total_words,
    })
}

/// `read_exact` with truncation mapped to a descriptive [`TraceError`].
fn read_exact_at<R: Read>(
    input: &mut R,
    buf: &mut [u8],
    offset: u64,
    what: &str,
) -> Result<(), TraceError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::corrupt(offset, format!("truncated while reading {what}"))
        } else {
            TraceError::Io(e)
        }
    })
}

/// Reads one varint byte-by-byte from a stream, advancing `*offset`.
fn read_varint<R: Read>(input: &mut R, offset: &mut u64, what: &str) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let mut byte = [0u8; 1];
        read_exact_at(input, &mut byte, *offset, what)?;
        *offset += 1;
        let byte = byte[0];
        if shift == 9 && byte > 0x01 {
            return Err(TraceError::corrupt(
                *offset,
                format!("overlong varint in {what}"),
            ));
        }
        v |= u64::from(byte & 0x7f) << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceError::corrupt(
        *offset,
        format!("overlong varint in {what}"),
    ))
}
