//! Buffered `.agtrace` replay: slurp once, decode in parallel.
//!
//! [`TraceBuffer`] is the throughput-oriented counterpart to the
//! streaming [`crate::TraceReader`]: it reads (or is handed) the whole
//! file once, scans the chunk framing serially — cheap, it only reads
//! tags and lengths — and then checksums + decodes the record chunks on
//! [`agave_trace::par::parallel_map`] workers, each borrowing its
//! payload straight out of the file buffer with no per-chunk copies.
//!
//! **Byte-identity is the contract.** Decoded chunks are merged back in
//! file order on the calling thread and delivered to sinks in
//! [`Tracer::SINK_BATCH`]-sized slices, so every sink observes exactly
//! the stream, order, and batch boundaries it would see from a serial
//! replay — `jobs` is unobservable downstream. Errors are deterministic
//! too: workers only *report* failures; the merge loop surfaces the
//! lowest-offset one, regardless of which worker tripped first.
//!
//! Decode runs in bounded waves (a few chunks per worker) rather than
//! fanning out the whole file at once, so peak memory stays at
//! `O(jobs × chunk)` decoded records instead of `O(file)`.

use crate::codec::{get_varint, Checksum, DecodeTotals};
use crate::format::{TraceError, MAGIC, MAX_CHUNK_BYTES, TAG_DIRECTORY, TAG_RECORDS, VERSION};
use crate::reader::{chunk_metrics, decode_record_chunk, parse_footer};
use crate::{ReplayOutcome, ValidateOutcome};
use agave_trace::par::parallel_map;
use agave_trace::{Reference, SharedSink, Tracer};
use std::ops::Range;
use std::path::Path;

/// Chunks scheduled per worker per decode wave. Large enough to keep
/// stealing cheap relative to a ~20 KB chunk decode, small enough that
/// buffered-but-undelivered records stay bounded.
const WAVE_CHUNKS_PER_JOB: usize = 4;

/// One framed chunk located by the serial scan: where its payload lives
/// in the file buffer and the checksum stored after it.
struct ChunkSpan {
    tag: u8,
    /// File offset of the tag byte — the offset corruption errors cite,
    /// matching the streaming reader.
    start: u64,
    payload: Range<usize>,
    stored_checksum: u64,
}

/// A whole `.agtrace` held in memory, decodable in parallel.
///
/// Construction validates only the header (magic, version, label), like
/// [`crate::TraceReader::new`]; chunk framing and checksums are checked
/// by [`TraceBuffer::replay`] / [`TraceBuffer::validate`].
pub struct TraceBuffer {
    bytes: Vec<u8>,
    label: String,
    /// Offset of the first chunk (just past the header).
    body: usize,
}

impl TraceBuffer {
    /// Reads `path` into memory and validates the `.agtrace` header.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        TraceBuffer::from_vec(std::fs::read(path)?)
    }

    /// Takes ownership of raw trace bytes and validates the header.
    pub fn from_vec(bytes: Vec<u8>) -> Result<Self, TraceError> {
        if bytes.len() < MAGIC.len() {
            return Err(TraceError::corrupt(
                0,
                "truncated while reading file header",
            ));
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(TraceError::NotATrace);
        }
        if bytes.len() < 12 {
            return Err(TraceError::corrupt(
                8,
                "truncated while reading format version",
            ));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut pos = 12usize;
        let label_len = slice_varint(&bytes, &mut pos, "label length")?;
        if label_len > 4096 {
            return Err(TraceError::corrupt(pos as u64, "implausible label length"));
        }
        let label_end = pos + label_len as usize;
        let label = bytes.get(pos..label_end).ok_or_else(|| {
            TraceError::corrupt(pos as u64, "truncated while reading workload label")
        })?;
        let label = String::from_utf8(label.to_vec())
            .map_err(|_| TraceError::corrupt(label_end as u64, "label is not UTF-8"))?;
        Ok(TraceBuffer {
            bytes,
            label,
            body: label_end,
        })
    }

    /// The recorded workload's label, from the header.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total bytes held (the whole file).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the buffer is empty (never true for a valid trace).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Locates every chunk frame without touching payload contents:
    /// structural damage (truncation, implausible lengths, unknown tags,
    /// data after the footer, a missing footer) is caught here, at the
    /// same offsets the streaming reader reports, before any worker
    /// starts. Returns the record-chunk spans in file order plus the
    /// footer span.
    fn scan(&self) -> Result<(Vec<ChunkSpan>, ChunkSpan), TraceError> {
        let bytes = &self.bytes;
        let mut pos = self.body;
        let mut chunks = Vec::new();
        let mut footer: Option<ChunkSpan> = None;
        while pos < bytes.len() {
            if footer.is_some() {
                return Err(TraceError::corrupt(
                    pos as u64,
                    "trailing data after the directory footer",
                ));
            }
            let start = pos as u64;
            let tag = bytes[pos];
            pos += 1;
            let len = slice_varint(bytes, &mut pos, "chunk length")?;
            if len > MAX_CHUNK_BYTES {
                return Err(TraceError::corrupt(pos as u64, "implausible chunk length"));
            }
            let payload = pos..pos + len as usize;
            if payload.end > bytes.len() {
                return Err(TraceError::corrupt(
                    pos as u64,
                    "truncated while reading chunk payload",
                ));
            }
            pos = payload.end;
            let stored = bytes.get(pos..pos + 8).ok_or_else(|| {
                TraceError::corrupt(pos as u64, "truncated while reading chunk checksum")
            })?;
            let stored_checksum = u64::from_le_bytes(stored.try_into().expect("8 bytes"));
            pos += 8;
            let span = ChunkSpan {
                tag,
                start,
                payload,
                stored_checksum,
            };
            match tag {
                TAG_RECORDS => chunks.push(span),
                TAG_DIRECTORY => footer = Some(span),
                other => {
                    return Err(TraceError::corrupt(
                        start,
                        format!("unknown chunk tag 0x{other:02x}"),
                    ));
                }
            }
        }
        let footer = footer.ok_or_else(|| {
            TraceError::corrupt(
                bytes.len() as u64,
                "trace ends before the directory footer (truncated?)",
            )
        })?;
        Ok((chunks, footer))
    }

    /// Recomputes one chunk's checksum against the stored value.
    fn verify_checksum(&self, span: &ChunkSpan) -> Result<(), TraceError> {
        let mut check = Checksum::new();
        check.update(&[span.tag]);
        check.update(&self.bytes[span.payload.clone()]);
        if check.finish() != span.stored_checksum {
            return Err(TraceError::corrupt(
                span.payload.end as u64,
                "chunk checksum mismatch (corrupt or truncated write)",
            ));
        }
        Ok(())
    }

    /// Checksums and decodes one record chunk into a fresh buffer — the
    /// per-worker unit of the parallel pipeline.
    fn decode_chunk(&self, span: &ChunkSpan) -> Result<(Vec<Reference>, DecodeTotals), TraceError> {
        self.verify_checksum(span)?;
        let decode_start = agave_telemetry::enabled().then(std::time::Instant::now);
        let payload = &self.bytes[span.payload.clone()];
        let mut batch = Vec::new();
        let totals = decode_record_chunk(payload, span.start, &mut batch)?;
        if let Some(start) = decode_start {
            chunk_metrics(start, batch.len() as u64, payload.len() as u64);
        }
        Ok((batch, totals))
    }

    /// Replays the whole trace into `sinks` on up to `jobs` decode
    /// workers (0 = one per CPU, 1 = serial), returning the
    /// [`ReplayOutcome`].
    ///
    /// Delivery is byte-identical to [`crate::TraceReader::replay`] for
    /// every `jobs` value: chunks are merged in file order and handed to
    /// sinks in [`Tracer::SINK_BATCH`]-sized slices on the calling
    /// thread (sinks are deliberately thread-local — see
    /// [`agave_trace::SharedSink`]). Fails — without delivering the
    /// offending or any later chunk — on checksum mismatch, malformed
    /// records, truncation, a missing footer, or totals that contradict
    /// the footer, and reports the same error for the same file
    /// regardless of `jobs`.
    pub fn replay(&self, sinks: &[SharedSink], jobs: usize) -> Result<ReplayOutcome, TraceError> {
        let mut span = agave_telemetry::Span::enter_labeled("replay decode", &self.label);
        let (chunks, footer_span) = self.scan()?;
        self.verify_checksum(&footer_span)?;
        let footer = parse_footer(&self.bytes[footer_span.payload.clone()], footer_span.start)?;
        let mut records: u64 = 0;
        let mut words: u64 = 0;
        let mut max_tid: u64 = 0;
        let mut max_region: u64 = 0;
        let wave = agave_trace::par::effective_jobs(jobs).max(1) * WAVE_CHUNKS_PER_JOB;
        for wave_spans in chunks.chunks(wave) {
            // `parallel_map` returns results in index order, so the
            // merge below is a plain in-order walk and the first error
            // encountered is the lowest-offset one — deterministic for
            // any worker schedule.
            let decoded = parallel_map(wave_spans.len(), jobs, |i| {
                self.decode_chunk(&wave_spans[i])
            });
            for result in decoded {
                let (batch, totals) = result?;
                records += batch.len() as u64;
                words += totals.words;
                max_tid = max_tid.max(totals.max_tid);
                max_region = max_region.max(totals.max_region);
                for slice in batch.chunks(Tracer::SINK_BATCH) {
                    for sink in sinks {
                        sink.borrow_mut().on_batch(slice);
                    }
                }
            }
        }
        if records > 0
            && (max_tid >= footer.directory.thread_count() as u64
                || max_region >= footer.directory.names().len() as u64)
        {
            return Err(TraceError::corrupt(
                footer_span.start,
                "stream references ids missing from the directory footer",
            ));
        }
        if footer.total_records != records || footer.total_words != words {
            return Err(TraceError::corrupt(
                footer_span.start,
                format!(
                    "footer promises {} records / {} words but the body \
                     carries {records} / {words} (missing chunks?)",
                    footer.total_records, footer.total_words
                ),
            ));
        }
        span.set_refs(words);
        Ok(ReplayOutcome {
            label: self.label.clone(),
            directory: footer.directory,
            baseline: footer.baseline,
            records,
            words,
        })
    }

    /// Validates the whole trace without decoding or delivering a single
    /// record: serial structure scan, footer parse, then every record
    /// chunk's checksum recomputed on up to `jobs` workers. The parallel
    /// counterpart of [`crate::TraceReader::validate`], with the same
    /// outcome for the same file regardless of `jobs` (errors surface
    /// lowest-offset first).
    pub fn validate(&self, jobs: usize) -> Result<ValidateOutcome, TraceError> {
        let (chunks, footer_span) = self.scan()?;
        self.verify_checksum(&footer_span)?;
        let footer = parse_footer(&self.bytes[footer_span.payload.clone()], footer_span.start)?;
        let results = parallel_map(chunks.len(), jobs, |i| self.verify_checksum(&chunks[i]));
        for result in results {
            result?;
        }
        Ok(ValidateOutcome {
            label: self.label.clone(),
            record_chunks: chunks.len() as u64,
            bytes: self.bytes.len() as u64,
            records: footer.total_records,
            words: footer.total_words,
        })
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("label", &self.label)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

/// [`get_varint`] with `None` mapped to a descriptive corruption error
/// at the current offset (truncated and overlong varints are
/// indistinguishable on a byte slice; both are damage).
fn slice_varint(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, TraceError> {
    get_varint(bytes, pos)
        .ok_or_else(|| TraceError::corrupt(*pos as u64, format!("bad varint in {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SummaryAccumulator;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn synthetic() -> (Vec<u8>, agave_trace::RunSummary) {
        crate::tests::record_synthetic_bytes()
    }

    fn summary_via_buffer(bytes: &[u8], jobs: usize) -> agave_trace::RunSummary {
        let buf = TraceBuffer::from_vec(bytes.to_vec()).unwrap();
        let acc = Rc::new(RefCell::new(SummaryAccumulator::new()));
        let outcome = buf.replay(&[acc.clone() as SharedSink], jobs).unwrap();
        let summary = acc.borrow().build(&outcome);
        summary
    }

    #[test]
    fn buffered_replay_matches_live_for_any_job_count() {
        let (bytes, live) = synthetic();
        for jobs in [1, 2, 8, 0] {
            let rebuilt = summary_via_buffer(&bytes, jobs);
            assert_eq!(rebuilt, live, "jobs={jobs}");
            assert_eq!(rebuilt.to_json(), live.to_json(), "jobs={jobs}");
        }
    }

    #[test]
    fn buffered_validate_matches_streaming() {
        let (bytes, _) = synthetic();
        let buf = TraceBuffer::from_vec(bytes.clone()).unwrap();
        let parallel = buf.validate(8).unwrap();
        let streaming = crate::TraceReader::new(std::io::Cursor::new(&bytes))
            .unwrap()
            .validate()
            .unwrap();
        assert_eq!(parallel.label, streaming.label);
        assert_eq!(parallel.record_chunks, streaming.record_chunks);
        assert_eq!(parallel.bytes, streaming.bytes);
        assert_eq!(parallel.records, streaming.records);
        assert_eq!(parallel.words, streaming.words);
    }

    #[test]
    fn corruption_errors_are_deterministic_across_jobs() {
        let (bytes, _) = synthetic();
        // Flip a byte in the middle of the body (some record chunk).
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        let mut rendered: Vec<String> = Vec::new();
        for jobs in [1, 2, 8] {
            let buf = TraceBuffer::from_vec(flipped.clone()).unwrap();
            let replay_err = buf.replay(&[], jobs).unwrap_err();
            let validate_err = buf.validate(jobs).unwrap_err();
            assert!(matches!(replay_err, TraceError::Corrupt { .. }));
            assert!(matches!(validate_err, TraceError::Corrupt { .. }));
            rendered.push(format!("{replay_err} / {validate_err}"));
        }
        assert!(
            rendered.windows(2).all(|w| w[0] == w[1]),
            "same corruption must render identically for all job counts: {rendered:?}"
        );
    }

    /// A trace whose one block is `(addr, words)`, after a clean one.
    fn one_block_trace(addr: u64, words: u64) -> Vec<u8> {
        let mut t = agave_trace::Tracer::new();
        let pid = t.register_process("app_process");
        let tid = t.register_thread(pid, "main");
        let region = t.intern_region("[heap]");
        let mut w = crate::TraceWriter::new(Vec::new(), "blocks").unwrap();
        let block = |addr, words| Reference {
            pid,
            tid,
            region,
            kind: agave_trace::RefKind::DataRead,
            addr,
            words,
        };
        w.append(&block(0x1000, 8));
        w.append(&block(addr, words));
        w.finish(&t.name_directory(), &t.counter_snapshot())
            .unwrap();
        w.into_output()
    }

    #[test]
    fn unwalkable_records_are_corrupt_for_both_readers() {
        // Unaligned (straddles a 32-byte line), and a span ending past
        // `u64::MAX`; a word-aligned span ending just below it is fine.
        for (addr, words) in [(30, 1), (u64::MAX - 15, 4)] {
            let bytes = one_block_trace(addr, words);
            for jobs in [1, 2] {
                let buf = TraceBuffer::from_vec(bytes.clone()).unwrap();
                let err = buf.replay(&[], jobs).unwrap_err();
                assert!(
                    matches!(&err, TraceError::Corrupt { .. })
                        && err.to_string().contains("not word-aligned"),
                    "{addr:#x}: {err}"
                );
            }
            let streaming = crate::TraceReader::new(std::io::Cursor::new(&bytes)).unwrap();
            let err = streaming.replay(&[]).unwrap_err();
            assert!(
                matches!(err, TraceError::Corrupt { .. }),
                "{addr:#x}: {err}"
            );
        }
        let edge = TraceBuffer::from_vec(one_block_trace(u64::MAX - 19, 4)).unwrap();
        assert_eq!(edge.replay(&[], 1).unwrap().records, 2);
    }

    #[test]
    fn truncation_is_rejected_at_scan_time() {
        let (bytes, _) = synthetic();
        for cut in [13, bytes.len() / 3, bytes.len() - 5] {
            match TraceBuffer::from_vec(bytes[..cut].to_vec()) {
                Ok(buf) => {
                    let err = buf.replay(&[], 8).unwrap_err();
                    assert!(matches!(err, TraceError::Corrupt { .. }), "cut={cut}");
                }
                Err(err) => {
                    assert!(matches!(err, TraceError::Corrupt { .. }), "cut={cut}");
                }
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected_on_open() {
        assert!(matches!(
            TraceBuffer::from_vec(b"NOTATRACEFILE".to_vec()),
            Err(TraceError::NotATrace)
        ));
        let (mut bytes, _) = synthetic();
        bytes[8] = 0xfe;
        assert!(matches!(
            TraceBuffer::from_vec(bytes),
            Err(TraceError::UnsupportedVersion(_))
        ));
    }
}
