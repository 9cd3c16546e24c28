//! Varint, zigzag-delta, and record-level coding for `.agtrace` chunks.
//!
//! Records are [`agave_trace::Reference`] blocks. Three observations
//! shape the encoding:
//!
//! 1. Consecutive blocks usually share the same `(pid, tid, region)` key
//!    — charging sites issue runs of blocks for one thread in one
//!    region — so the key is written only when it changes (one flag
//!    bit).
//! 2. Addresses are locally sequential: a block very often starts
//!    exactly where the previous one ended (synthetic cyclic windows,
//!    buffer walks). That case costs one flag bit; everything else is a
//!    zigzag varint of the *wrapping* delta from the previous address,
//!    which round-trips every `u64` including the boundaries.
//! 3. Word counts are small and repeat; plain varints do well.
//!
//! The coder state resets at every chunk boundary so chunks decode
//! independently (corruption stays contained; see [`crate::format`]).

use agave_trace::{NameId, Pid, RefKind, Reference, Tid};

/// Bits 0–1 of a record's header byte: [`RefKind::index`].
const KIND_MASK: u8 = 0b0000_0011;
/// Header flag: the record reuses the previous `(pid, tid, region)` key.
const F_SAME_KEY: u8 = 0b0000_0100;
/// Header flag: `addr` continues exactly at the previous block's end.
const F_CONT_ADDR: u8 = 0b0000_1000;
/// Header flag: `words == 1`, so no word-count varint follows.
const F_ONE_WORD: u8 = 0b0001_0000;

/// Appends `v` to `out` as an LEB128 varint (7 bits per byte, high bit =
/// continuation). At most 10 bytes.
///
/// The single-byte case (the overwhelming majority of field values in a
/// real stream: small deltas, small word counts, small ids) is one
/// capacity check and one store; longer values are assembled in a stack
/// buffer and appended with one `extend_from_slice` instead of a
/// capacity check per byte.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    if v < 0x80 {
        out.push(v as u8);
        return;
    }
    let mut buf = [0u8; 10];
    let mut n = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            n += 1;
            break;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
    out.extend_from_slice(&buf[..n]);
}

/// Reads one LEB128 varint like [`get_varint`], but requires the caller
/// to guarantee `*pos + 10 <= buf.len()`. The guarantee is hoisted into
/// one fixed-size array view so the unrolled byte reads compile without
/// per-byte bounds checks, and the (dominant) single-byte case is one
/// load and one test.
///
/// Accepts and rejects exactly the same byte strings as [`get_varint`];
/// the property tests in `tests/prop.rs` pin the two against each other.
#[inline(always)]
fn fast_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let p = *pos;
    let w: &[u8; 10] = buf[p..p + 10].try_into().expect("caller hoisted bounds");
    let b0 = w[0];
    if b0 & 0x80 == 0 {
        *pos = p + 1;
        return Some(u64::from(b0));
    }
    let mut v = u64::from(b0 & 0x7f);
    macro_rules! continuation_byte {
        ($k:literal) => {{
            let b = w[$k];
            v |= u64::from(b & 0x7f) << (7 * $k);
            if b & 0x80 == 0 {
                *pos = p + $k + 1;
                return Some(v);
            }
        }};
    }
    continuation_byte!(1);
    continuation_byte!(2);
    continuation_byte!(3);
    continuation_byte!(4);
    continuation_byte!(5);
    continuation_byte!(6);
    continuation_byte!(7);
    continuation_byte!(8);
    // The 10th byte may only carry the final bit of a u64, and a valid
    // varint never has a continuation bit here.
    let b = w[9];
    if b > 0x01 {
        return None;
    }
    v |= u64::from(b) << 63;
    *pos = p + 10;
    Some(v)
}

/// Reads one LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it. Returns `None` on truncation or a varint longer than
/// 10 bytes (no valid `u64` needs more).
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let payload = u64::from(byte & 0x7f);
        // The 10th byte may only carry the final bit of a u64.
        if shift == 9 && byte > 0x01 {
            return None;
        }
        v |= payload << (7 * shift);
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Maps a signed delta to an unsigned varint-friendly value
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The per-chunk checksum: an FNV-style multiply-mix absorbed in
/// 8-byte lanes (a byte-serial FNV-1a costs a dependent multiply per
/// byte and shows up at the top of the replay profile).
///
/// An internal buffer makes the digest independent of how `update` calls
/// split the message; the total length is mixed into [`Checksum::finish`]
/// so truncation by whole lanes of zeros still changes the digest.
///
/// Not cryptographic: the threat model is bit rot, truncation, and
/// tooling bugs, not an adversary forging traces.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    state: u64,
    buf: [u8; 8],
    buffered: usize,
    len: u64,
}

impl Checksum {
    /// A fresh digest (FNV offset-basis seed).
    pub fn new() -> Self {
        Checksum {
            state: 0xcbf2_9ce4_8422_2325,
            buf: [0u8; 8],
            buffered: 0,
            len: 0,
        }
    }

    fn absorb(&mut self, lane: u64) {
        self.state = (self.state ^ lane)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(23);
    }

    /// Absorbs `bytes` into the running hash.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.buffered > 0 {
            let take = bytes.len().min(8 - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered == 8 {
                self.absorb(u64::from_le_bytes(self.buf));
                self.buffered = 0;
            }
            // Either the buffer drained into a lane or `bytes` ran dry.
            if bytes.is_empty() {
                return;
            }
        }
        let mut lanes = bytes.chunks_exact(8);
        for lane in &mut lanes {
            self.absorb(u64::from_le_bytes(lane.try_into().unwrap()));
        }
        let tail = lanes.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        let mut tail = [0u8; 8];
        tail[..self.buffered].copy_from_slice(&self.buf[..self.buffered]);
        let mut state = self.state ^ u64::from_le_bytes(tail) ^ self.len;
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
        state ^ (state >> 31)
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

/// The delta-coder state shared (symmetrically) by encoder and decoder.
///
/// Address prediction is **per stream**: each `(pid, tid, region)` key
/// keeps its own last address and expected continuation point, because
/// the tracer interleaves many locally-sequential streams (one per
/// thread per region). Predicting against the previous record globally
/// would pay a full cross-region delta at nearly every key switch;
/// predicting per stream makes a key switch back into a known stream
/// cost one flag bit.
///
/// Reset at every chunk boundary so chunks decode independently.
///
/// Performance: the current key's prediction lives inline, so the
/// (majority) `F_SAME_KEY` records never touch the map; key switches pay
/// one store + one lookup in a [`KeyHasher`]-backed table. This is what
/// keeps summary replay faster than a live run.
#[derive(Debug, Clone, Default)]
pub struct CoderState {
    pid: u32,
    tid: u32,
    region: u32,
    /// Prediction for the *current* key: last address and expected
    /// continuation point.
    addr: u64,
    end: u64,
    /// Parked predictions for every other key seen this chunk.
    streams: StreamMap,
}

type StreamMap = std::collections::HashMap<
    (u32, u32, u32),
    (u64, u64),
    std::hash::BuildHasherDefault<KeyHasher>,
>;

/// Multiply-mix hasher for the small-integer stream keys. The default
/// SipHash dominates the decode profile; stream keys are not
/// attacker-chosen (a hostile trace can at worst slow itself down), so a
/// two-instruction mix per `u32` is the right trade.
#[derive(Debug, Default)]
pub struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(24) ^ u64::from(v)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

impl CoderState {
    /// Fresh state, as at the start of a chunk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks the current key's prediction and loads (or initializes) the
    /// prediction for `(pid, tid, region)`.
    fn switch_key(&mut self, pid: u32, tid: u32, region: u32) {
        self.streams
            .insert((self.pid, self.tid, self.region), (self.addr, self.end));
        let (addr, end) = self
            .streams
            .get(&(pid, tid, region))
            .copied()
            .unwrap_or((0, 0));
        self.pid = pid;
        self.tid = tid;
        self.region = region;
        self.addr = addr;
        self.end = end;
    }

    /// Appends one record to `out`.
    pub fn encode(&mut self, r: &Reference, out: &mut Vec<u8>) {
        let pid = r.pid.as_u32();
        let tid = r.tid.as_u32();
        let region = r.region.index() as u32;
        let same_key = pid == self.pid && tid == self.tid && region == self.region;
        if !same_key {
            self.switch_key(pid, tid, region);
        }
        let mut header = r.kind.index() as u8;
        if same_key {
            header |= F_SAME_KEY;
        }
        if r.addr == self.end {
            header |= F_CONT_ADDR;
        }
        if r.words == 1 {
            header |= F_ONE_WORD;
        }
        out.push(header);
        if !same_key {
            put_varint(out, u64::from(pid));
            put_varint(out, u64::from(tid));
            put_varint(out, u64::from(region));
        }
        if header & F_CONT_ADDR == 0 {
            put_varint(out, zigzag(r.addr.wrapping_sub(self.addr) as i64));
        }
        if header & F_ONE_WORD == 0 {
            put_varint(out, r.words);
        }
        self.addr = r.addr;
        self.end = r.addr.wrapping_add(r.words.wrapping_mul(4));
    }

    /// Decodes one record from `buf` at `*pos`, advancing `*pos`.
    /// Returns `None` on a truncated or malformed record.
    pub fn decode(&mut self, buf: &[u8], pos: &mut usize) -> Option<Reference> {
        let header = *buf.get(*pos)?;
        *pos += 1;
        let kind = match header & KIND_MASK {
            0 => RefKind::InstrFetch,
            1 => RefKind::DataRead,
            2 => RefKind::DataWrite,
            _ => return None,
        };
        if header & F_SAME_KEY == 0 {
            let pid = u32::try_from(get_varint(buf, pos)?).ok()?;
            let tid = u32::try_from(get_varint(buf, pos)?).ok()?;
            let region = u32::try_from(get_varint(buf, pos)?).ok()?;
            self.switch_key(pid, tid, region);
        }
        let addr = if header & F_CONT_ADDR == 0 {
            self.addr
                .wrapping_add(unzigzag(get_varint(buf, pos)?) as u64)
        } else {
            self.end
        };
        let words = if header & F_ONE_WORD == 0 {
            get_varint(buf, pos)?
        } else {
            1
        };
        self.addr = addr;
        self.end = addr.wrapping_add(words.wrapping_mul(4));
        Some(Reference {
            pid: Pid::from_raw(self.pid),
            tid: Tid::from_raw(self.tid),
            region: NameId::from_raw(self.region),
            kind,
            addr,
            words,
        })
    }

    /// [`CoderState::decode`] with the flag tests replaced by one table
    /// load and the varint reads unrolled. The caller must guarantee at
    /// least [`MAX_RECORD_BYTES`] bytes remain at `*pos`; near the end
    /// of a chunk the scalar path takes over.
    #[inline(always)]
    fn decode_fast(&mut self, buf: &[u8], pos: &mut usize) -> Option<Reference> {
        let header = buf[*pos];
        *pos += 1;
        let op = HEADER_OPS[usize::from(header & HEADER_OP_MASK)];
        let kind = op.kind?;
        if !op.same_key {
            let pid = u32::try_from(fast_varint(buf, pos)?).ok()?;
            let tid = u32::try_from(fast_varint(buf, pos)?).ok()?;
            let region = u32::try_from(fast_varint(buf, pos)?).ok()?;
            self.switch_key(pid, tid, region);
        }
        let addr = if op.cont_addr {
            self.end
        } else {
            self.addr
                .wrapping_add(unzigzag(fast_varint(buf, pos)?) as u64)
        };
        let words = if op.one_word {
            1
        } else {
            fast_varint(buf, pos)?
        };
        self.addr = addr;
        self.end = addr.wrapping_add(words.wrapping_mul(4));
        Some(Reference {
            pid: Pid::from_raw(self.pid),
            tid: Tid::from_raw(self.tid),
            region: NameId::from_raw(self.region),
            kind,
            addr,
            words,
        })
    }
}

/// Worst-case encoded size of one record: a header byte plus five
/// varints (pid, tid, region, addr delta, words), each at most 10 bytes
/// *as read* — the id varints reject values above `u32::MAX` only after
/// the bytes are consumed, so a malformed stream can legally present ten
/// bytes per field. When at least this much input remains, the fast
/// decoder can skip every per-byte bounds check.
const MAX_RECORD_BYTES: usize = 1 + 5 * 10;

/// Decoded form of a record header byte: the kind (`None` for the
/// reserved kind pattern `0b11`) and the three flags, precomputed for
/// all 32 meaningful bit patterns so the hot loop dispatches with a
/// single table load instead of four tests. Bits 5–7 are ignored, as in
/// the scalar decoder.
#[derive(Clone, Copy)]
struct HeaderOp {
    kind: Option<RefKind>,
    same_key: bool,
    cont_addr: bool,
    one_word: bool,
}

/// The header bits [`HEADER_OPS`] is indexed by: kind plus three flags.
const HEADER_OP_MASK: u8 = KIND_MASK | F_SAME_KEY | F_CONT_ADDR | F_ONE_WORD;

const HEADER_OPS: [HeaderOp; 32] = {
    let mut ops = [HeaderOp {
        kind: None,
        same_key: false,
        cont_addr: false,
        one_word: false,
    }; 32];
    let mut h = 0usize;
    while h < 32 {
        let byte = h as u8;
        ops[h] = HeaderOp {
            kind: match byte & KIND_MASK {
                0 => Some(RefKind::InstrFetch),
                1 => Some(RefKind::DataRead),
                2 => Some(RefKind::DataWrite),
                _ => None,
            },
            same_key: byte & F_SAME_KEY != 0,
            cont_addr: byte & F_CONT_ADDR != 0,
            one_word: byte & F_ONE_WORD != 0,
        };
        h += 1;
    }
    ops
};

/// Per-chunk totals gathered during [`decode_records`], in the same
/// single pass as the decode itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DecodeTotals {
    /// Sum of `words` across the decoded records (wrapping — an
    /// adversarial chunk can encode astronomically large word counts,
    /// and the decoder must stay panic-free; the footer-totals check
    /// still catches any mismatch).
    pub words: u64,
    /// Highest thread id observed (0 when the chunk is empty).
    pub max_tid: u64,
    /// Highest region id observed (0 when the chunk is empty).
    pub max_region: u64,
    /// Records no cache walk can account for: an address that is not
    /// word-aligned, or a byte span (`addr + 4 × words`) past `u64::MAX`.
    /// The codec round-trips them; the trace readers reject the chunk.
    pub unwalkable: u64,
}

/// Whether no cache walk can account for `r` (see
/// [`DecodeTotals::unwalkable`]).
#[inline]
pub(crate) fn unwalkable(r: &Reference) -> bool {
    (r.addr & 3 != 0) | (r.words > !r.addr >> 2)
}

/// Decodes exactly `count` records from `payload` starting at `*pos`,
/// appending them to `out` and advancing `*pos`. Returns `None` on any
/// truncated or malformed record, leaving `out` with whatever prefix
/// decoded cleanly (callers treat the whole chunk as corrupt).
///
/// While [`MAX_RECORD_BYTES`] of input remain the branchless fast path
/// runs; the scalar [`CoderState::decode`] handles the chunk tail. Both
/// paths accept exactly the same byte strings (pinned by the property
/// tests), so the split is invisible to callers.
///
/// The id maxima are recovered from the coder's stream table at the end
/// rather than compared per record: tid/region only change at a key
/// switch, and the table's extra initial `(0, 0, 0)` entry can never
/// raise a maximum.
pub fn decode_records(
    payload: &[u8],
    pos: &mut usize,
    count: u64,
    out: &mut Vec<Reference>,
) -> Option<DecodeTotals> {
    // Every record costs at least one byte, so a valid count never
    // exceeds the remaining payload; this also keeps the reserve sane.
    let remaining = payload.len().saturating_sub(*pos);
    if count > remaining as u64 {
        return None;
    }
    out.reserve(count as usize);
    let mut coder = CoderState::new();
    let mut totals = DecodeTotals::default();
    for _ in 0..count {
        let r = if *pos + MAX_RECORD_BYTES <= payload.len() {
            coder.decode_fast(payload, pos)?
        } else {
            coder.decode(payload, pos)?
        };
        totals.words = totals.words.wrapping_add(r.words);
        totals.unwalkable += u64::from(unwalkable(&r));
        out.push(r);
    }
    totals.max_tid = u64::from(coder.tid);
    totals.max_region = u64::from(coder.region);
    for &(_, tid, region) in coder.streams.keys() {
        totals.max_tid = totals.max_tid.max(u64::from(tid));
        totals.max_region = totals.max_region.max(u64::from(region));
    }
    Some(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let mut buf = Vec::new();
        let values = [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overlong() {
        assert_eq!(get_varint(&[], &mut 0), None);
        assert_eq!(get_varint(&[0x80], &mut 0), None);
        // 11 continuation bytes can never be a valid u64.
        let overlong = [0x80u8; 10];
        assert_eq!(get_varint(&overlong, &mut 0), None);
        // A 10th byte with payload beyond bit 63 overflows.
        let mut too_big = vec![0x80u8; 9];
        too_big.push(0x02);
        assert_eq!(get_varint(&too_big, &mut 0), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let mut a = Checksum::new();
        a.update(b"ab");
        let mut b = Checksum::new();
        b.update(b"ba");
        assert_ne!(a.finish(), b.finish());
        let mut c = Checksum::new();
        c.update(b"a");
        c.update(b"b");
        assert_eq!(a.finish(), c.finish(), "chunked updates must match");
    }

    #[test]
    fn record_coding_round_trips_a_small_stream() {
        let refs = [
            Reference {
                pid: Pid::from_raw(1),
                tid: Tid::from_raw(2),
                region: NameId::from_raw(3),
                kind: RefKind::InstrFetch,
                addr: 0x1_0000,
                words: 16,
            },
            // Continuation: same key, addr continues at the end.
            Reference {
                pid: Pid::from_raw(1),
                tid: Tid::from_raw(2),
                region: NameId::from_raw(3),
                kind: RefKind::InstrFetch,
                addr: 0x1_0040,
                words: 1,
            },
            // Key change with a boundary address.
            Reference {
                pid: Pid::from_raw(0),
                tid: Tid::from_raw(9),
                region: NameId::from_raw(0),
                kind: RefKind::DataWrite,
                addr: u64::MAX,
                words: 3,
            },
        ];
        let mut out = Vec::new();
        let mut enc = CoderState::new();
        for r in &refs {
            enc.encode(r, &mut out);
        }
        // The continuation record is a single header byte.
        let mut dec = CoderState::new();
        let mut pos = 0;
        for r in &refs {
            assert_eq!(dec.decode(&out, &mut pos).as_ref(), Some(r));
        }
        assert_eq!(pos, out.len());
    }
}
