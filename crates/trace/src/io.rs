//! Compact binary serialization for traces.
//!
//! Traces are expensive to regenerate for large workloads, so they can be
//! persisted in a self-contained container:
//!
//! ```text
//! magic "SMTR" | version u32 LE (3) | program-JSON length u32 LE | program JSON
//! | record count u64 LE | final regs (32 x u64 LE)
//! | pc column | taken column | addr column | result column
//!
//! value column = width codes (ceil(count/4) bytes) | data length u64 LE | data
//! ```
//!
//! The payload mirrors the in-memory structure-of-arrays layout, one column
//! at a time, so encode and decode are four tight loops rather than a
//! per-record flag dispatch:
//!
//! * **pc** — a value column of zigzag deltas from the previous pc (the
//!   common sequential step is one byte);
//! * **taken** — the packed 64-flags-per-word bitmap, raw `u64` LE words;
//! * **addr**, **result** — value columns of the raw values (zero, the
//!   common case for non-memory and non-producing instructions, takes no
//!   data byte at all).
//!
//! A value column stores each value's low 0, 1, 3 or 8 bytes, little-endian,
//! chosen by a 2-bit width code; the codes are packed four to a control
//! byte (value `k` in bits `2(k % 4)..` of byte `k / 4`). Decoding is free
//! of data-dependent branches: a 256-entry table gives each control byte's
//! four data offsets, and each value is one 8-byte load masked to its width.
//! Only the values near the column's end are read one at a time.
//! (The version-2 container used varints, which branch on every value's
//! length.)
//!
//! At medium scale the suite's columns take 5.3–9.2 bytes per dynamic
//! instruction, 6.7 on average (7.2 with the embedded program; the varint
//! columns of version 2 took 7.3).

use std::io::{self, Read, Write};
use std::sync::Arc;

use bytes::{Buf, BufMut};
use specmt_isa::Program;

use crate::Trace;

const MAGIC: &[u8; 4] = b"SMTR";
const VERSION: u32 = 3;

/// Data bytes per width code.
const WIDTH: [u8; 4] = [0, 1, 3, 8];

/// The mask that keeps a code's bytes of an 8-byte load.
const MASK: [u64; 4] = [0, 0xff, 0xff_ffff, u64::MAX];

/// Per control byte: the data offset of each of its four values within the
/// group, then the group's total width (at most 32).
const GROUP: [[u8; 5]; 256] = {
    let mut table = [[0u8; 5]; 256];
    let mut c = 0;
    while c < 256 {
        let mut offset = 0;
        let mut i = 0;
        while i < 4 {
            table[c][i] = offset;
            offset += WIDTH[(c >> (2 * i)) & 3];
            i += 1;
        }
        table[c][4] = offset;
        c += 1;
    }
    table
};

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn bad(m: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.to_string())
}

/// Appends a value column holding `values`, writing width codes and data
/// straight into `out`.
fn put_column(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    let ctrl_at = out.len();
    let data_at = ctrl_at + values.len().div_ceil(4) + 8;
    out.resize(data_at, 0);
    for (k, v) in values.enumerate() {
        let code = u8::from(v > 0) + u8::from(v > 0xff) + u8::from(v > 0xff_ffff);
        out[ctrl_at + k / 4] |= code << (2 * (k % 4));
        // Write all eight bytes, then keep only the code's width.
        let end = out.len() + usize::from(WIDTH[usize::from(code)]);
        out.put_u64_le(v);
        out.truncate(end);
    }
    let data_len = (out.len() - data_at) as u64;
    out[data_at - 8..data_at].copy_from_slice(&data_len.to_le_bytes());
}

/// Loads the 8 bytes at `offset` of a group's data window.
fn load(window: &[u8; 32], offset: u8) -> u64 {
    // The table's offsets never exceed 24; the clamp lets the compiler see
    // that the load stays inside the window.
    let o = usize::from(offset).min(24);
    let mut word = [0u8; 8];
    word.copy_from_slice(&window[o..o + 8]);
    u64::from_le_bytes(word)
}

/// Decodes a value column of `count` values from the front of `buf`,
/// mapping each through `map` in order.
fn get_column<T: Copy + Default>(
    buf: &mut &[u8],
    count: usize,
    mut map: impl FnMut(u64) -> T,
) -> io::Result<Vec<T>> {
    let ctrl_len = count.div_ceil(4);
    if buf.remaining() < ctrl_len + 8 {
        return Err(bad("truncated column header"));
    }
    let (ctrl, mut rest) = buf.split_at(ctrl_len);
    let data_len = usize::try_from(rest.get_u64_le())
        .ok()
        .filter(|&n| n <= rest.len())
        .ok_or_else(|| bad("column data length exceeds available data"))?;
    let (data, tail) = rest.split_at(data_len);

    // Zeroed, not pushed to: a large zeroed allocation comes straight from
    // the OS, so each output page is written once.
    let mut out = vec![T::default(); count];
    // Whole groups while a full 32-byte window remains: four masked loads.
    let mut pos = 0;
    let mut done = 0;
    for (slots, &c) in out.chunks_exact_mut(4).zip(ctrl) {
        let Some(window) = data
            .get(pos..pos + 32)
            .and_then(|w| <&[u8; 32]>::try_from(w).ok())
        else {
            break;
        };
        let [o0, o1, o2, o3, len] = GROUP[usize::from(c)];
        let c = usize::from(c);
        slots[0] = map(load(window, o0) & MASK[c & 3]);
        slots[1] = map(load(window, o1) & MASK[(c >> 2) & 3]);
        slots[2] = map(load(window, o2) & MASK[(c >> 4) & 3]);
        slots[3] = map(load(window, o3) & MASK[c >> 6]);
        pos += usize::from(len);
        done += 4;
    }
    // The rest one value at a time, never reading past the data.
    for (k, slot) in out.iter_mut().enumerate().skip(done) {
        let code = (ctrl[k / 4] >> (2 * (k % 4))) & 3;
        let width = usize::from(WIDTH[usize::from(code)]);
        let bytes = data
            .get(pos..pos + width)
            .ok_or_else(|| bad("truncated column data"))?;
        let mut word = [0u8; 8];
        word[..width].copy_from_slice(bytes);
        *slot = map(u64::from_le_bytes(word));
        pos += width;
    }
    if pos != data_len {
        return Err(bad("column data length disagrees with its width codes"));
    }
    *buf = tail;
    Ok(out)
}

impl Trace {
    /// Serializes the trace (including its program and final register file)
    /// to `w` in the compact binary container format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    ///
    /// # Examples
    ///
    /// ```
    /// use specmt_isa::{ProgramBuilder, Reg};
    /// use specmt_trace::Trace;
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.li(Reg::R1, 3);
    /// b.halt();
    /// let trace = Trace::generate(b.build()?, 100)?;
    ///
    /// let mut bytes = Vec::new();
    /// trace.write_to(&mut bytes)?;
    /// let copy = Trace::read_from(&bytes[..])?;
    /// assert_eq!(copy.records_vec(), trace.records_vec());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn write_to(&self, mut w: impl Write) -> io::Result<()> {
        let program_json = serde_json::to_vec(self.program().as_ref())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut buf = Vec::with_capacity(self.len() * 8 + program_json.len() + 320);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u32_le(program_json.len() as u32);
        buf.put_slice(&program_json);
        buf.put_u64_le(self.len() as u64);
        for r in specmt_isa::Reg::all() {
            buf.put_u64_le(self.final_reg(r));
        }

        let mut prev = 0i64;
        put_column(
            &mut buf,
            self.pcs().iter().map(|&pc| {
                let delta = zigzag(i64::from(pc) - prev);
                prev = i64::from(pc);
                delta
            }),
        );
        for &word in self.taken_words() {
            buf.put_u64_le(word);
        }
        put_column(&mut buf, self.addrs_col().iter().copied());
        put_column(&mut buf, self.results_col().iter().copied());
        w.write_all(&buf)
    }

    /// Deserializes a trace previously written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns an error for I/O failures, an unrecognised container (bad
    /// magic or version), or corrupt contents.
    pub fn read_from(mut r: impl Read) -> io::Result<Trace> {
        let mut data = Vec::new();
        r.read_to_end(&mut data)?;
        Trace::from_bytes(&data)
    }

    /// Deserializes a trace from an in-memory container image, decoding
    /// straight from the caller's buffer into the trace's columns.
    ///
    /// This is the warm-load path for byte stores: [`Trace::read_from`]
    /// would first copy the whole image into a fresh `Vec` via
    /// `read_to_end`, a pure loss when the bytes are already resident.
    ///
    /// # Errors
    ///
    /// Returns an error for an unrecognised container (bad magic or
    /// version) or corrupt contents.
    pub fn from_bytes(data: &[u8]) -> io::Result<Trace> {
        decode(data, |json| {
            serde_json::from_slice::<Program>(json)
                .map(Arc::new)
                .map_err(|e| bad(&e.to_string()))
        })
    }

    /// As [`Trace::from_bytes`] for a container the caller expects to hold
    /// a trace of `program`, whose JSON serialization (`serde_json::to_vec`)
    /// is `program_json`. The embedded program is byte-compared with
    /// `program_json` instead of being parsed, and the trace shares
    /// `program`.
    ///
    /// # Errors
    ///
    /// As [`Trace::from_bytes`], and an error when the container's program
    /// is not `program_json`.
    pub fn from_bytes_with_program(
        data: &[u8],
        program: &Arc<Program>,
        program_json: &[u8],
    ) -> io::Result<Trace> {
        decode(data, |json| {
            if json == program_json {
                Ok(Arc::clone(program))
            } else {
                Err(bad("trace was recorded from a different program"))
            }
        })
    }
}

/// Decodes a container, resolving its embedded program JSON through
/// `program`.
fn decode(
    data: &[u8],
    program: impl FnOnce(&[u8]) -> io::Result<Arc<Program>>,
) -> io::Result<Trace> {
    let mut buf: &[u8] = data;
    if buf.remaining() < 12 || &buf[..4] != MAGIC {
        return Err(bad("not a specmt trace (bad magic)"));
    }
    buf.advance(4);
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(bad(&format!("unsupported trace version {version}")));
    }
    let plen = buf.get_u32_le() as usize;
    if buf.remaining() < plen {
        return Err(bad("truncated program header"));
    }
    let program = program(&buf[..plen])?;
    buf.advance(plen);
    if buf.remaining() < 8 + 32 * 8 {
        return Err(bad("truncated trailer"));
    }
    let count = usize::try_from(buf.get_u64_le()).unwrap_or(usize::MAX);
    let mut final_regs = [0u64; specmt_isa::NUM_REGS];
    for slot in &mut final_regs {
        *slot = buf.get_u64_le();
    }

    // Every record costs two bits of width code in each of the three value
    // columns and a taken bit, so a count beyond what the remaining bytes
    // can hold is corrupt — reject it before allocating the columns, or a
    // crafted header could demand an unbounded allocation.
    let min_bytes = count
        .div_ceil(4)
        .saturating_mul(3)
        .saturating_add(count.div_ceil(64).saturating_mul(8))
        .saturating_add(3 * 8);
    if min_bytes > buf.remaining() {
        return Err(bad("record count exceeds available data"));
    }

    let mut pc = 0u64;
    let mut max_pc = 0u64;
    let pcs = get_column(&mut buf, count, |delta| {
        // Wrapping: a pc that leaves [0, program length) at any step, below
        // zero included, shows up in the running maximum.
        pc = pc.wrapping_add(unzigzag(delta) as u64);
        max_pc = max_pc.max(pc);
        pc as u32
    })?;
    if count > 0 && max_pc >= program.len() as u64 {
        return Err(bad("record pc outside program"));
    }

    let taken_words = count.div_ceil(64);
    if buf.remaining() < taken_words * 8 {
        return Err(bad("truncated taken column"));
    }
    let (taken_bytes, mut buf) = buf.split_at(taken_words * 8);
    let taken = taken_bytes
        .chunks_exact(8)
        .map(|mut w| w.get_u64_le())
        .collect();

    let addrs = get_column(&mut buf, count, |v| v)?;
    let results = get_column(&mut buf, count, |v| v)?;
    Ok(Trace::from_columns(
        program, pcs, taken, addrs, results, final_regs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use specmt_isa::{ProgramBuilder, Reg};

    /// The first and last value of each width.
    const WIDTH_EDGES: [u64; 6] = [0, 255, 256, (1 << 24) - 1, 1 << 24, u64::MAX];

    proptest! {
        /// Any values, widths at their edges, any count from an empty
        /// column through two full groups and a partial one: the column
        /// decodes to its values and consumes exactly its own bytes.
        #[test]
        fn value_column_round_trips(
            picks in prop::collection::vec((0usize..8, any::<u64>()), 0..10)
        ) {
            let values: Vec<u64> = picks
                .iter()
                .map(|&(i, random)| WIDTH_EDGES.get(i).copied().unwrap_or(random))
                .collect();
            let mut bytes = vec![0xa5];
            put_column(&mut bytes, values.iter().copied());
            bytes.push(0x5a);
            let mut buf = &bytes[1..];
            let decoded = get_column(&mut buf, values.len(), |v| v).unwrap();
            prop_assert_eq!(decoded, values);
            prop_assert_eq!(buf, &[0x5a][..]);
        }
    }

    fn sample_trace() -> Trace {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.li(Reg::R14, 0x10000);
        b.li(Reg::R1, 0);
        b.li(Reg::R2, 37);
        b.bind(top);
        b.shli(Reg::R3, Reg::R1, 3);
        b.add(Reg::R3, Reg::R14, Reg::R3);
        b.st(Reg::R1, Reg::R3, 0);
        b.ld(Reg::R4, Reg::R3, 0);
        b.addi(Reg::R1, Reg::R1, 1);
        b.blt(Reg::R1, Reg::R2, top);
        b.halt();
        Trace::generate(b.build().unwrap(), 10_000).unwrap()
    }

    #[test]
    fn round_trips_exactly() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let copy = Trace::read_from(&bytes[..]).unwrap();
        assert_eq!(copy.records_vec(), trace.records_vec());
        assert_eq!(copy.program().insts(), trace.program().insts());
        for r in Reg::all() {
            assert_eq!(copy.final_reg(r), trace.final_reg(r));
        }
    }

    #[test]
    fn from_bytes_matches_read_from() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        let a = Trace::from_bytes(&bytes).unwrap();
        let b = Trace::read_from(&bytes[..]).unwrap();
        assert_eq!(a.records_vec(), b.records_vec());
        assert_eq!(a.records_vec(), trace.records_vec());
    }

    #[test]
    fn encoding_is_compact() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        // The in-memory record is 24+ bytes; on disk it must average under 8.
        let per_record = bytes.len() as f64 / trace.len() as f64;
        assert!(per_record < 8.0, "{per_record:.1} bytes/record");
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();

        let mut corrupt = bytes.clone();
        corrupt[0] = b'X';
        assert!(Trace::read_from(&corrupt[..]).is_err());

        let truncated = &bytes[..bytes.len() - 3];
        assert!(Trace::read_from(truncated).is_err());

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xff;
        assert!(Trace::read_from(&bad_version[..]).is_err());
    }

    #[test]
    fn rejects_out_of_range_pcs() {
        let trace = sample_trace();
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        // Corrupt bytes throughout the columns: read must fail cleanly or
        // succeed with in-range pcs — never panic.
        for i in (200..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[i] = 0xff;
            if let Ok(t) = Trace::read_from(&corrupt[..]) {
                assert!(t.validate().is_ok());
            }
        }
    }
}
