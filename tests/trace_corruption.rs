//! Fuzz the two untrusted input surfaces: the binary trace reader and the
//! assembly parser. Whatever bytes arrive, they must return an error —
//! never panic, and never allocate proportionally to a length field an
//! attacker controls rather than to the input itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use specmt::isa::{parse_program, ProgramBuilder, Reg};
use specmt::trace::Trace;

/// The system allocator, recording the largest single request made on each
/// thread, so a test can bound what the reader allocates for one input.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter update, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc_zeroed`, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's contract for `realloc`, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Reads `data` as a trace and returns the result with the largest single
/// allocation the read made.
fn read_measured(data: &[u8]) -> (std::io::Result<Trace>, usize) {
    LARGEST.with(|m| m.set(0));
    let result = Trace::from_bytes(data);
    (result, LARGEST.with(Cell::get))
}

/// Where each value column's control bytes and data-length field sit in a
/// serialized trace: `(control byte range, data-length offset)` for the
/// pc, addr and result columns.
fn column_fields(data: &[u8]) -> Vec<(std::ops::Range<usize>, usize)> {
    let word = |at: usize| {
        let mut w = [0u8; 8];
        w.copy_from_slice(&data[at..at + 8]);
        u64::from_le_bytes(w) as usize
    };
    let plen = u32::from_le_bytes([data[8], data[9], data[10], data[11]]) as usize;
    let count_at = 12 + plen;
    let count = word(count_at);
    let mut at = count_at + 8 + 32 * 8;
    let mut fields = Vec::new();
    for column in 0..3 {
        let ctrl = at..at + count.div_ceil(4);
        let len_at = ctrl.end;
        at = len_at + 8 + word(len_at);
        if column == 0 {
            at += count.div_ceil(64) * 8; // the taken column follows the pcs
        }
        fields.push((ctrl, len_at));
    }
    assert_eq!(at, data.len(), "the three value columns end the container");
    fields
}

/// A small but real trace, serialized.
fn serialized_trace() -> Vec<u8> {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("top");
    b.li(Reg::R1, 0);
    b.li(Reg::R2, 20);
    b.li(Reg::R3, 0x1000);
    b.bind(top);
    b.st(Reg::R1, Reg::R3, 0);
    b.ld(Reg::R4, Reg::R3, 0);
    b.addi(Reg::R1, Reg::R1, 1);
    b.blt(Reg::R1, Reg::R2, top);
    b.halt();
    let trace = Trace::generate(b.build().expect("program"), 1000).expect("trace");
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("serialize");
    bytes
}

proptest! {
    /// Arbitrary garbage: the reader returns Ok or Err, never panics.
    #[test]
    fn read_from_arbitrary_bytes_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Trace::read_from(&data[..]);
    }

    /// Point mutations of a genuine trace: still no panic, and anything the
    /// reader accepts must satisfy the trace's structural invariant.
    /// (Mutations aimed at the columns' width codes and data lengths are
    /// `column_header_mutations_are_rejected_or_valid`.)
    #[test]
    fn read_from_mutated_trace_never_panics(
        flips in prop::collection::vec((any::<u64>(), any::<u8>()), 1..8)
    ) {
        let mut data = serialized_trace();
        for (idx, x) in flips {
            let i = idx as usize % data.len();
            data[i] ^= x;
        }
        if let Ok(trace) = Trace::read_from(&data[..]) {
            trace.validate().expect("accepted trace must be structurally valid");
        }
    }

    /// Truncations at every length: no panic, no bogus success beyond the
    /// container header.
    #[test]
    fn read_from_truncated_trace_never_panics(cut in any::<u64>()) {
        let data = serialized_trace();
        let n = cut as usize % data.len();
        let _ = Trace::read_from(&data[..n]);
    }

    /// Mutated assembly text: the parser errors, it does not panic.
    #[test]
    fn parse_program_never_panics_on_mutated_assembly(
        flips in prop::collection::vec((any::<u64>(), 0u32..0x11_0000), 1..6)
    ) {
        let mut text = String::from(
            "start:\n  li r1, 0\n  li r2, 9\nloop:\n  addi r1, r1, 1\n  blt r1, r2, loop\n  halt\n",
        );
        for (idx, raw) in flips {
            let c = char::from_u32(raw).unwrap_or('\u{fffd}');
            let mut chars: Vec<char> = text.chars().collect();
            let i = idx as usize % chars.len();
            chars[i] = c;
            text = chars.into_iter().collect();
        }
        let _ = parse_program(&text);
    }

    /// Arbitrary text through the parser, for good measure.
    #[test]
    fn parse_program_never_panics_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..200)
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_program(&text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutations of the value columns' width codes and data-length fields,
    /// and of the record count: no panic, anything accepted is structurally
    /// valid, and no single allocation outgrows the input by more than the
    /// decoded columns' fixed ratio (a record decodes to 20 bytes and costs
    /// at least 7/8 of a byte of width codes and taken bits).
    #[test]
    fn column_header_mutations_are_rejected_or_valid(
        column in 0usize..3,
        ctrl_flips in prop::collection::vec((any::<u64>(), any::<u8>()), 0..4),
        len_change in prop::option::of((0u64..3, any::<u64>())),
        count_change in prop::option::of(any::<u64>()),
    ) {
        let mut data = serialized_trace();
        if let Some(x) = count_change {
            // Up to four records per input byte: past what the width codes
            // alone can describe, so the reader's count check must act.
            let count_at = 12 + u32::from_le_bytes([data[8], data[9], data[10], data[11]]) as usize;
            let count = x % (4 * data.len() as u64);
            data[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
        }
        let (ctrl, len_at) = column_fields(&serialized_trace())[column].clone();
        for (idx, x) in ctrl_flips {
            data[ctrl.start + idx as usize % ctrl.len()] ^= x;
        }
        if let Some((kind, x)) = len_change {
            let mut w = [0u8; 8];
            w.copy_from_slice(&data[len_at..len_at + 8]);
            let len = u64::from_le_bytes(w);
            let changed = match kind {
                0 => x,
                1 => len.wrapping_add(x % 17).wrapping_sub(8),
                _ => u64::MAX - x % 4,
            };
            data[len_at..len_at + 8].copy_from_slice(&changed.to_le_bytes());
        }
        let (result, largest) = read_measured(&data);
        if let Ok(trace) = result {
            trace.validate().expect("accepted trace must be structurally valid");
        }
        prop_assert!(
            largest <= 24 * data.len(),
            "largest allocation {} for a {}-byte input", largest, data.len()
        );
    }
}

/// A crafted header claiming u64::MAX records must be rejected up front —
/// before `Vec::with_capacity` turns the length field into an allocation.
#[test]
fn huge_record_count_is_rejected_without_allocating() {
    let data = serialized_trace();
    // Locate the count field: magic(4) + version(4) + plen(4) + program + count(8).
    let plen = u32::from_le_bytes([data[8], data[9], data[10], data[11]]) as usize;
    let count_at = 12 + plen;
    let mut evil = data.clone();
    evil[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let err = Trace::read_from(&evil[..]).expect_err("absurd count must not parse");
    assert!(err.to_string().contains("count"), "unexpected error: {err}");
}
