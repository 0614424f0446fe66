//! Chunk-granularity fault injection and checksum verification.
//!
//! [`FaultyChunkSource`] is the one fault injector in the workspace. It
//! sits at the [`ChunkSource`] boundary, so every driver — and every
//! resilience layer above it — is exercised the same way, and it asks a
//! *schedule* (any `FnMut(op, chunk_start) -> Option<Fault>`) what to
//! do to each read:
//!
//! * fail with a **transient** I/O error (retry should clear it),
//! * fail with a **persistent** I/O error (retry cannot help),
//! * delay the read by an injected latency (interruptible, so a
//!   deadline still fires mid-wait), or
//! * **corrupt** the payload after reading it — while still reporting
//!   the *clean* payload's checksum through
//!   [`ChunkSource::chunk_checksum`], so a verifying reader detects
//!   the corruption instead of serving it.
//!
//! [`checksum`] is the one chunk checksum in the system: the AQF chunk
//! table stores it (format v2), [`MemChunkSource`](crate::MemChunkSource)
//! and [`FaultyChunkSource`] advertise it, and
//! [`ResilientSource`](crate::ResilientSource) recomputes it on every
//! load. It is a 64-bit-word-at-a-time multiply–rotate hash over four
//! interleaved lanes, seeded with the element kind and count; its doc
//! comment is the normative statement (constants, word order, `Bool`
//! packing), and a test writes the same steps out longhand.
//!
//! A schedule that draws at random keys its draw on `(seed, op)` with
//! [`splitmix64`], so the decision for read `k` does not depend on
//! thread interleaving or on how many draws earlier reads consumed; the
//! chaos harness (`tests/chaos.rs`) replays identical fault schedules
//! across runs that way.

use std::time::Duration;

use crate::buffer::ScalarBuf;
use crate::error::StoreError;
use crate::interrupt;
use crate::source::ChunkSource;

/// Seed of the chunk checksum (the FNV-1a offset basis, kept from v1).
const SUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Odd multiplier of the mix step (2^64 / φ).
const SUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One mix step: `(h <<< 27 ^ w) · SUM_MUL mod 2^64`. A bijection of
/// `h` for fixed `w` and of `w` for fixed `h`, so a change confined to
/// one word always changes the sum.
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h.rotate_left(27) ^ w).wrapping_mul(SUM_MUL)
}

/// Fold `v` into four lanes seeded with `h0`, `per` elements to a word
/// (`word` packs one — possibly short, final — group): word `k` goes
/// to lane `k mod 4`, so the four multiplies of a row are independent.
#[inline(always)]
fn sum_lanes<T>(h0: u64, v: &[T], per: usize, word: impl Fn(&[T]) -> u64) -> u64 {
    let mut lanes = [h0; 4];
    let mut rows = v.chunks_exact(4 * per);
    for row in &mut rows {
        for (lane, group) in lanes.iter_mut().zip(row.chunks_exact(per)) {
            *lane = mix(*lane, word(group));
        }
    }
    for (lane, group) in lanes.iter_mut().zip(rows.remainder().chunks(per)) {
        *lane = mix(*lane, word(group));
    }
    let [a, b, c, d] = lanes;
    let mut h = mix(mix(mix(a, b), c), d);
    h ^= h >> 32;
    h = h.wrapping_mul(SUM_MUL);
    h ^ (h >> 29)
}

/// The checksum of a chunk payload — the value an AQF chunk table
/// stores (format v2) and every verifying reader recomputes. Not
/// cryptographic: it only has to make accidental (or injected)
/// corruption visible, at memory speed.
///
/// All arithmetic is on `u64`, wrapping. With `mix(h, w) =
/// (h <<< 27 ^ w) · 0x9e3779b97f4a7c15`:
///
/// 1. `h0 = mix(mix(0xcbf29ce484222325, tag), n)` — `tag` is 0 for
///    `F64`, 1 for `I64`, 2 for `Bool`; `n` is the element count.
/// 2. The payload is a sequence of words in element order: an `F64`
///    element is its IEEE bits, an `I64` element its two's complement,
///    and `Bool`s go eight to a word — element `8k + j` is byte `j`
///    (little-endian, 0 or 1) of word `k`, the last word zero-padded.
/// 3. Four lanes start at `h0`; word `k` is mixed into lane `k mod 4`.
/// 4. `h = mix(mix(mix(lane0, lane1), lane2), lane3)`, then
///    `h ^= h >> 32; h *= 0x9e3779b97f4a7c15; h ^= h >> 29`.
pub fn checksum(buf: &ScalarBuf) -> u64 {
    let h0 = |tag: u64| mix(mix(SUM_SEED, tag), buf.len() as u64);
    match buf {
        ScalarBuf::F64(v) => sum_lanes(h0(0), v, 1, |x| x[0].to_bits()),
        ScalarBuf::I64(v) => sum_lanes(h0(1), v, 1, |x| x[0] as u64),
        ScalarBuf::Bool(v) => sum_lanes(h0(2), v, 8, |group| {
            group.iter().enumerate().fold(0, |w, (j, &b)| w | u64::from(b) << (8 * j))
        }),
    }
}

/// splitmix64 (Steele, Lea & Flood 2014): advance `state` by the
/// golden-ratio increment and return its next 64 bits. The one stream
/// production code draws from — the retry jitter of
/// [`ResilientSource`](crate::ResilientSource) and the corrupted cell of
/// a [`Fault::Corrupt`] read — and the one seeded fault schedules draw
/// from.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SUM_MUL);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw from `[0, 1)`: the top 53 bits of the next
/// [`splitmix64`] word.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// What a schedule does to one chunk read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail with a *transient* I/O error (a retry may clear it).
    Transient,
    /// Fail with a *persistent* I/O error (a retry cannot help).
    Persistent,
    /// Read, then flip one cell of the payload.
    Corrupt,
    /// Stall (interruptibly) this long, then read.
    Latency(Duration),
}

impl Fault {
    /// The `chaos.injected:<kind>` name of the fault.
    fn kind(self) -> &'static str {
        match self {
            Fault::Transient => "transient",
            Fault::Persistent => "persistent",
            Fault::Corrupt => "corrupt",
            Fault::Latency(_) => "latency",
        }
    }
}

/// A [`ChunkSource`] wrapper that asks its schedule, before every read,
/// what (if anything) to do to it: `schedule(op, start)` sees the
/// 0-based index of the read among this wrapper's reads and the start
/// of the chunk it asks for. The schedule is any closure, so a fault can
/// be keyed on the operation, on the chunk, on a seeded draw, or on
/// state it keeps itself — and may act on the world (a cancellation
/// flag) before the read goes ahead.
///
/// Corruption flips payload values *after* the inner source reads
/// them, but [`chunk_checksum`](ChunkSource::chunk_checksum) reports
/// the checksum of the **clean** payload — exactly the situation a
/// real store is in when bits rot between the checksummed write and a
/// later read. A verifying reader (see `ResilientSource`) compares and
/// refuses to serve the mismatch.
pub struct FaultyChunkSource<S, F> {
    inner: S,
    schedule: F,
    op: u64,
}

impl<S, F> FaultyChunkSource<S, F>
where
    S: ChunkSource,
    F: FnMut(u64, &[u64]) -> Option<Fault>,
{
    /// Wrap `inner` under `schedule`.
    pub fn new(inner: S, schedule: F) -> FaultyChunkSource<S, F> {
        FaultyChunkSource { inner, schedule, op: 0 }
    }
}

/// Deterministically flip one element of `buf` (seeded on `op`), so
/// corruption is reproducible and checksum-detectable. Empty buffers
/// pass through untouched.
fn corrupt_in_place(buf: &mut ScalarBuf, op: u64) {
    let n = buf.len() as u64;
    if n == 0 {
        return;
    }
    let mut seed = op ^ 0xDEAD_BEEF_CAFE_F00D;
    let at = (splitmix64(&mut seed) % n) as usize;
    match buf {
        ScalarBuf::F64(v) => v[at] = f64::from_bits(v[at].to_bits() ^ (1 << 51)),
        ScalarBuf::I64(v) => v[at] ^= 1 << 31,
        ScalarBuf::Bool(v) => v[at] = !v[at],
    }
}

impl<S, F> ChunkSource for FaultyChunkSource<S, F>
where
    S: ChunkSource,
    F: FnMut(u64, &[u64]) -> Option<Fault>,
{
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let op = self.op;
        self.op += 1;
        let Some(fault) = (self.schedule)(op, start) else {
            return self.inner.read_chunk(start, count);
        };
        aql_journal::emit(aql_journal::Event::FaultInjected { kind: fault.kind() });
        match fault {
            Fault::Transient => Err(StoreError::Io {
                message: format!("injected transient fault at op {op}"),
                transient: true,
            }),
            Fault::Persistent => {
                Err(StoreError::io(format!("injected persistent fault at op {op}")))
            }
            Fault::Corrupt => {
                let mut buf = self.inner.read_chunk(start, count)?;
                corrupt_in_place(&mut buf, op);
                Ok(buf)
            }
            Fault::Latency(stall) => {
                interrupt::sleep(stall)?;
                self.inner.read_chunk(start, count)
            }
        }
    }

    /// The checksum of the *clean* payload: read through the inner
    /// source directly, bypassing injection. `None` if the clean read
    /// itself fails (the caller then simply cannot verify).
    fn chunk_checksum(&mut self, start: &[u64], count: &[u64]) -> Option<u64> {
        self.inner.read_chunk(start, count).ok().map(|b| checksum(&b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ScalarKind;
    use crate::layout::ChunkLayout;
    use crate::lazy::LazyArray;

    struct ConstSource(f64);
    impl ChunkSource for ConstSource {
        fn read_chunk(&mut self, _s: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
            let n: u64 = count.iter().product();
            Ok(ScalarBuf::F64(vec![self.0; n as usize]))
        }
    }

    #[test]
    fn checksum_detects_single_bit_flip() {
        let clean = ScalarBuf::F64(vec![1.0, 2.0, 3.0]);
        let mut dirty = clean.clone();
        corrupt_in_place(&mut dirty, 3);
        assert_ne!(checksum(&clean), checksum(&dirty));
        assert_ne!(clean, dirty);
        // Kind participates: same bytes, different kind, different sum.
        assert_ne!(
            checksum(&ScalarBuf::I64(vec![0])),
            checksum(&ScalarBuf::F64(vec![0.0]))
        );
    }

    /// `buf` with bit `bit` of element `at` flipped (`Bool`: the element).
    fn flipped(buf: &ScalarBuf, at: usize, bit: u32) -> ScalarBuf {
        let mut out = buf.clone();
        match &mut out {
            ScalarBuf::F64(v) => v[at] = f64::from_bits(v[at].to_bits() ^ (1 << bit)),
            ScalarBuf::I64(v) => v[at] ^= 1 << bit,
            ScalarBuf::Bool(v) => v[at] = !v[at],
        }
        out
    }

    #[test]
    fn every_single_bit_flip_of_a_chunk_changes_the_sum() {
        let n = 4096usize;
        let chunks = [
            ScalarBuf::F64((0..n).map(|k| 273.15 + k as f64 * 0.37).collect()),
            ScalarBuf::I64((0..n as i64).map(|k| k * k - 4000).collect()),
            ScalarBuf::Bool((0..n).map(|k| k % 3 == 0).collect()),
        ];
        for buf in &chunks {
            let clean = checksum(buf);
            let width = if buf.kind() == ScalarKind::Bool { 1 } else { 64 };
            for at in 0..n {
                // All 64 bits of every element in an optimized build;
                // unoptimized (185 µs a sum) all 64 only for the first
                // and last two rows of lanes, one rotating bit elsewhere.
                let all = !cfg!(debug_assertions) || !(8..n - 8).contains(&at);
                let bits = if all { 0..width } else { at as u32 % width..at as u32 % width + 1 };
                for bit in bits {
                    let dirty = checksum(&flipped(buf, at, bit));
                    assert_ne!(dirty, clean, "{} {at} bit {bit}", buf.kind());
                }
            }
        }
    }

    #[test]
    fn kind_and_length_participate() {
        // Same bits, different kind.
        assert_ne!(
            checksum(&ScalarBuf::F64(vec![1.0, -2.5])),
            checksum(&ScalarBuf::I64(vec![1.0f64.to_bits() as i64, (-2.5f64).to_bits() as i64]))
        );
        // Same packed words, different element count.
        assert_ne!(
            checksum(&ScalarBuf::Bool(vec![false; 8])),
            checksum(&ScalarBuf::Bool(vec![false; 9]))
        );
        assert_ne!(checksum(&ScalarBuf::I64(vec![0; 4])), checksum(&ScalarBuf::I64(vec![0; 5])));
        // The three empty buffers.
        let empty = [
            checksum(&ScalarBuf::F64(vec![])),
            checksum(&ScalarBuf::I64(vec![])),
            checksum(&ScalarBuf::Bool(vec![])),
        ];
        assert!(empty[0] != empty[1] && empty[1] != empty[2] && empty[0] != empty[2], "{empty:x?}");
    }

    #[test]
    fn the_sum_is_the_documented_function() {
        // The doc comment's four steps, written out longhand for a
        // five-word payload (one full row of lanes and one word over).
        let words = [3u64, 1 << 63, u64::MAX, 0, 42];
        let mix = |h: u64, w: u64| (h.rotate_left(27) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let h0 = mix(mix(0xcbf2_9ce4_8422_2325, 1), 5);
        let lane0 = mix(mix(h0, words[0]), words[4]);
        let [lane1, lane2, lane3] = [1, 2, 3].map(|k| mix(h0, words[k]));
        let mut h = mix(mix(mix(lane0, lane1), lane2), lane3);
        h ^= h >> 32;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        assert_eq!(checksum(&ScalarBuf::I64(words.map(|w| w as i64).to_vec())), h);
        // `Bool`s pack eight to a little-endian word, zero-padded.
        let bools = [true, false, true, true, false, false, false, true, true];
        let h0 = mix(mix(0xcbf2_9ce4_8422_2325, 2), 9);
        let mut h = mix(mix(mix(mix(h0, 0x0100_0000_0101_0001), mix(h0, 1)), h0), h0);
        h ^= h >> 32;
        h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        assert_eq!(checksum(&ScalarBuf::Bool(bools.to_vec())), h);
    }

    #[test]
    fn the_schedule_sees_every_read_with_its_op_and_chunk() {
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let log = std::rc::Rc::clone(&seen);
        let mut src = FaultyChunkSource::new(ConstSource(1.0), move |op, start: &[u64]| {
            log.borrow_mut().push((op, start[0]));
            None
        });
        for at in [8, 0, 8] {
            src.read_chunk(&[at], &[8]).expect("no fault scheduled");
        }
        assert_eq!(*seen.borrow(), [(0, 8), (1, 0), (2, 8)]);
    }

    #[test]
    fn injected_errors_carry_their_class() {
        let mut src = FaultyChunkSource::new(ConstSource(7.0), |op, _: &[u64]| {
            Some(if op == 0 { Fault::Transient } else { Fault::Persistent })
        });
        let e0 = src.read_chunk(&[0], &[4]).expect_err("op 0 transient");
        assert_eq!(e0.class(), crate::FaultClass::Retryable);
        let e1 = src.read_chunk(&[0], &[4]).expect_err("op 1 persistent");
        assert_eq!(e1.class(), crate::FaultClass::Fatal);
        assert_eq!(e1.to_string(), "storage I/O error: injected persistent fault at op 1");
    }

    #[test]
    fn corruption_is_served_raw_but_checksum_disagrees() {
        let once = |op, _: &[u64]| (op == 0).then_some(Fault::Corrupt);
        let mut src = FaultyChunkSource::new(ConstSource(1.0), once);
        let clean_sum = src.chunk_checksum(&[0], &[8]).expect("clean read works");
        let dirty = src.read_chunk(&[0], &[8]).expect("corrupt read still returns data");
        assert_ne!(checksum(&dirty), clean_sum, "corruption must be checksum-visible");
        // Next op is clean again.
        let clean = src.read_chunk(&[0], &[8]).expect("op 1 clean");
        assert_eq!(checksum(&clean), clean_sum);
    }

    #[test]
    fn latency_fault_respects_interrupts() {
        use std::time::Instant;
        let stall = |_, _: &[u64]| Some(Fault::Latency(Duration::from_millis(250)));
        let mut src = FaultyChunkSource::new(ConstSource(0.0), stall);
        let _g = interrupt::install(Some(Instant::now() + Duration::from_millis(5)), None);
        let t0 = Instant::now();
        let err = src.read_chunk(&[0], &[4]).expect_err("deadline fires in the wait");
        assert!(matches!(err, StoreError::Interrupted(_)));
        assert!(t0.elapsed() < Duration::from_millis(200), "did not sleep the full latency");
    }

    #[test]
    fn faulty_source_composes_with_lazy_array() {
        let once = |op, _: &[u64]| (op == 0).then_some(Fault::Transient);
        let layout = ChunkLayout::new(vec![8], vec![4]).expect("layout");
        let mut a = LazyArray::new(
            layout,
            ScalarKind::F64,
            Box::new(FaultyChunkSource::new(ConstSource(3.0), once)),
            1 << 16,
        );
        assert!(a.get(&[0]).is_err(), "eager fault surfaces");
        // Retry (op 1) is clean; no resilience layer in this test.
        assert_eq!(a.get(&[0]).expect("op 1 clean"), Some(crate::buffer::Scalar::F64(3.0)));
    }
}
