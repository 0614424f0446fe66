//! Chunk-granularity fault injection and checksum verification.
//!
//! PR 1's `FaultyIo` injects faults at the NetCDF *byte* layer; this
//! module lifts injection to the [`ChunkSource`] boundary so every
//! driver — and every resilience layer above it — can be exercised
//! under the same deterministic fault schedules. A
//! [`FaultyChunkSource`] wraps any source and, per read operation,
//! may:
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
//! Schedules are *deterministic per seed and per operation index*: the
//! decision for operation `k` is drawn from an RNG keyed on
//! `(seed, k)`, so it does not depend on thread interleaving or on how
//! many random draws earlier operations consumed. The chaos harness
//! (`tests/chaos.rs`) leans on this to replay identical fault
//! schedules across runs.

use std::collections::BTreeSet;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// A deterministic, seeded schedule of chunk-level faults.
///
/// Rates are probabilities in `[0, 1]` evaluated independently per
/// read operation; explicit operation sets (`transient_ops`,
/// `corrupt_ops`) force a fault at exact operation indices (0-based,
/// counted per wrapped source) regardless of the rates. `clear_after`
/// turns every fault off from that operation index on, which is how
/// the chaos harness models "the outage ends" and asserts breaker
/// recovery.
#[derive(Debug, Clone)]
pub struct ChunkFaultPlan {
    /// Seed for the per-operation fault draws.
    pub seed: u64,
    /// Probability a read fails with a *transient* I/O error.
    pub transient_rate: f64,
    /// Probability a read fails with a *persistent* I/O error.
    pub persistent_rate: f64,
    /// Probability a read's payload is corrupted in flight.
    pub corrupt_rate: f64,
    /// Probability a read is delayed by [`latency`](Self::latency).
    pub latency_rate: f64,
    /// The injected delay for latency faults.
    pub latency: Duration,
    /// Operation indices that always fail transiently.
    pub transient_ops: BTreeSet<u64>,
    /// Operation indices that always corrupt the payload.
    pub corrupt_ops: BTreeSet<u64>,
    /// Operation indices that always delay by [`latency`](Self::latency).
    pub latency_ops: BTreeSet<u64>,
    /// From this operation index on, every read fails persistently
    /// (models a source that dies and stays dead). `u64::MAX` = never.
    pub persistent_from: u64,
    /// From this operation index on, no faults fire at all (models the
    /// outage clearing; overrides everything else). `u64::MAX` = never.
    pub clear_after: u64,
}

impl Default for ChunkFaultPlan {
    fn default() -> ChunkFaultPlan {
        ChunkFaultPlan {
            seed: 0,
            transient_rate: 0.0,
            persistent_rate: 0.0,
            corrupt_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::from_millis(5),
            transient_ops: BTreeSet::new(),
            corrupt_ops: BTreeSet::new(),
            latency_ops: BTreeSet::new(),
            persistent_from: u64::MAX,
            clear_after: u64::MAX,
        }
    }
}

impl ChunkFaultPlan {
    /// A fault-free plan (useful as a base for builder-style setup).
    pub fn none() -> ChunkFaultPlan {
        ChunkFaultPlan::default()
    }

    /// A randomized chaos plan: moderate transient/corruption/latency
    /// rates drawn against `seed`, as used by the chaos harness.
    pub fn chaos(seed: u64) -> ChunkFaultPlan {
        ChunkFaultPlan {
            seed,
            transient_rate: 0.2,
            corrupt_rate: 0.1,
            latency_rate: 0.05,
            latency: Duration::from_millis(1),
            ..ChunkFaultPlan::default()
        }
    }

    /// What (if anything) fault operation `op` draws under this plan.
    fn decide(&self, op: u64) -> Option<Fault> {
        if op >= self.clear_after {
            return None;
        }
        if op >= self.persistent_from {
            return Some(Fault::Persistent);
        }
        if self.transient_ops.contains(&op) {
            return Some(Fault::Transient);
        }
        if self.corrupt_ops.contains(&op) {
            return Some(Fault::Corrupt);
        }
        if self.latency_ops.contains(&op) {
            return Some(Fault::Latency);
        }
        // Keyed on (seed, op) so the schedule is independent of
        // interleaving: mix the op index into the seed.
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17),
        );
        if self.persistent_rate > 0.0 && rng.gen_bool(self.persistent_rate) {
            return Some(Fault::Persistent);
        }
        if self.transient_rate > 0.0 && rng.gen_bool(self.transient_rate) {
            return Some(Fault::Transient);
        }
        if self.corrupt_rate > 0.0 && rng.gen_bool(self.corrupt_rate) {
            return Some(Fault::Corrupt);
        }
        if self.latency_rate > 0.0 && rng.gen_bool(self.latency_rate) {
            return Some(Fault::Latency);
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Transient,
    Persistent,
    Corrupt,
    Latency,
}

/// A [`ChunkSource`] wrapper that injects faults per a
/// [`ChunkFaultPlan`].
///
/// Corruption flips payload values *after* the inner source reads
/// them, but [`chunk_checksum`](ChunkSource::chunk_checksum) reports
/// the checksum of the **clean** payload — exactly the situation a
/// real store is in when bits rot between the checksummed write and a
/// later read. A verifying reader (see `ResilientSource`) compares and
/// refuses to serve the mismatch.
pub struct FaultyChunkSource<S> {
    inner: S,
    plan: ChunkFaultPlan,
    op: u64,
    injected: u64,
}

impl<S: ChunkSource> FaultyChunkSource<S> {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: S, plan: ChunkFaultPlan) -> FaultyChunkSource<S> {
        FaultyChunkSource { inner, plan, op: 0, injected: 0 }
    }

    /// Read operations seen so far.
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// Faults injected so far (errors, corruptions, and delays).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped source.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn note_injected(&mut self, kind: &'static str) {
        self.injected += 1;
        aql_journal::emit(aql_journal::Event::FaultInjected { kind });
    }
}

/// Deterministically flip one element of `buf` (seeded on `op`), so
/// corruption is reproducible and checksum-detectable. Empty buffers
/// pass through untouched.
fn corrupt_in_place(buf: &mut ScalarBuf, op: u64) {
    let n = buf.len();
    if n == 0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(op ^ 0xDEAD_BEEF_CAFE_F00D);
    let at = rng.gen_range(0..n);
    match buf {
        ScalarBuf::F64(v) => v[at] = f64::from_bits(v[at].to_bits() ^ (1 << 51)),
        ScalarBuf::I64(v) => v[at] ^= 1 << 31,
        ScalarBuf::Bool(v) => v[at] = !v[at],
    }
}

impl<S: ChunkSource> ChunkSource for FaultyChunkSource<S> {
    fn read_chunk(&mut self, start: &[u64], count: &[u64]) -> Result<ScalarBuf, StoreError> {
        let op = self.op;
        self.op += 1;
        match self.plan.decide(op) {
            Some(Fault::Transient) => {
                self.note_injected("transient");
                Err(StoreError::Io {
                    message: format!("injected transient fault at op {op}"),
                    transient: true,
                })
            }
            Some(Fault::Persistent) => {
                self.note_injected("persistent");
                Err(StoreError::io(format!("injected persistent fault at op {op}")))
            }
            Some(Fault::Corrupt) => {
                self.note_injected("corrupt");
                let mut buf = self.inner.read_chunk(start, count)?;
                corrupt_in_place(&mut buf, op);
                Ok(buf)
            }
            Some(Fault::Latency) => {
                self.note_injected("latency");
                interrupt::sleep(self.plan.latency)?;
                self.inner.read_chunk(start, count)
            }
            None => self.inner.read_chunk(start, count),
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
    fn schedule_is_deterministic_per_seed() {
        let plan = ChunkFaultPlan { seed: 42, transient_rate: 0.5, ..ChunkFaultPlan::default() };
        let a: Vec<_> = (0..64).map(|op| plan.decide(op)).collect();
        let b: Vec<_> = (0..64).map(|op| plan.decide(op)).collect();
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.is_some()), "rate 0.5 fires in 64 ops");
        assert!(a.iter().any(|f| f.is_none()), "rate 0.5 passes in 64 ops");
        let other = ChunkFaultPlan { seed: 43, ..plan };
        let c: Vec<_> = (0..64).map(|op| other.decide(op)).collect();
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn explicit_ops_and_clear_after() {
        let plan = ChunkFaultPlan {
            transient_ops: [1u64].into_iter().collect(),
            corrupt_ops: [2u64].into_iter().collect(),
            latency_ops: [3u64].into_iter().collect(),
            persistent_from: 4,
            clear_after: 6,
            ..ChunkFaultPlan::default()
        };
        assert_eq!(plan.decide(0), None);
        assert_eq!(plan.decide(1), Some(Fault::Transient));
        assert_eq!(plan.decide(2), Some(Fault::Corrupt));
        assert_eq!(plan.decide(3), Some(Fault::Latency));
        assert_eq!(plan.decide(4), Some(Fault::Persistent));
        assert_eq!(plan.decide(5), Some(Fault::Persistent));
        assert_eq!(plan.decide(6), None, "clear_after wins");
        assert_eq!(plan.decide(1000), None);
    }

    #[test]
    fn injected_errors_carry_their_class() {
        let plan = ChunkFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            persistent_from: 1,
            ..ChunkFaultPlan::default()
        };
        let mut src = FaultyChunkSource::new(ConstSource(7.0), plan);
        let e0 = src.read_chunk(&[0], &[4]).expect_err("op 0 transient");
        assert_eq!(e0.class(), crate::FaultClass::Retryable);
        let e1 = src.read_chunk(&[0], &[4]).expect_err("op 1 persistent");
        assert_eq!(e1.class(), crate::FaultClass::Fatal);
        assert_eq!(src.injected(), 2);
    }

    #[test]
    fn corruption_is_served_raw_but_checksum_disagrees() {
        let plan =
            ChunkFaultPlan { corrupt_ops: [0u64].into_iter().collect(), ..ChunkFaultPlan::default() };
        let mut src = FaultyChunkSource::new(ConstSource(1.0), plan);
        let clean_sum = src.chunk_checksum(&[0], &[8]).expect("clean read works");
        let dirty = src.read_chunk(&[0], &[8]).expect("corrupt read still returns data");
        assert_ne!(checksum(&dirty), clean_sum, "corruption must be checksum-visible");
        // Next op is clean again.
        let clean = src.read_chunk(&[0], &[8]).expect("op 1 clean");
        assert_eq!(checksum(&clean), clean_sum);
    }

    #[test]
    fn latency_fault_respects_interrupts() {
        use std::time::{Duration, Instant};
        let plan = ChunkFaultPlan {
            latency_rate: 1.0,
            latency: Duration::from_millis(250),
            ..ChunkFaultPlan::default()
        };
        let mut src = FaultyChunkSource::new(ConstSource(0.0), plan);
        let _g = interrupt::install(Some(Instant::now() + Duration::from_millis(5)), None);
        let t0 = Instant::now();
        let err = src.read_chunk(&[0], &[4]).expect_err("deadline fires in the wait");
        assert!(matches!(err, StoreError::Interrupted(_)));
        assert!(t0.elapsed() < Duration::from_millis(200), "did not sleep the full latency");
    }

    #[test]
    fn faulty_source_composes_with_lazy_array() {
        let plan = ChunkFaultPlan {
            transient_ops: [0u64].into_iter().collect(),
            ..ChunkFaultPlan::default()
        };
        let layout = ChunkLayout::new(vec![8], vec![4]).expect("layout");
        let mut a = LazyArray::new(
            layout,
            ScalarKind::F64,
            Box::new(FaultyChunkSource::new(ConstSource(3.0), plan)),
            1 << 16,
        );
        assert!(a.get(&[0]).is_err(), "eager fault surfaces");
        // Retry (op 1) is clean; no resilience layer in this test.
        assert_eq!(a.get(&[0]).expect("op 1 clean"), Some(crate::buffer::Scalar::F64(3.0)));
    }
}
