//! Per-chunk codecs.
//!
//! Every AQF chunk is encoded independently with one of three codecs,
//! recorded per chunk in the file's table:
//!
//! * [`Codec::Raw`] — fixed-width little-endian elements (8 bytes for
//!   `F64`/`I64`, 1 byte for `Bool`). Always available; the fallback
//!   whenever a "smarter" encoding would not actually shrink the
//!   chunk.
//! * [`Codec::BitPack`] — for `I64`: a frame minimum plus bit-packed
//!   non-negative deltas; for `Bool`: one bit per element. The natural
//!   fit for index-like and mask data.
//! * [`Codec::FrameOfRef`] — for `F64` whose values are a frame
//!   minimum plus *exactly representable integral* deltas (gridded
//!   counts, quantized sensor data). The encoder proves losslessness
//!   per element before committing — any value that would not decode
//!   bit-identically forces the chunk back to `Raw`.
//!
//! A packed stream is the values' low `width` bits, LSB-first, value
//! after value, the last byte zero-padded. Both directions move whole
//! values through a 128-bit accumulator, eight stream bytes at a time,
//! and each is one pass from source to destination: the encoder picks
//! the width from a read-only pre-scan (minimum, then exactness and
//! the widest delta) and packs straight from the source slice into the
//! one payload allocation; the decoder unpacks straight into the one
//! typed buffer.
//!
//! Decoding is fully validated: payload sizes must match exactly, bit
//! widths must be in range, and `Bool` bytes must be 0/1 — a corrupted
//! or truncated payload yields [`StoreError::Corrupt`], never a panic
//! or a silently wrong buffer. The element count is the file's word,
//! not ours: every size derived from it is computed checked and the
//! output is reserved fallibly, so nine bytes that claim 2^40
//! elements are an error and not an abort.

use aql_store::{ScalarBuf, ScalarKind, StoreError};

/// Chunk encoding, stored as one byte in the chunk table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Fixed-width little-endian elements.
    Raw,
    /// Frame-of-reference bit packing for integers; packed bits for
    /// booleans.
    BitPack,
    /// Frame-of-reference bit packing for reals with integral deltas.
    FrameOfRef,
}

impl Codec {
    /// The table byte for this codec.
    pub fn as_u8(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::BitPack => 1,
            Codec::FrameOfRef => 2,
        }
    }

    /// Decode a table byte; `None` for unknown codecs (newer writer).
    pub fn from_u8(b: u8) -> Option<Codec> {
        match b {
            0 => Some(Codec::Raw),
            1 => Some(Codec::BitPack),
            2 => Some(Codec::FrameOfRef),
            _ => None,
        }
    }
}

/// Bits needed to represent `v`.
fn width_of(v: u64) -> u32 {
    64 - v.leading_zeros()
}

/// Bytes `n` values of `width` bits pack into; `None` on overflow.
fn packed_len(n: usize, width: u32) -> Option<u64> {
    Some((n as u64).checked_mul(u64::from(width))?.div_ceil(8))
}

/// The low `width` bits of a word.
fn low_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// Append each value's low `width` bits, LSB-first, to `out`: values
/// shift through a 128-bit accumulator that is flushed eight bytes at
/// a time, so the stream is the same bytes a bit-by-bit packer writes.
fn pack_bits(vals: impl Iterator<Item = u64>, width: u32, out: &mut Vec<u8>) {
    let mask = low_mask(width);
    let (mut acc, mut fill) = (0u128, 0u32);
    for v in vals {
        acc |= u128::from(v & mask) << fill;
        fill += width;
        if fill >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            fill -= 64;
        }
    }
    out.extend_from_slice(&(acc as u64).to_le_bytes()[..fill.div_ceil(8) as usize]);
}

/// Inverse of [`pack_bits`]: the `n` values of `width` bits packed in
/// `bytes`, refilling a 128-bit accumulator eight bytes at a time;
/// `None` when `bytes` is not exactly the packed size.
fn unpack_bits(bytes: &[u8], width: u32, n: usize) -> Option<impl Iterator<Item = u64> + '_> {
    if packed_len(n, width)? != bytes.len() as u64 {
        return None;
    }
    let mask = low_mask(width);
    let (mut acc, mut fill, mut rest) = (0u128, 0u32, bytes);
    Some((0..n).map(move |_| {
        if fill < width {
            let word = match rest.split_first_chunk::<8>() {
                Some((word, tail)) => {
                    rest = tail;
                    *word
                }
                // The exact-size check above means a short word is
                // only ever the stream's last: pad it with zeros.
                None => {
                    let mut word = [0u8; 8];
                    word[..rest.len()].copy_from_slice(rest);
                    rest = &[];
                    word
                }
            };
            acc |= u128::from(u64::from_le_bytes(word)) << fill;
            fill += 64;
        }
        let v = acc as u64 & mask;
        acc >>= width;
        fill -= width;
        v
    }))
}

/// Raw little-endian encoding — always succeeds.
fn encode_raw(buf: &ScalarBuf) -> Vec<u8> {
    match buf {
        ScalarBuf::F64(v) => v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect(),
        ScalarBuf::I64(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
        ScalarBuf::Bool(v) => v.iter().map(|&b| u8::from(b)).collect(),
    }
}

/// `min (8B) + width (1B) + packed deltas`, the frame both packing
/// codecs share, or `None` when that would not be smaller than raw.
fn frame(min: [u8; 8], width: u32, n: usize, deltas: impl Iterator<Item = u64>) -> Option<Vec<u8>> {
    let len = 9 + packed_len(n, width)?;
    if len >= n as u64 * 8 {
        return None;
    }
    let mut out = Vec::with_capacity(len as usize);
    out.extend_from_slice(&min);
    out.push(width as u8);
    pack_bits(deltas, width, &mut out);
    Some(out)
}

/// Bit-pack an `I64` chunk as a [`frame`] of `x - min`.
fn try_bitpack_i64(v: &[i64]) -> Option<Vec<u8>> {
    let (min, max) = v.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    if min > max {
        return None;
    }
    // `x - min` is in [0, 2^64) for any x ≥ min, so the wrapping u64
    // difference is the exact one.
    let delta = move |x: i64| (x as u64).wrapping_sub(min as u64);
    frame(min.to_le_bytes(), width_of(delta(max)), v.len(), v.iter().map(|&x| delta(x)))
}

/// Frame-of-reference encoding for `F64`: a [`frame`] of integral
/// `x - min`. `None` unless every value decodes back bit-identically
/// *and* the result is smaller than raw.
fn try_frame_of_ref_f64(v: &[f64]) -> Option<Vec<u8>> {
    let min = v.iter().copied().reduce(f64::min)?;
    if !min.is_finite() {
        return None;
    }
    let mut max_delta = 0u64;
    for &x in v {
        let d = x - min;
        // Exactness proof per element: the delta must be a
        // non-negative integer small enough to round-trip through
        // u64 → f64 → the original bits.
        if !(d >= 0.0 && d.fract() == 0.0 && d <= (1u64 << 53) as f64) {
            return None;
        }
        let du = d as u64;
        if (min + du as f64).to_bits() != x.to_bits() {
            return None;
        }
        max_delta = max_delta.max(du);
    }
    let deltas = v.iter().map(|&x| (x - min) as u64);
    frame(min.to_bits().to_le_bytes(), width_of(max_delta), v.len(), deltas)
}

/// Encode one chunk. With `compress` the kind-appropriate packing
/// codec is tried first and kept only when it is strictly smaller
/// than raw; without it every chunk is raw.
pub fn encode(buf: &ScalarBuf, compress: bool) -> (Codec, Vec<u8>) {
    if compress {
        match buf {
            ScalarBuf::I64(v) => {
                if let Some(bytes) = try_bitpack_i64(v) {
                    return (Codec::BitPack, bytes);
                }
            }
            ScalarBuf::F64(v) => {
                if let Some(bytes) = try_frame_of_ref_f64(v) {
                    return (Codec::FrameOfRef, bytes);
                }
            }
            ScalarBuf::Bool(v) => {
                // One bit per element beats one byte whenever the
                // chunk has ≥ 2 elements.
                if v.len() >= 2 {
                    let mut out = Vec::with_capacity(v.len().div_ceil(8));
                    pack_bits(v.iter().map(|&b| u64::from(b)), 1, &mut out);
                    return (Codec::BitPack, out);
                }
            }
        }
    }
    (Codec::Raw, encode_raw(buf))
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

/// Collect the `elems` decoded elements a chunk table claims. The
/// count comes from the file, so the size is computed checked and
/// reserved fallibly: a hostile count ends as an error, not an abort.
fn collect<T>(elems: usize, items: impl Iterator<Item = T>) -> Result<Vec<T>, StoreError> {
    let bytes = (elems as u64)
        .checked_mul(std::mem::size_of::<T>() as u64)
        .ok_or_else(|| corrupt(format!("{elems} elements overflow the decoded size")))?;
    let mut out = Vec::new();
    out.try_reserve_exact(elems)
        .map_err(|_| corrupt(format!("{elems} elements ({bytes} bytes) cannot be allocated")))?;
    out.extend(items);
    Ok(out)
}

/// Decode one chunk payload back into `elems` scalars of `kind`.
pub fn decode(
    codec: Codec,
    kind: ScalarKind,
    elems: usize,
    bytes: &[u8],
) -> Result<ScalarBuf, StoreError> {
    match (codec, kind) {
        (Codec::Raw, ScalarKind::F64) | (Codec::Raw, ScalarKind::I64) => {
            if elems.checked_mul(8) != Some(bytes.len()) {
                return Err(corrupt(format!(
                    "raw payload is {} bytes for {elems} 8-byte elements",
                    bytes.len()
                )));
            }
            let words = bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")));
            Ok(match kind {
                ScalarKind::F64 => ScalarBuf::F64(collect(elems, words.map(f64::from_bits))?),
                _ => ScalarBuf::I64(collect(elems, words.map(|w| w as i64))?),
            })
        }
        (Codec::Raw, ScalarKind::Bool) => {
            if bytes.len() != elems {
                return Err(corrupt(format!(
                    "raw bool payload is {} bytes for {elems} elements",
                    bytes.len()
                )));
            }
            if let Some(i) = bytes.iter().position(|&b| b > 1) {
                return Err(corrupt(format!("bool byte {i} holds {}, not 0/1", bytes[i])));
            }
            Ok(ScalarBuf::Bool(collect(elems, bytes.iter().map(|&b| b == 1))?))
        }
        (Codec::BitPack, ScalarKind::Bool) => {
            let bits = unpack_bits(bytes, 1, elems)
                .ok_or_else(|| corrupt("bit-packed bool payload has the wrong size"))?;
            Ok(ScalarBuf::Bool(collect(elems, bits.map(|v| v == 1))?))
        }
        (Codec::BitPack, ScalarKind::I64) => {
            let (min, width, packed) = split_frame(bytes, "bit-packed")?;
            let min = i64::from_le_bytes(min);
            let deltas = unpack_bits(packed, width, elems)
                .ok_or_else(|| corrupt("bit-packed payload has the wrong size"))?;
            // `min + d` fits i64 exactly when d ≤ i64::MAX - min, a
            // difference in [0, 2^64) and so exact as a wrapping one.
            let room = (i64::MAX as u64).wrapping_sub(min as u64);
            let mut over = false;
            let out = collect(
                elems,
                deltas.map(|d| {
                    over |= d > room;
                    (min as u64).wrapping_add(d) as i64
                }),
            )?;
            if over {
                return Err(corrupt("bit-packed delta overflows i64"));
            }
            Ok(ScalarBuf::I64(out))
        }
        (Codec::FrameOfRef, ScalarKind::F64) => {
            let (min, width, packed) = split_frame(bytes, "frame-of-reference")?;
            let min = f64::from_bits(u64::from_le_bytes(min));
            let deltas = unpack_bits(packed, width, elems)
                .ok_or_else(|| corrupt("frame-of-reference payload has the wrong size"))?;
            Ok(ScalarBuf::F64(collect(elems, deltas.map(|d| min + d as f64))?))
        }
        (c, k) => Err(corrupt(format!("codec {c:?} does not apply to {k} chunks"))),
    }
}

/// Split a `min (8B) + width (1B) + packed` frame payload.
fn split_frame<'a>(bytes: &'a [u8], what: &str) -> Result<([u8; 8], u32, &'a [u8]), StoreError> {
    if bytes.len() < 9 {
        return Err(corrupt(format!("{what} payload too short for its frame header")));
    }
    let min: [u8; 8] = bytes[..8].try_into().expect("sliced 8");
    let width = bytes[8] as u32;
    if width > 64 {
        return Err(corrupt(format!("{what} bit width {width} exceeds 64")));
    }
    Ok((min, width, &bytes[9..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time packer and the delta-vector encoders this
    /// module had before the word-at-a-time ones: the reference every
    /// payload byte is compared against.
    mod reference {
        use super::super::{encode_raw, width_of, Codec};
        use aql_store::ScalarBuf;

        pub fn pack_bits(vals: &[u64], width: u32) -> Vec<u8> {
            let total_bits = vals.len() as u64 * width as u64;
            let mut out = vec![0u8; total_bits.div_ceil(8) as usize];
            let mut bitpos = 0u64;
            for &v in vals {
                for b in 0..width {
                    if (v >> b) & 1 == 1 {
                        out[(bitpos >> 3) as usize] |= 1 << (bitpos & 7);
                    }
                    bitpos += 1;
                }
            }
            out
        }

        pub fn unpack_bits(bytes: &[u8], width: u32, n: usize) -> Option<Vec<u64>> {
            let total_bits = n as u64 * width as u64;
            if bytes.len() as u64 != total_bits.div_ceil(8) {
                return None;
            }
            let mut out = Vec::with_capacity(n);
            let mut bitpos = 0u64;
            for _ in 0..n {
                let mut v = 0u64;
                for b in 0..width {
                    if (bytes[(bitpos >> 3) as usize] >> (bitpos & 7)) & 1 == 1 {
                        v |= 1 << b;
                    }
                    bitpos += 1;
                }
                out.push(v);
            }
            Some(out)
        }

        fn frame(min: [u8; 8], deltas: &[u64]) -> Option<Vec<u8>> {
            let width = width_of(deltas.iter().copied().max().unwrap_or(0));
            let packed_len = 9 + (deltas.len() as u64 * width as u64).div_ceil(8);
            if packed_len >= deltas.len() as u64 * 8 {
                return None;
            }
            let mut out = min.to_vec();
            out.push(width as u8);
            out.extend_from_slice(&pack_bits(deltas, width));
            Some(out)
        }

        fn bitpack_i64(v: &[i64]) -> Option<Vec<u8>> {
            let min = *v.iter().min()?;
            let deltas: Vec<u64> = v.iter().map(|&x| (x as i128 - min as i128) as u64).collect();
            frame(min.to_le_bytes(), &deltas)
        }

        fn frame_of_ref_f64(v: &[f64]) -> Option<Vec<u8>> {
            let min = v.iter().copied().reduce(f64::min)?;
            if !min.is_finite() {
                return None;
            }
            let mut deltas = Vec::with_capacity(v.len());
            for &x in v {
                let d = x - min;
                if !(d >= 0.0 && d.fract() == 0.0 && d <= (1u64 << 53) as f64) {
                    return None;
                }
                let du = d as u64;
                if (min + du as f64).to_bits() != x.to_bits() {
                    return None;
                }
                deltas.push(du);
            }
            frame(min.to_bits().to_le_bytes(), &deltas)
        }

        pub fn encode(buf: &ScalarBuf) -> (Codec, Vec<u8>) {
            let packed = match buf {
                ScalarBuf::I64(v) => bitpack_i64(v).map(|b| (Codec::BitPack, b)),
                ScalarBuf::F64(v) => frame_of_ref_f64(v).map(|b| (Codec::FrameOfRef, b)),
                ScalarBuf::Bool(v) if v.len() >= 2 => {
                    let bits: Vec<u64> = v.iter().map(|&b| u64::from(b)).collect();
                    Some((Codec::BitPack, pack_bits(&bits, 1)))
                }
                ScalarBuf::Bool(_) => None,
            };
            packed.unwrap_or_else(|| (Codec::Raw, encode_raw(buf)))
        }
    }

    /// splitmix64's finalizer: the tests' value generator.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The element bits of a buffer: equality that tells `-0.0` from
    /// `0.0` and one NaN payload from another.
    fn bits(buf: &ScalarBuf) -> Vec<u64> {
        match buf {
            ScalarBuf::F64(v) => v.iter().map(|x| x.to_bits()).collect(),
            ScalarBuf::I64(v) => v.iter().map(|&x| x as u64).collect(),
            ScalarBuf::Bool(v) => v.iter().map(|&b| u64::from(b)).collect(),
        }
    }

    /// `encode` chooses the reference's codec and writes its bytes, and
    /// `decode` gives back the same element bits.
    fn assert_matches_reference(buf: &ScalarBuf) {
        let (codec, bytes) = encode(buf, true);
        assert_eq!((codec, bytes.clone()), reference::encode(buf));
        let back = decode(codec, buf.kind(), buf.len(), &bytes).expect("own encoding");
        assert_eq!((back.kind(), bits(&back)), (buf.kind(), bits(buf)));
        let (codec, bytes) = encode(buf, false);
        assert_eq!((codec, &bytes), (Codec::Raw, &encode_raw(buf)));
        let back = decode(codec, buf.kind(), buf.len(), &bytes).expect("own raw encoding");
        assert_eq!(bits(&back), bits(buf));
    }

    #[test]
    fn packing_matches_the_bit_at_a_time_reference_at_every_width_and_length() {
        for width in 0..=64u32 {
            for n in 0..=130usize {
                // Unmasked values: only the low `width` bits may land.
                let vals: Vec<u64> = (0..n as u64).map(|k| mix(k << 8 | width as u64)).collect();
                let mut packed = Vec::new();
                pack_bits(vals.iter().copied(), width, &mut packed);
                assert_eq!(packed, reference::pack_bits(&vals, width), "width {width}, n {n}");
                let back: Vec<u64> =
                    unpack_bits(&packed, width, n).expect("exact size").collect();
                assert_eq!(Some(&back), reference::unpack_bits(&packed, width, n).as_ref());
                let masked: Vec<u64> = vals.iter().map(|v| v & low_mask(width)).collect();
                assert_eq!(back, masked, "width {width}, n {n}");
                // One byte more or fewer is not this stream.
                let mut longer = packed.clone();
                longer.push(0);
                assert!(unpack_bits(&longer, width, n).is_none());
                if let Some(shorter) = packed.len().checked_sub(1) {
                    assert!(unpack_bits(&packed[..shorter], width, n).is_none());
                }
            }
        }
    }

    #[test]
    fn edge_chunks_match_the_reference() {
        let two53 = (1u64 << 53) as f64;
        for buf in [
            ScalarBuf::I64(vec![i64::MIN, i64::MAX, 0, -1, 1, i64::MIN, i64::MAX, 7, 8, 9]),
            ScalarBuf::I64((0..40).map(|k| i64::MIN + k).collect()),
            ScalarBuf::I64((0..40).map(|k| i64::MAX - k).collect()),
            ScalarBuf::I64(vec![-3; 33]),
            ScalarBuf::I64(vec![]),
            ScalarBuf::F64((0..40).map(|k| if k == 17 { -0.0 } else { 0.0 }).collect()),
            ScalarBuf::F64(vec![-0.0; 12]),
            ScalarBuf::F64((0..40).map(|k| f64::from_bits(0x7ff8_0000_0000_0000 | k)).collect()),
            ScalarBuf::F64((0..40).map(|k| if k == 3 { f64::NAN } else { k as f64 }).collect()),
            ScalarBuf::F64((0..40).map(|k| if k % 2 == 0 { 0.0 } else { two53 }).collect()),
            ScalarBuf::F64((0..40).map(|k| if k % 2 == 0 { -1.0 } else { two53 }).collect()),
            ScalarBuf::F64((0..40).map(|k| 1e300 + k as f64).collect()),
            ScalarBuf::F64(vec![f64::INFINITY, 1.0, 2.0, 3.0]),
            ScalarBuf::F64(vec![]),
            ScalarBuf::Bool(vec![]),
            ScalarBuf::Bool(vec![true]),
            ScalarBuf::Bool((0..129).map(|k| mix(k) & 1 == 1).collect()),
        ] {
            assert_matches_reference(&buf);
        }
    }

    fn arb_chunk() -> impl Strategy<Value = ScalarBuf> {
        let len = 0usize..200;
        prop_oneof![
            // Integers in a window of any span, anywhere in the range.
            (len.clone(), i64::MIN..i64::MAX, 0u32..65).prop_flat_map(|(n, lo, span_bits)| {
                let room = (i64::MAX as i128 - lo as i128) as u64;
                prop::collection::vec(0u64..u64::MAX, n..=n).prop_map(move |ds| {
                    let at = |d: u64| {
                        (lo as i128 + (d & low_mask(span_bits)).min(room) as i128) as i64
                    };
                    ScalarBuf::I64(ds.iter().map(|&d| at(d)).collect())
                })
            }),
            // Reals: a base plus integral deltas of up to 54 bits, with
            // the odd fractional value, NaN payload or negative zero.
            (len.clone(), -1e6f64..1e6, 0u32..55, 0u64..8).prop_flat_map(|(n, base, bits, odd)| {
                prop::collection::vec(0u64..u64::MAX, n..=n).prop_map(move |ds| {
                    let base = if odd & 1 == 0 { base.trunc() } else { base };
                    let mut v: Vec<f64> =
                        ds.iter().map(|&d| base + (d & low_mask(bits)) as f64).collect();
                    if let Some(x) = v.get_mut(ds.len() / 2) {
                        match odd {
                            2 => *x = -0.0,
                            4 => *x = f64::from_bits(0x7ff0_0000_0000_0001 | ds[0]),
                            6 => *x += 0.5,
                            _ => {}
                        }
                    }
                    ScalarBuf::F64(v)
                })
            }),
            prop::collection::vec(any::<bool>(), len).prop_map(ScalarBuf::Bool),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn generated_chunks_match_the_reference(buf in arb_chunk()) {
            assert_matches_reference(&buf);
        }
    }

    /// FNV-1a of a payload: a digest short enough to pin in a test.
    fn digest(bytes: &[u8]) -> u64 {
        let eat = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, eat)
    }

    #[test]
    fn probe_chunk_payloads_are_the_bytes_the_previous_encoder_wrote() {
        // The benchmark's three codec probes in miniature — non-integral
        // reals, oktas, oktas as reals — with the length and digest of
        // the payload the bit-at-a-time encoder produced for each.
        let n = 4096u64;
        let oktas: Vec<i64> = (0..n).map(|i| (mix(i) % 9) as i64).collect();
        let reals = (0..n).map(|i| 60.0 + (mix(i) >> 11) as f64 / (1u64 << 53) as f64).collect();
        let pinned = [
            (ScalarBuf::F64(reals), Codec::Raw, 32768usize, 0xa0cc_ada4_7b47_734eu64),
            // Frame minimum 0 and 4-bit deltas either way: the same bytes.
            (ScalarBuf::I64(oktas.clone()), Codec::BitPack, 2057, 0x59de_e298_21c7_a08c),
            (
                ScalarBuf::F64(oktas.iter().map(|&o| o as f64).collect()),
                Codec::FrameOfRef,
                2057,
                0x59de_e298_21c7_a08c,
            ),
        ];
        for (buf, codec, len, sum) in &pinned {
            let (got, bytes) = encode(buf, true);
            assert_eq!((got, bytes.len(), digest(&bytes)), (*codec, *len, *sum), "{codec:?}");
            assert_matches_reference(buf);
        }
    }

    #[test]
    fn hostile_element_counts_are_errors_not_aborts() {
        // Width 0: nine bytes claim any number of elements. (8 TB is
        // only refusable where the OS does not hand it out unbacked.)
        let frame = [0u8; 9];
        let refused = Vec::<u8>::new().try_reserve_exact(8 << 40).is_err();
        let counts = [usize::MAX, usize::MAX / 8, 1 << 40];
        let framed = [(Codec::BitPack, ScalarKind::I64), (Codec::FrameOfRef, ScalarKind::F64)];
        for (codec, kind) in framed {
            for &elems in &counts[..2 + usize::from(refused)] {
                let err = decode(codec, kind, elems, &frame).unwrap_err();
                assert!(matches!(err, StoreError::Corrupt(_)), "{elems}: {err}");
            }
        }
        // Raw: `elems * 8` wraps to the (empty) payload's size.
        for kind in [ScalarKind::F64, ScalarKind::I64] {
            let err = decode(Codec::Raw, kind, 1 << 61, &[]).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        }
        // `elems * width` overflows.
        let mut wide = [0u8; 9];
        wide[8] = 64;
        assert!(decode(Codec::BitPack, ScalarKind::I64, usize::MAX, &wide).is_err());
        assert!(decode(Codec::BitPack, ScalarKind::Bool, usize::MAX, &[]).is_err());
    }

    fn roundtrip(buf: ScalarBuf, compress: bool) -> Codec {
        let (codec, bytes) = encode(&buf, compress);
        let back = decode(codec, buf.kind(), buf.len(), &bytes).unwrap();
        assert_eq!(back, buf);
        codec
    }

    #[test]
    fn raw_roundtrips_every_kind() {
        assert_eq!(
            roundtrip(ScalarBuf::F64(vec![1.5, -0.0, 3e300]), false),
            Codec::Raw
        );
        assert_eq!(roundtrip(ScalarBuf::I64(vec![i64::MIN, -1, 0, i64::MAX]), false), Codec::Raw);
        assert_eq!(roundtrip(ScalarBuf::Bool(vec![true, false, true]), false), Codec::Raw);
    }

    #[test]
    fn nan_roundtrips_bit_identically() {
        let buf = ScalarBuf::F64(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let (codec, bytes) = encode(&buf, true);
        assert_eq!(codec, Codec::Raw, "non-finite frames fall back to raw");
        let back = decode(codec, ScalarKind::F64, 3, &bytes).unwrap();
        let ScalarBuf::F64(v) = back else { panic!("kind") };
        assert!(v[0].is_nan());
        assert_eq!(v[1], f64::INFINITY);
        assert_eq!(v[2], f64::NEG_INFINITY);
    }

    #[test]
    fn small_naturals_bitpack() {
        let buf = ScalarBuf::I64((0..512).map(|i| 1000 + (i % 7)).collect());
        let (codec, bytes) = encode(&buf, true);
        assert_eq!(codec, Codec::BitPack);
        assert!(bytes.len() < 512 * 8 / 10, "3-bit deltas shrink ≥ 10×");
        assert_eq!(decode(codec, ScalarKind::I64, 512, &bytes).unwrap(), buf);
    }

    #[test]
    fn negative_spans_still_bitpack() {
        assert_eq!(
            roundtrip(ScalarBuf::I64((-100..100).collect()), true),
            Codec::BitPack
        );
        // Full-range spans cannot shrink; raw fallback.
        assert_eq!(
            roundtrip(ScalarBuf::I64(vec![i64::MIN, i64::MAX, 0, -5]), true),
            Codec::Raw
        );
    }

    #[test]
    fn integral_reals_frame_of_reference() {
        let buf = ScalarBuf::F64((0..256).map(|i| 273.0 + (i % 16) as f64).collect());
        let (codec, bytes) = encode(&buf, true);
        assert_eq!(codec, Codec::FrameOfRef);
        assert!(bytes.len() < 256 * 8 / 4);
        assert_eq!(decode(codec, ScalarKind::F64, 256, &bytes).unwrap(), buf);
    }

    #[test]
    fn fractional_reals_fall_back_to_raw() {
        assert_eq!(roundtrip(ScalarBuf::F64(vec![0.5, 1.25, 2.75, 9.1]), true), Codec::Raw);
    }

    #[test]
    fn bools_pack_to_bits() {
        let buf = ScalarBuf::Bool((0..100).map(|i| i % 3 == 0).collect());
        let (codec, bytes) = encode(&buf, true);
        assert_eq!(codec, Codec::BitPack);
        assert_eq!(bytes.len(), 13);
        assert_eq!(decode(codec, ScalarKind::Bool, 100, &bytes).unwrap(), buf);
    }

    #[test]
    fn constant_chunks_pack_to_almost_nothing() {
        let buf = ScalarBuf::F64(vec![42.0; 4096]);
        let (codec, bytes) = encode(&buf, true);
        assert_eq!(codec, Codec::FrameOfRef);
        assert_eq!(bytes.len(), 9, "width 0: just the frame header");
        assert_eq!(decode(codec, ScalarKind::F64, 4096, &bytes).unwrap(), buf);
    }

    #[test]
    fn corrupt_payloads_are_classified() {
        let (codec, bytes) = encode(&ScalarBuf::I64(vec![1, 2, 3, 4]), true);
        // Truncated payload.
        let err = decode(codec, ScalarKind::I64, 4, &bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        // Wrong element count vs payload.
        assert!(decode(Codec::Raw, ScalarKind::F64, 3, &[0u8; 16]).is_err());
        // Invalid bool byte.
        assert!(decode(Codec::Raw, ScalarKind::Bool, 1, &[7]).is_err());
        // Nonsense width.
        let mut bad = vec![0u8; 9];
        bad[8] = 65;
        assert!(decode(Codec::BitPack, ScalarKind::I64, 0, &bad).is_err());
        // Codec/kind mismatch.
        assert!(decode(Codec::FrameOfRef, ScalarKind::Bool, 1, &[0u8; 10]).is_err());
    }

    #[test]
    fn empty_chunk_roundtrips() {
        assert_eq!(roundtrip(ScalarBuf::F64(vec![]), true), Codec::Raw);
    }
}
