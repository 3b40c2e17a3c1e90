//! Property-based laws for the v3 journal frame codec.
//!
//! The journal's durability story reduces to three laws about
//! [`pcg_core::frame`]:
//!
//! 1. **Round trip**: any sequence of (cell, payload) frames encodes
//!    and decodes to exactly itself, ending in a clean EOF.
//! 2. **Mutation rejection**: flipping any single bit of an encoded
//!    frame makes decoding fail — never a silently different frame,
//!    never a clean EOF.
//! 3. **Truncation classification**: cutting an encoded stream at any
//!    byte yields a strict prefix of the original frames followed by a
//!    clean EOF (cut exactly on a boundary) or a torn-tail error —
//!    never a corrupted frame, never a CRC mismatch blamed on intact
//!    bytes.
//!
//! Plus the byte-codec law: every primitive written by `ByteWriter` is
//! read back bit-exactly by `ByteReader`; and the checksum law: the
//! table-driven `crc32` equals a plain bytewise CRC-32 on any input,
//! whole or chained through `crc32_extend` at any split.

use pcg_core::frame::{
    crc32, crc32_extend, crc32_finish, crc32_start, decode_frame, encode_frame, encode_frame_into,
    ByteReader, ByteWriter, Frame, FrameError,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Decode every frame in `buf`, stopping at EOF or the first error.
fn decode_all(buf: &[u8]) -> (Vec<(u64, Vec<u8>)>, Option<FrameError>) {
    let mut frames = Vec::new();
    let mut offset = 0;
    loop {
        match decode_frame(buf, offset) {
            None => return (frames, None),
            Some(Ok(Frame { cell, payload, end })) => {
                frames.push((cell, payload.to_vec()));
                offset = end;
            }
            Some(Err(e)) => return (frames, Some(e)),
        }
    }
}

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`) one bit at a
/// time: the definition, with no tables to get wrong.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crc32_equals_the_bytewise_reference(
        seed in vec(0u8..=255, 0..4112),
        start in 0usize..16,
        len in 0usize..=4096,
        split in 0usize..=4096,
    ) {
        // A random start offset shifts the 16-byte blocks against the
        // input, so every alignment of block loop and tail is covered.
        let start = start.min(seed.len());
        let data = &seed[start..(start + len).min(seed.len())];
        let want = crc32_bitwise(data);
        prop_assert_eq!(crc32(data), want);
        let (a, b) = data.split_at(split.min(data.len()));
        prop_assert_eq!(crc32_finish(crc32_extend(crc32_extend(crc32_start(), a), b)), want);
    }

    #[test]
    fn law1_frame_sequences_roundtrip(
        cells in vec(0u64..=u64::MAX, 1..6),
        seed in vec(0u8..=255, 0..400),
    ) {
        // One frame per generated cell; payloads are distinct slices of
        // the seed bytes so lengths and contents vary independently.
        let originals: Vec<(u64, Vec<u8>)> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let lo = (i * 37) % (seed.len() + 1);
                let hi = (lo + (i * 53) % 97).min(seed.len());
                (c, seed[lo..hi].to_vec())
            })
            .collect();
        let mut buf = Vec::new();
        for (cell, payload) in &originals {
            encode_frame_into(&mut buf, *cell, payload);
        }
        let (decoded, err) = decode_all(&buf);
        prop_assert!(err.is_none(), "clean stream must decode cleanly: {err:?}");
        prop_assert_eq!(decoded, originals);
    }

    #[test]
    fn law2_single_bit_flips_never_decode(
        cell in 0u64..=u64::MAX,
        payload in vec(0u8..=255, 0..200),
        flip in 0usize..100_000,
    ) {
        let buf = encode_frame(cell, &payload);
        let bit = flip % (buf.len() * 8);
        let mut corrupt = buf.clone();
        corrupt[bit / 8] ^= 1 << (bit % 8);
        match decode_frame(&corrupt, 0) {
            Some(Err(_)) => {}
            None => prop_assert!(false, "bit {bit}: corruption read as clean EOF"),
            Some(Ok(f)) => prop_assert!(
                false,
                "bit {bit}: corrupt frame decoded as cell {} with {} payload bytes",
                f.cell,
                f.payload.len(),
            ),
        }
    }

    #[test]
    fn law3_truncation_yields_a_clean_prefix(
        cells in vec(0u64..=u64::MAX, 1..5),
        seed in vec(0u8..=255, 0..300),
        cut_seed in 0usize..100_000,
    ) {
        let originals: Vec<(u64, Vec<u8>)> = cells
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let lo = (i * 29) % (seed.len() + 1);
                let hi = (lo + (i * 41) % 83).min(seed.len());
                (c, seed[lo..hi].to_vec())
            })
            .collect();
        let mut buf = Vec::new();
        for (cell, payload) in &originals {
            encode_frame_into(&mut buf, *cell, payload);
        }
        let cut = cut_seed % (buf.len() + 1);
        let (decoded, err) = decode_all(&buf[..cut]);
        prop_assert!(decoded.len() <= originals.len());
        prop_assert_eq!(
            decoded.as_slice(),
            &originals[..decoded.len()],
            "decoded frames must be a strict prefix of the originals"
        );
        match err {
            None => {}
            Some(FrameError::TornTail { .. }) => {}
            Some(e @ FrameError::BadCrc { .. }) => {
                prop_assert!(false, "truncation at {cut} misclassified as corruption: {e}")
            }
        }
    }

    #[test]
    fn byte_codec_roundtrips_primitives(
        words in vec(0u64..=u64::MAX, 0..20),
        flags in vec(0u8..2, 0..20),
        text in "[ -~]{0,60}",
    ) {
        let mut w = ByteWriter::new();
        w.put_len(words.len());
        for &x in &words {
            w.put_u64(x);
            w.put_f64(f64::from_bits(x)); // includes NaNs and infinities
            w.put_u32(x as u32);
        }
        w.put_len(flags.len());
        for &f in &flags {
            w.put_bool(f == 1);
        }
        w.put_str(&text);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        let n = r.len(16).unwrap();
        prop_assert_eq!(n, words.len());
        for &x in &words {
            prop_assert_eq!(r.u64().unwrap(), x);
            prop_assert_eq!(r.f64().unwrap().to_bits(), f64::from_bits(x).to_bits());
            prop_assert_eq!(r.u32().unwrap(), x as u32);
        }
        let n = r.len(1).unwrap();
        prop_assert_eq!(n, flags.len());
        for &f in &flags {
            prop_assert_eq!(r.bool().unwrap(), f == 1);
        }
        prop_assert_eq!(r.str().unwrap(), text.as_str());
        prop_assert!(r.is_exhausted());
    }
}
