//! Byte views of word slices — where typed memory meets the byte-oriented
//! message layer, and the only `unsafe` in this crate.
//!
//! A view lets [`Comm`](crate::Comm) read and write `f64` / `u64` memory in
//! place. The encoding is native-endian: sender and receiver are ranks of one
//! process, so no byte order ever crosses a boundary. A payload is built and
//! stored as bytes through these views (a scatter copies its runs between a
//! payload and a vector's view), or read back word by word through
//! [`f64s_in`] / [`u64s_in`]; it is never viewed as words, because a
//! `Vec<u8>` is not 8-aligned.

/// Eight-byte plain words: no padding, no invalid bit pattern. Private, so
/// the casts below can rely on these two impls being the only ones.
trait Word: Copy {}
impl Word for f64 {}
impl Word for u64 {}

fn words_as_bytes<T: Word>(words: &[T]) -> &[u8] {
    // SAFETY: `T` is `f64` or `u64`, 8 bytes without padding, so all
    // `size_of_val(words)` bytes behind the pointer are initialised and in the
    // allocation `words` borrows; `u8` has alignment 1; the result shares
    // that borrow for the same lifetime.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

/// The bytes of `vals`, in place.
pub fn f64s_as_bytes(vals: &[f64]) -> &[u8] {
    words_as_bytes(vals)
}

/// The bytes of `words`, in place.
pub fn u64s_as_bytes(words: &[u64]) -> &[u8] {
    words_as_bytes(words)
}

/// The bytes of `vals`, writable in place.
pub fn f64s_as_bytes_mut(vals: &mut [f64]) -> &mut [u8] {
    let len = std::mem::size_of_val(vals);
    // SAFETY: as in `words_as_bytes`; every bit pattern is a valid `f64`, so
    // no write through the view leaves `vals` invalid; the result holds the
    // exclusive borrow of `vals`, so nothing aliases it meanwhile.
    unsafe { std::slice::from_raw_parts_mut(vals.as_mut_ptr().cast(), len) }
}

fn words_in(bytes: &[u8]) -> impl Iterator<Item = [u8; 8]> + '_ {
    let len = bytes.len();
    assert_eq!(
        len % 8,
        0,
        "byte stream of {len} bytes is not a whole number of 8-byte words"
    );
    bytes
        .chunks_exact(8)
        .map(|c| c.try_into().expect("chunk of 8"))
}

/// The `f64`s encoded in `bytes`; panics unless the length is a multiple of 8.
pub fn f64s_in(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    words_in(bytes).map(f64::from_ne_bytes)
}

/// The `u64`s encoded in `bytes`; panics unless the length is a multiple of 8.
pub fn u64s_in(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    words_in(bytes).map(u64::from_ne_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{bytes_to_f64s, f64s_to_bytes};

    /// NaNs with distinct payloads, signed zeros, subnormals, infinities.
    fn awkward() -> Vec<f64> {
        vec![
            1.5,
            -0.0,
            0.0,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfffc_dead_beef_0002),
            f64::from_bits(1),
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ]
    }

    #[test]
    fn empty_slices_view_as_empty() {
        assert!(f64s_as_bytes(&[]).is_empty());
        assert!(u64s_as_bytes(&[]).is_empty());
        assert!(f64s_as_bytes_mut(&mut []).is_empty());
        assert_eq!(f64s_in(&[]).count(), 0);
    }

    #[test]
    fn views_are_eight_bytes_per_word_and_match_the_copying_codec() {
        let v = awkward();
        assert_eq!(f64s_as_bytes(&v).len(), 8 * v.len());
        assert_eq!(f64s_to_bytes(&v), f64s_as_bytes(&v));
        let w = [0u64, 1, u64::MAX, 0x0102_0304_0506_0708];
        assert_eq!(u64s_as_bytes(&w).len(), 32);
        assert_eq!(u64s_in(u64s_as_bytes(&w)).collect::<Vec<_>>(), w);
    }

    #[test]
    #[cfg(target_endian = "little")]
    fn views_equal_the_little_endian_encoding_on_little_endian_targets() {
        let v = awkward();
        let le: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(f64s_as_bytes(&v), le);
        assert_eq!(f64s_to_bytes(&v), le);
    }

    #[test]
    fn every_bit_pattern_round_trips() {
        let v = awkward();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bytes_to_f64s(&f64s_to_bytes(&v))), bits(&v));
        // Reading at an odd address is what a payload `Vec<u8>` may ask for.
        let mut shifted = vec![0u8];
        shifted.extend_from_slice(f64s_as_bytes(&v));
        assert_eq!(bits(&f64s_in(&shifted[1..]).collect::<Vec<_>>()), bits(&v));
    }

    #[test]
    fn writes_through_the_mutable_view_land_in_the_floats() {
        let src = awkward();
        let mut dst = vec![0.0; src.len()];
        f64s_as_bytes_mut(&mut dst).copy_from_slice(f64s_as_bytes(&src));
        for (d, s) in dst.iter().zip(&src) {
            assert_eq!(d.to_bits(), s.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "byte stream of 7 bytes is not a whole number of 8-byte words")]
    fn reader_names_a_ragged_length() {
        let _ = f64s_in(&[0u8; 7]);
    }
}
