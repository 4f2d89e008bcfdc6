//! A small self-contained binary wire format.
//!
//! The outsourcing protocol must ship schemas, ciphertexts and
//! trapdoors as bytes — what Eve sees *is* these bytes, so the format
//! is part of the security model (it contains no plaintext beyond what
//! the scheme deliberately reveals). The workspace's dependency policy
//! admits `serde` (the framework) but no serializer crate, so this
//! module provides the codec: length-prefixed, little-endian,
//! versioned by construction (each message starts with a tag byte at
//! the protocol layer).
//!
//! Varints are deliberately avoided: fixed-width integers keep message
//! sizes independent of the values they carry, which matters when the
//! bytes are adversary-visible.
//!
//! A list is a `u64` length prefix and its elements, coded one by one
//! ([`WireEncode::encode_slice`], [`WireDecode::decode_vec`]). That is
//! for structured elements; byte strings — every `Vec<u8>`: cipher
//! words, trapdoor fields, index labels, log images, replication
//! chunks — cross as the length prefix plus one copy, because `u8`
//! overrides both methods. The one copy writes exactly the bytes, and
//! refuses truncated input with exactly the errors, of the
//! element-by-element coding (`wire::tests` pins both against a
//! per-element reference), so no byte on the wire, on disk or in a
//! replication stream depends on which path produced it.

use dbph_crypto::sha256::{Sha256, DIGEST_LEN};

use crate::arena::WordArena;
use crate::error::PhError;
use crate::swp_ph::ColumnarTable;

/// Serializes a value into a byte buffer.
pub trait WireEncode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Appends the elements of a list, without its length prefix: one
    /// [`Self::encode`] each. `u8` overrides it with one copy.
    fn encode_slice(items: &[Self], buf: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(buf);
        }
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Deserializes a value from a [`Reader`].
pub trait WireDecode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] on truncated or malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError>;

    /// Reads the `len` elements of a list whose length prefix was
    /// already read and bounded: one [`Self::decode`] each. `u8`
    /// overrides it with one copy.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] on truncated or malformed input.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, PhError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }

    /// Convenience: decodes a whole buffer, requiring full consumption.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] on malformed input or trailing bytes.
    fn from_wire(bytes: &[u8]) -> Result<Self, PhError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// A cursor over received bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PhError> {
        if self.remaining() < n {
            return Err(PhError::Wire(format!(
                "truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    /// Returns [`PhError::Wire`] when trailing bytes remain.
    pub fn expect_end(&self) -> Result<(), PhError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PhError::Wire(format!(
                "{} trailing byte(s)",
                self.remaining()
            )))
        }
    }
}

// --- primitive impls -------------------------------------------------------

impl WireEncode for u8 {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn encode_slice(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
}

impl WireDecode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(r.take(1)?[0])
    }

    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, PhError> {
        Ok(r.take(len)?.to_vec())
    }
}

macro_rules! wire_int {
    ($ty:ty) => {
        impl WireEncode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                let mut arr = [0u8; std::mem::size_of::<$ty>()];
                arr.copy_from_slice(bytes);
                Ok(<$ty>::from_le_bytes(arr))
            }
        }
    };
}

wire_int!(u16);
wire_int!(u32);
wire_int!(u64);
wire_int!(i64);

impl WireEncode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(PhError::Wire(format!("invalid bool byte {b}"))),
        }
    }
}

impl WireEncode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| PhError::Wire(format!("usize overflow: {v}")))
    }
}

impl WireEncode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| PhError::Wire("invalid UTF-8".into()))
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.len().encode(buf);
        T::encode_slice(self, buf);
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let len = bounded_len(r)?;
        T::decode_vec(r, len)
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(PhError::Wire(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Exact encoded size of one document `(id, words)` as an element of
/// an [`crate::swp_ph::EncryptedTable`]'s `docs` vector, given the
/// stored byte length of each word.
///
/// This is *the* cost model for chunk sizing
/// ([`crate::storage::ShardedTable::fetch_chunk`] budgets against the
/// transport's frame cap with it), so it lives here next to the codec
/// it mirrors: a document encodes as a fixed-width `u64` id (8), a
/// `u64` word count (8), and per word a `u64` length prefix (8) plus
/// the bytes — fixed-width throughout, no varints, so the size depends
/// only on the word lengths. `wire::tests::doc_cost_matches_encoder`
/// pins it to the real encoder, irregular-length words included.
#[must_use]
pub fn encoded_doc_len(word_lens: impl Iterator<Item = usize>) -> u64 {
    16 + word_lens.map(|len| 8 + len as u64).sum::<u64>()
}

/// Seals `body` in the envelope snapshots and the durable manifest
/// share: `magic(8) ‖ u16 version ‖ body ‖ SHA-256`, the digest over
/// everything before it.
pub(crate) fn seal(magic: &[u8; 8], version: u16, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = magic.to_vec();
    version.encode(&mut out);
    body(&mut out);
    let digest = Sha256::digest(&out);
    out.extend_from_slice(&digest);
    out
}

/// Opens a [`seal`]ed blob, checking its length, digest, magic and
/// version in that order, and returns a reader over the body. The
/// error names `noun` ("snapshot", "manifest"); the caller wraps it in
/// its own [`PhError`] variant.
pub(crate) fn unseal<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u16,
    noun: &str,
) -> Result<Reader<'a>, String> {
    if bytes.len() < magic.len() + 2 + DIGEST_LEN {
        return Err(format!("{noun} too short"));
    }
    let (sealed, digest) = bytes.split_at(bytes.len() - DIGEST_LEN);
    if Sha256::digest(sealed) != *digest {
        return Err(format!("{noun} checksum mismatch"));
    }
    let (head, body) = sealed.split_at(magic.len() + 2);
    if head[..magic.len()] != magic[..] {
        return Err(format!("bad {noun} magic"));
    }
    let found = u16::from_le_bytes([head[8], head[9]]);
    if found != version {
        return Err(format!("unsupported {noun} version {found}"));
    }
    Ok(Reader::new(body))
}

/// Appends document `i` of `arena` as one element of a wire document
/// list: the bytes the boxed `(u64, Vec<CipherWord>)` encoder writes
/// for the same document. With [`decode_docs_into`] it is the one
/// codec between arenas and document lists; `CreateTable` and the
/// durable log's snapshot chunks both use it.
pub(crate) fn encode_arena_doc(arena: &WordArena, i: usize, buf: &mut Vec<u8>) {
    arena.doc_id(i).encode(buf);
    let range = arena.word_range(i);
    range.len().encode(buf);
    for w in range {
        let word = arena.word(w);
        word.len().encode(buf);
        buf.extend_from_slice(word);
    }
}

/// Decodes a wire document list (`Vec<(u64, Vec<CipherWord>)>`)
/// straight into `arena`: word bytes go from the frame into the
/// columnar slots without a boxed document in between. It refuses
/// what the boxed decoder refuses, with the same messages.
pub(crate) fn decode_docs_into(r: &mut Reader<'_>, arena: &mut WordArena) -> Result<(), PhError> {
    let count = bounded_len(r)?;
    // A document takes at least 16 bytes (id and word count), so a
    // hostile count reserves no more than the frame could fill.
    arena.reserve(count.min(r.remaining() / 16), r.remaining());
    for _ in 0..count {
        let doc_id = u64::decode(r)?;
        for _ in 0..bounded_len(r)? {
            let len = bounded_len(r)?;
            arena.push_word(r.take(len)?);
        }
        arena.seal_doc(doc_id);
    }
    Ok(())
}

/// A `Vec` length prefix, refused when it exceeds the bytes that
/// remain: a guard against length bombs, since each element needs at
/// least one byte.
fn bounded_len(r: &mut Reader<'_>) -> Result<usize, PhError> {
    let len = usize::decode(r)?;
    if len > r.remaining() {
        return Err(PhError::Wire(format!(
            "length {len} exceeds remaining input"
        )));
    }
    Ok(len)
}

// --- domain impls ----------------------------------------------------------

impl WireEncode for dbph_swp::SwpParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.word_len.encode(buf);
        self.check_len.encode(buf);
        self.check_bits.encode(buf);
    }
}

impl WireDecode for dbph_swp::SwpParams {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let word_len = usize::decode(r)?;
        let check_len = usize::decode(r)?;
        let check_bits = u32::decode(r)?;
        dbph_swp::SwpParams::new(word_len, check_len, check_bits).map_err(PhError::from)
    }
}

impl WireEncode for dbph_swp::CipherWord {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
}

impl WireDecode for dbph_swp::CipherWord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(dbph_swp::CipherWord(Vec::<u8>::decode(r)?))
    }
}

impl WireEncode for crate::swp_ph::EncryptedTable {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.params.encode(buf);
        self.docs.encode(buf);
        self.next_doc_id.encode(buf);
    }
}

impl WireDecode for crate::swp_ph::EncryptedTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        Ok(crate::swp_ph::EncryptedTable {
            params: dbph_swp::SwpParams::decode(r)?,
            docs: Vec::decode(r)?,
            next_doc_id: u64::decode(r)?,
        })
    }
}

impl WireEncode for ColumnarTable {
    fn encode(&self, buf: &mut Vec<u8>) {
        let docs = &self.docs;
        buf.reserve(40 + 16 * docs.len() + 8 * docs.word_count() + docs.ciphertext_bytes());
        self.params.encode(buf);
        docs.len().encode(buf);
        for i in 0..docs.len() {
            encode_arena_doc(docs, i, buf);
        }
        self.next_doc_id.encode(buf);
    }
}

impl WireDecode for ColumnarTable {
    fn decode(r: &mut Reader<'_>) -> Result<Self, PhError> {
        let params = dbph_swp::SwpParams::decode(r)?;
        let mut docs = WordArena::new(params.word_len);
        decode_docs_into(r, &mut docs)?;
        Ok(ColumnarTable {
            params,
            docs,
            next_doc_id: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xABCDu16);
        roundtrip(0xDEADBEEFu32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(12345usize);
        roundtrip(String::from("héllo wörld"));
        roundtrip(String::new());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u8, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![String::from("a"), String::from("bb")]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(42u32));
        roundtrip((7u64, String::from("pair")));
        roundtrip(vec![(1u64, vec![1u8, 2]), (2u64, vec![])]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = 0xDEADBEEFu32.to_wire();
        assert!(u32::from_wire(&bytes[..3]).is_err());
        let bytes = String::from("hello").to_wire();
        assert!(String::from_wire(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 7u32.to_wire();
        bytes.push(0);
        assert!(matches!(u32::from_wire(&bytes), Err(PhError::Wire(_))));
    }

    #[test]
    fn invalid_enum_bytes_rejected() {
        assert!(bool::from_wire(&[2]).is_err());
        assert!(Option::<u8>::from_wire(&[9, 1]).is_err());
    }

    #[test]
    fn length_bomb_rejected() {
        // A Vec<u64> claiming 2^60 elements in a 16-byte message must
        // fail fast, not attempt a huge allocation.
        let mut bytes = Vec::new();
        (1u64 << 60).encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(Vec::<u64>::from_wire(&bytes).is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut bytes = Vec::new();
        2usize.encode(&mut bytes);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(String::from_wire(&bytes).is_err());
    }

    #[test]
    fn swp_params_roundtrip_and_validation() {
        let p = dbph_swp::SwpParams::new(13, 4, 32).unwrap();
        roundtrip(p);
        // Decoding must re-validate: corrupt check_bits.
        let mut bytes = p.to_wire();
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&999u32.to_le_bytes());
        assert!(dbph_swp::SwpParams::from_wire(&bytes).is_err());
    }

    #[test]
    fn encrypted_table_roundtrip() {
        let table = crate::swp_ph::EncryptedTable {
            params: dbph_swp::SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![
                (
                    0,
                    vec![
                        dbph_swp::CipherWord(vec![1; 13]),
                        dbph_swp::CipherWord(vec![2; 13]),
                    ],
                ),
                (1, vec![dbph_swp::CipherWord(vec![3; 13])]),
            ],
            next_doc_id: 2,
        };
        roundtrip(table);
    }

    #[test]
    fn doc_cost_matches_encoder() {
        // The chunk-sizing cost model must equal the real encoder's
        // per-document size delta — including empty documents and
        // irregular-length words (side lists longer or shorter than
        // the slot width).
        let docs: Vec<(u64, Vec<dbph_swp::CipherWord>)> = vec![
            (0, vec![]),
            (1, vec![dbph_swp::CipherWord(vec![1; 13])]),
            (
                7,
                vec![
                    dbph_swp::CipherWord(vec![2; 13]),
                    dbph_swp::CipherWord(vec![3; 5]), // irregular: short
                    dbph_swp::CipherWord(vec![4; 250]), // irregular: long
                    dbph_swp::CipherWord(vec![]),     // irregular: empty
                ],
            ),
        ];
        let mut prev = Vec::<(u64, Vec<dbph_swp::CipherWord>)>::new()
            .to_wire()
            .len();
        let mut acc = Vec::new();
        for doc in docs {
            let predicted = encoded_doc_len(doc.1.iter().map(|w| w.0.len()));
            acc.push(doc);
            let now = acc.to_wire().len();
            assert_eq!(predicted, (now - prev) as u64);
            prev = now;
        }
    }

    /// The element-by-element byte-string encoder: a `u64` length,
    /// then one byte at a time.
    fn reference_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        for &b in bytes {
            buf.push(b);
        }
    }

    /// The element-by-element byte-string decoder: the bounded length
    /// prefix, then one `u8::decode` per byte.
    fn reference_decode(r: &mut Reader<'_>) -> Result<Vec<u8>, PhError> {
        let len = bounded_len(r)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(u8::decode(r)?);
        }
        Ok(out)
    }

    /// A document list read with [`reference_decode`] for every word.
    fn reference_decode_docs(r: &mut Reader<'_>) -> Result<(), PhError> {
        for _ in 0..bounded_len(r)? {
            u64::decode(r)?;
            for _ in 0..bounded_len(r)? {
                reference_decode(r)?;
            }
        }
        Ok(())
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn byte_strings_encode_as_the_element_wise_reference() {
        for len in (0..=70).chain([4_096, 2 << 20]) {
            let bytes = patterned(len);
            let mut expected = Vec::new();
            reference_bytes(&bytes, &mut expected);
            let wire = bytes.to_wire();
            assert_eq!(wire, expected, "length {len}");
            assert_eq!(Vec::<u8>::from_wire(&wire).unwrap(), bytes, "length {len}");
            let mut r = Reader::new(&wire);
            assert_eq!(reference_decode(&mut r).unwrap(), bytes, "length {len}");
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn truncated_byte_strings_fail_as_the_element_wise_reference() {
        let wire = patterned(40).to_wire();
        for cut in 0..wire.len() {
            let got = Vec::<u8>::from_wire(&wire[..cut]).unwrap_err();
            let expected = reference_decode(&mut Reader::new(&wire[..cut])).unwrap_err();
            assert_eq!(got, expected, "cut at {cut}");
        }
        // The two shapes of refusal, as text.
        assert_eq!(
            Vec::<u8>::from_wire(&wire[..3]).unwrap_err(),
            PhError::Wire("truncated: wanted 8 bytes at offset 0, have 3".into())
        );
        assert_eq!(
            Vec::<u8>::from_wire(&wire[..13]).unwrap_err(),
            PhError::Wire("length 40 exceeds remaining input".into())
        );
        // Inside a structure, a cut byte string is refused with its
        // own offset.
        let word = dbph_swp::CipherWord(patterned(13));
        let doc = vec![(9u64, vec![word.clone(), word])].to_wire();
        for cut in 0..doc.len() {
            let got = Vec::<(u64, Vec<dbph_swp::CipherWord>)>::from_wire(&doc[..cut]).unwrap_err();
            let expected = reference_decode_docs(&mut Reader::new(&doc[..cut])).unwrap_err();
            assert_eq!(got, expected, "cut at {cut}");
        }
    }

    #[test]
    fn byte_carrying_messages_roundtrip_as_the_reference() {
        let word = dbph_swp::CipherWord(patterned(13));
        let mut expected = Vec::new();
        reference_bytes(&word.0, &mut expected);
        assert_eq!(word.to_wire(), expected);
        roundtrip(word);

        let trapdoor = crate::protocol::WireTrapdoor {
            attr: 2,
            target: patterned(13),
            check_key: patterned(32),
        };
        let mut expected = vec![2];
        reference_bytes(&trapdoor.target, &mut expected);
        reference_bytes(&trapdoor.check_key, &mut expected);
        assert_eq!(trapdoor.to_wire(), expected);
        roundtrip(trapdoor);

        let chunk = crate::protocol::ServerResponse::ReplRecords {
            records: patterned(1_650),
            next_offset: 0x0102_0304_0506,
        };
        let mut expected = vec![6];
        reference_bytes(&patterned(1_650), &mut expected);
        expected.extend_from_slice(&0x0102_0304_0506u64.to_le_bytes());
        assert_eq!(chunk.to_wire(), expected);
        roundtrip(chunk);

        let label = patterned(32);
        let image: crate::durable::IndexImageWire = vec![
            (
                String::from("Emp"),
                vec![((1, label.clone()), (7, vec![3, 5]))],
            ),
            (String::from("Empty"), vec![]),
        ];
        let mut expected = Vec::new();
        expected.extend_from_slice(&2u64.to_le_bytes());
        String::from("Emp").encode(&mut expected);
        expected.extend_from_slice(&1u64.to_le_bytes());
        expected.push(1);
        reference_bytes(&label, &mut expected);
        for v in [7u64, 2, 3, 5] {
            expected.extend_from_slice(&v.to_le_bytes());
        }
        String::from("Empty").encode(&mut expected);
        expected.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(image.to_wire(), expected);
        roundtrip(image);
    }

    #[test]
    fn fixed_width_integers_hide_magnitude() {
        // Message sizes must not depend on encoded values.
        assert_eq!(1u64.to_wire().len(), u64::MAX.to_wire().len());
        assert_eq!((-1i64).to_wire().len(), 0i64.to_wire().len());
    }
}
