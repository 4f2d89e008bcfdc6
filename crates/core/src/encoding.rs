//! The §3 attribute-word encoding.
//!
//! The paper maps a tuple to a *document*: one fixed-length word per
//! attribute, where each word is the attribute value padded to the
//! global width and suffixed with an attribute identifier:
//!
//! ```text
//! ⟨name:"Montgomery", dept:"HR", sal:7500⟩ ↦
//!   {"MontgomeryN", "HR########D", "7500######S"}
//! ```
//!
//! The paper's `'#'` padding is **ambiguous** when a value may itself
//! end in `'#'` (or when two values differ only in trailing padding),
//! so the production codec here prepends a 2-byte length to restore
//! injectivity:
//!
//! ```text
//! word := value_len:u16_be ‖ value_bytes ‖ '#'-padding ‖ attr_index:u8
//! ```
//!
//! The word length is therefore `2 + max_encoded_width + 1`, the
//! paper's "length of the longest attribute value plus the length of an
//! attribute identifier" plus two framing bytes. [`paper_style`]
//! reproduces the paper's literal rendering for the worked example and
//! documentation.

use dbph_relation::{Query, Schema, Value};
use dbph_swp::{SwpParams, Word};

use crate::error::PhError;

/// The padding byte, matching the paper's `'#'`.
pub const PAD: u8 = b'#';

/// Bytes of framing added to each value: 2-byte length prefix plus the
/// 1-byte attribute index.
pub const FRAMING: usize = 3;

/// Encodes attribute values of one schema into fixed-length words and
/// back.
#[derive(Debug, Clone)]
pub struct WordCodec {
    schema: Schema,
    word_len: usize,
}

impl WordCodec {
    /// Builds a codec for `schema`. The word length is fixed by the
    /// widest attribute, as §3 prescribes.
    #[must_use]
    pub fn new(schema: Schema) -> Self {
        let word_len = schema.max_encoded_width() + FRAMING;
        WordCodec { schema, word_len }
    }

    /// The schema this codec encodes.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The fixed word length in bytes.
    #[must_use]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// Default SWP parameters for this codec's word length.
    ///
    /// # Errors
    /// Fails only for degenerate schemas whose words are too short for
    /// the default 4-byte check block.
    pub fn swp_params(&self) -> Result<SwpParams, PhError> {
        SwpParams::for_word_len(self.word_len).map_err(PhError::from)
    }

    /// [`encode_word`] at this codec's fixed width, with its errors.
    pub fn encode(&self, attr_index: usize, value: &Value) -> Result<Word, PhError> {
        encode_word(&self.schema, self.word_len, attr_index, value)
    }

    /// [`decode_word`] at this codec's fixed width, with its errors.
    pub fn decode(&self, word: &Word) -> Result<(usize, Value), PhError> {
        decode_word(&self.schema, self.word_len, word)
    }

    /// Encodes each attribute of a tuple, in attribute order — the
    /// paper's tuple → document map.
    ///
    /// # Errors
    /// Propagates per-attribute encoding failures.
    pub fn encode_tuple(&self, tuple: &dbph_relation::Tuple) -> Result<Vec<Word>, PhError> {
        tuple
            .values()
            .iter()
            .enumerate()
            .map(|(i, v)| self.encode(i, v))
            .collect()
    }

    /// Decodes a document (word list in attribute order) back to a
    /// tuple.
    ///
    /// # Errors
    /// Fails on malformed words, out-of-order attribute indices, or
    /// arity mismatches.
    pub fn decode_tuple(&self, words: &[Word]) -> Result<dbph_relation::Tuple, PhError> {
        if words.len() != self.schema.arity() {
            return Err(PhError::CorruptCiphertext(format!(
                "document has {} words, schema arity is {}",
                words.len(),
                self.schema.arity()
            )));
        }
        let mut values = Vec::with_capacity(words.len());
        for (expected_index, word) in words.iter().enumerate() {
            let (attr_index, value) = self.decode(word)?;
            if attr_index != expected_index {
                return Err(PhError::CorruptCiphertext(format!(
                    "word {expected_index} carries attribute index {attr_index}"
                )));
            }
            values.push(value);
        }
        Ok(dbph_relation::Tuple::new(values))
    }

    /// Encodes each term of an exact-select conjunction as the word
    /// its `⟨a:v⟩` would be stored as, paired with the attribute index
    /// `a` — the word position the term can match at.
    ///
    /// # Errors
    /// Fails when the query does not bind against the schema.
    pub fn encode_query_terms(&self, query: &Query) -> Result<Vec<(u8, Word)>, PhError> {
        let indices = query.bind(&self.schema)?;
        query
            .terms()
            .iter()
            .zip(indices)
            .map(|(term, i)| {
                let attr = u8::try_from(i).expect("a schema holds at most 255 attributes");
                Ok((attr, self.encode(i, &term.value)?))
            })
            .collect()
    }
}

/// Encodes `(attribute index, value)` as the `word_len`-byte word
/// `len ‖ value ‖ '#'-padding ‖ attr_index`. [`WordCodec`] calls it at
/// its one fixed width; the paper's variable-width scheme (in
/// `dbph-baselines`) at each attribute's own width.
///
/// # Errors
/// Fails if the attribute index is out of range or the value does not
/// fit the attribute's declared width.
pub fn encode_word(
    schema: &Schema,
    word_len: usize,
    attr_index: usize,
    value: &Value,
) -> Result<Word, PhError> {
    let attr = schema.attributes().get(attr_index).ok_or_else(|| {
        PhError::Relation(dbph_relation::RelationError::UnknownAttribute(format!(
            "index {attr_index}"
        )))
    })?;
    value.check_type(&attr.ty, &attr.name)?;

    let bytes = value.encode();
    debug_assert!(bytes.len() <= word_len - FRAMING);
    let mut out = Vec::with_capacity(word_len);
    out.extend_from_slice(&(bytes.len() as u16).to_be_bytes());
    out.extend_from_slice(&bytes);
    out.resize(word_len - 1, PAD);
    out.push(attr_index as u8);
    Ok(Word::from_bytes_unchecked(out))
}

/// Decodes a `word_len`-byte word made by [`encode_word`] back to
/// `(attribute index, value)`.
///
/// # Errors
/// Returns [`PhError::CorruptCiphertext`] on malformed framing.
pub fn decode_word(
    schema: &Schema,
    word_len: usize,
    word: &Word,
) -> Result<(usize, Value), PhError> {
    let bytes = word.as_bytes();
    if bytes.len() != word_len {
        return Err(PhError::CorruptCiphertext(format!(
            "word length {} != {word_len}",
            bytes.len()
        )));
    }
    let attr_index = bytes[word_len - 1] as usize;
    let attr = schema.attributes().get(attr_index).ok_or_else(|| {
        PhError::CorruptCiphertext(format!("attribute index {attr_index} out of range"))
    })?;
    let value_len = u16::from_be_bytes([bytes[0], bytes[1]]) as usize;
    if value_len > word_len - FRAMING {
        return Err(PhError::CorruptCiphertext(format!(
            "value length {value_len} exceeds word capacity"
        )));
    }
    let value = Value::decode(&attr.ty, &bytes[2..2 + value_len])
        .map_err(|e| PhError::CorruptCiphertext(e.to_string()))?;
    Ok((attr_index, value))
}

/// The paper's literal (ambiguous) rendering of a word:
/// `value ‖ '#'-padding ‖ single-letter-id`, e.g. `"MontgomeryN"`.
/// Used by the E6 worked-example demo and documentation; the production
/// codec uses the injective framing above.
#[must_use]
pub fn paper_style(value: &str, width: usize, attr_letter: char) -> String {
    let mut s = String::with_capacity(width + 1);
    s.push_str(value);
    while s.len() < width {
        s.push('#');
    }
    s.push(attr_letter);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbph_relation::schema::emp_schema;
    use dbph_relation::tuple;

    fn codec() -> WordCodec {
        WordCodec::new(emp_schema())
    }

    #[test]
    fn word_len_follows_widest_attribute() {
        // Emp's widest attribute is name:STRING(10) → 10 + 3.
        assert_eq!(codec().word_len(), 13);
    }

    #[test]
    fn encode_decode_roundtrip_all_attributes() {
        let c = codec();
        let cases = [
            (0usize, Value::str("Montgomery")),
            (0, Value::str("")),
            (0, Value::str("x")),
            (1, Value::str("HR")),
            (2, Value::int(7500)),
            (2, Value::int(-1)),
            (2, Value::int(i64::MIN)),
        ];
        for (i, v) in cases {
            let w = c.encode(i, &v).unwrap();
            assert_eq!(w.len(), c.word_len());
            assert_eq!(c.decode(&w).unwrap(), (i, v));
        }
    }

    #[test]
    fn encoding_is_injective_for_hash_suffixed_values() {
        // The ambiguity the paper's '#' padding has and ours must not:
        // "ab" vs "ab#" vs "ab##".
        let c = codec();
        let w1 = c.encode(0, &Value::str("ab")).unwrap();
        let w2 = c.encode(0, &Value::str("ab#")).unwrap();
        let w3 = c.encode(0, &Value::str("ab##")).unwrap();
        assert_ne!(w1, w2);
        assert_ne!(w2, w3);
        assert_ne!(w1, w3);
        assert_eq!(c.decode(&w2).unwrap().1, Value::str("ab#"));
    }

    #[test]
    fn same_value_different_attribute_differs() {
        let c = codec();
        let w_name = c.encode(0, &Value::str("HR")).unwrap();
        let w_dept = c.encode(1, &Value::str("HR")).unwrap();
        assert_ne!(w_name, w_dept, "attribute id must separate columns");
    }

    #[test]
    fn encode_rejects_type_violations() {
        let c = codec();
        assert!(c.encode(2, &Value::str("x")).is_err());
        assert!(c.encode(1, &Value::str("TOOLONG")).is_err());
        assert!(c.encode(9, &Value::int(1)).is_err());
    }

    #[test]
    fn tuple_document_roundtrip() {
        let c = codec();
        let t = tuple!["Montgomery", "HR", 7500i64];
        let words = c.encode_tuple(&t).unwrap();
        assert_eq!(words.len(), 3);
        assert_eq!(c.decode_tuple(&words).unwrap(), t);
    }

    #[test]
    fn decode_tuple_rejects_reordered_words() {
        let c = codec();
        let t = tuple!["Montgomery", "HR", 7500i64];
        let mut words = c.encode_tuple(&t).unwrap();
        words.swap(0, 1);
        assert!(matches!(
            c.decode_tuple(&words),
            Err(PhError::CorruptCiphertext(_))
        ));
    }

    #[test]
    fn decode_rejects_malformed_words() {
        let c = codec();
        // Wrong length.
        assert!(c.decode(&Word::from_bytes_unchecked(vec![0; 4])).is_err());
        // Attribute index out of range.
        let mut bytes = c.encode(0, &Value::str("x")).unwrap().into_bytes();
        *bytes.last_mut().unwrap() = 77;
        assert!(c.decode(&Word::from_bytes_unchecked(bytes)).is_err());
        // Length prefix exceeding capacity.
        let mut bytes = c.encode(0, &Value::str("x")).unwrap().into_bytes();
        bytes[0] = 0xFF;
        bytes[1] = 0xFF;
        assert!(c.decode(&Word::from_bytes_unchecked(bytes)).is_err());
    }

    #[test]
    fn query_terms_encode_like_values() {
        let c = codec();
        let q = Query::select("name", "Montgomery");
        let terms = c.encode_query_terms(&q).unwrap();
        assert_eq!(terms.len(), 1);
        // The paper's key property: σ_name:Montgomery maps to exactly
        // the word stored for ⟨name:"Montgomery"⟩, at name's position.
        assert_eq!(
            terms[0],
            (0, c.encode(0, &Value::str("Montgomery")).unwrap())
        );
        let q = Query::select("salary", 7500i64);
        assert_eq!(c.encode_query_terms(&q).unwrap()[0].0, 2);
    }

    #[test]
    fn query_terms_reject_bad_queries() {
        let c = codec();
        assert!(c
            .encode_query_terms(&Query::select("missing", 1i64))
            .is_err());
        assert!(c
            .encode_query_terms(&Query::select("salary", "nope"))
            .is_err());
    }

    #[test]
    fn paper_style_matches_worked_example() {
        // §3: relation Emp(name:string[9]...), value "Montgomery" over
        // width 10 (see schema docs for the off-by-one in the paper).
        assert_eq!(paper_style("Montgomery", 10, 'N'), "MontgomeryN");
        assert_eq!(paper_style("HR", 10, 'D'), "HR########D");
        assert_eq!(paper_style("7500", 10, 'S'), "7500######S");
    }

    #[test]
    fn swp_params_for_codec() {
        let p = codec().swp_params().unwrap();
        assert_eq!(p.word_len, 13);
        assert_eq!(p.check_len, 4);
    }
}
