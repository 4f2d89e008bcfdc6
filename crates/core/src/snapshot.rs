//! Encrypted-table snapshots: a versioned, integrity-checked export
//! format.
//!
//! A snapshot is what Alex stores offline before risky operations
//! (re-keying, migrating providers) and what he would subpoena back
//! from Eve after a dispute. It contains only ciphertext — exporting
//! and importing require no key — but carries a SHA-256 integrity
//! checksum so silent corruption is detected at import.
//!
//! Layout: `magic ‖ version ‖ table-name ‖ EncryptedTable ‖ sha256`.
//!
//! Fetching the table to snapshot needs no monolithic `FetchAll`
//! frame: [`crate::client::Client::fetch_table_chunked`] streams the
//! ciphertext down as bounded `FetchChunk` pages, and [`export`] packs
//! the reassembled table, so the snapshot path works for tables beyond
//! the transport's frame cap.

use crate::error::PhError;
use crate::swp_ph::EncryptedTable;
use crate::wire::{seal, unseal, WireDecode, WireEncode};

/// File magic: `dbphsnap`.
const MAGIC: &[u8; 8] = b"dbphsnap";
/// Current format version.
const VERSION: u16 = 1;

/// Serializes `(name, table)` into a snapshot byte blob.
#[must_use]
pub fn export(name: &str, table: &EncryptedTable) -> Vec<u8> {
    seal(MAGIC, VERSION, |body| {
        name.to_string().encode(body);
        table.encode(body);
    })
}

/// Parses and verifies a snapshot, returning the table name and
/// ciphertext.
///
/// # Errors
/// Returns [`PhError::Wire`] on bad magic, unsupported version,
/// truncation, or checksum mismatch.
pub fn import(bytes: &[u8]) -> Result<(String, EncryptedTable), PhError> {
    let mut r = unseal(bytes, MAGIC, VERSION, "snapshot").map_err(PhError::Wire)?;
    let name = String::decode(&mut r)?;
    let table = EncryptedTable::decode(&mut r)?;
    r.expect_end()?;
    Ok((name, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbph_crypto::sha256::Sha256;
    use dbph_swp::{CipherWord, SwpParams};

    fn sample() -> EncryptedTable {
        EncryptedTable {
            params: SwpParams::new(13, 4, 32).unwrap(),
            docs: vec![
                (0, vec![CipherWord(vec![1; 13]), CipherWord(vec![2; 13])]),
                (5, vec![CipherWord(vec![3; 13]), CipherWord(vec![4; 13])]),
            ],
            next_doc_id: 6,
        }
    }

    #[test]
    fn roundtrip() {
        let blob = export("Emp", &sample());
        let (name, table) = import(&blob).unwrap();
        assert_eq!(name, "Emp");
        assert_eq!(table, sample());
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let blob = export("Emp", &sample());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x01;
            assert!(import(&bad).is_err(), "undetected flip at byte {i}");
        }
    }

    #[test]
    fn truncation_detected() {
        let blob = export("Emp", &sample());
        for cut in [0, 1, 10, blob.len() - 1] {
            assert!(import(&blob[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut blob = export("Emp", &sample());
        blob.push(0);
        assert!(import(&blob).is_err());
    }

    #[test]
    fn version_is_enforced() {
        // Re-craft a body with a bumped version and a *valid* checksum:
        // must still be rejected on version grounds.
        let blob = export("Emp", &sample());
        let mut body = blob[..blob.len() - 32].to_vec();
        body[8] = 0xFF; // low byte of little-endian version
        let digest = Sha256::digest(&body);
        body.extend_from_slice(&digest);
        let err = import(&body).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
