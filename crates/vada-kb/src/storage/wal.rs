//! The append-only write-ahead log.
//!
//! File layout: an 8-byte header (`b"VADAWAL"` + the codec
//! [`FORMAT_VERSION`](vada_common::codec::FORMAT_VERSION)), then records,
//! each framed as
//!
//! ```text
//! u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload bytes
//! ```
//!
//! **Durability contract.** [`Wal::append`] writes the frame and fsyncs
//! before returning: once a mutation is applied in memory, its record is on
//! disk. A crash can therefore only ever lose (or tear) the *suffix* the
//! process had not finished writing.
//!
//! **Torn tails.** On open the log is scanned record by record. A bad
//! frame that reaches the end of the file is exactly what an interrupted
//! write leaves behind: a short frame header, a payload whose claimed end
//! lies past EOF, or a CRC mismatch on a frame that ends exactly at EOF.
//! The file is truncated back to the last whole record and the open
//! succeeds — a torn tail is detected and discarded, never misread as data.
//! Any other bad frame is corruption, not a crash artifact: a CRC mismatch
//! with bytes after the frame, or a record that frames and checksums
//! correctly but fails to *decode*. Later records were acknowledged, so the
//! open fails with [`VadaError::Storage`] naming the offset and leaves the
//! file untouched rather than silently dropping acknowledged history.
//!
//! The length field is not covered by the checksum, so a corrupted length
//! in a non-final frame can still read as a torn tail (its claimed end
//! past EOF) and truncate the later records; the recovered records are
//! then a prefix of the written ones, never misread data.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use vada_common::codec::FORMAT_VERSION;
use vada_common::{Result, VadaError};

use super::codec::{decode_record, encode_record, WalRecord};

const MAGIC: &[u8; 7] = b"VADAWAL";
const HEADER_LEN: u64 = 8;

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An open write-ahead log, positioned at its end for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
}

fn header() -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..7].copy_from_slice(MAGIC);
    h[7] = FORMAT_VERSION;
    h
}

fn sync_parent_dir(path: &Path) {
    // Persist the directory entry itself (new or renamed file). Best
    // effort: not every platform lets a directory be fsynced.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl Wal {
    /// Create (or truncate to empty) the log at `path` and fsync it.
    pub fn create(path: impl Into<PathBuf>) -> Result<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&header())?;
        file.sync_data()?;
        sync_parent_dir(&path);
        Ok(Wal { file, path })
    }

    /// Open the log at `path`, replaying its records. A missing file is
    /// created empty. Returns the log (positioned for appending) and every
    /// whole record, in write order; a torn tail is truncated away, and a
    /// bad frame before the tail fails the open (see the module docs).
    pub fn open(path: impl Into<PathBuf>) -> Result<(Wal, Vec<WalRecord>)> {
        let path = path.into();
        if !path.exists() {
            return Ok((Wal::create(path)?, Vec::new()));
        }
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < HEADER_LEN as usize {
            // even the header is torn: an interrupted create — start over
            drop(file);
            return Ok((Wal::create(path)?, Vec::new()));
        }
        if bytes[..7] != MAGIC[..] {
            return Err(VadaError::Storage(format!(
                "{}: not a VADA write-ahead log",
                path.display()
            )));
        }
        if bytes[7] != FORMAT_VERSION {
            return Err(VadaError::Storage(format!(
                "{}: unsupported WAL format version {}",
                path.display(),
                bytes[7]
            )));
        }

        let mut records = Vec::new();
        let mut offset = HEADER_LEN as usize; // end of the last whole record
        let mut pos = offset;
        let mut last_seq = 0u64;
        loop {
            if bytes.len() - pos < 8 {
                break; // torn or absent frame header
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
            let end = match (pos + 8).checked_add(len as usize) {
                Some(end) if end <= bytes.len() => end,
                _ => break, // torn payload: the frame runs past EOF
            };
            let payload = &bytes[pos + 8..end];
            if crc32(payload) != crc {
                if end == bytes.len() {
                    break; // torn final frame (overwritten garbage)
                }
                return Err(VadaError::Storage(format!(
                    "{}: record at offset {pos} fails its checksum but {} bytes follow it: \
                     corruption inside the log, refusing to truncate acknowledged records",
                    path.display(),
                    bytes.len() - end
                )));
            }
            // the frame is intact: a decode failure now is corruption, not
            // a torn tail — refuse rather than drop acknowledged records
            let record = decode_record(payload).map_err(|e| {
                VadaError::Storage(format!(
                    "{}: record at offset {pos} is framed correctly but undecodable: {}",
                    path.display(),
                    e.message()
                ))
            })?;
            if record.event.seq <= last_seq {
                return Err(VadaError::Storage(format!(
                    "{}: record at offset {pos} breaks sequence monotonicity ({} after {})",
                    path.display(),
                    record.event.seq,
                    last_seq
                )));
            }
            last_seq = record.event.seq;
            records.push(record);
            pos = end;
            offset = pos;
        }

        if offset < bytes.len() {
            file.set_len(offset as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((Wal { file, path }, records))
    }

    /// Append one record: frame, write, fsync. After this returns the
    /// record will survive a crash. Returns the framed byte count — the
    /// observability layer's `wal.bytes` currency.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let mut payload = Vec::new();
        encode_record(record, &mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        Ok(frame.len() as u64)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaChange, DeltaEvent};
    use vada_common::tuple;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vada-wal-test-{}-{name}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn rec(seq: u64, n: usize) -> WalRecord {
        WalRecord {
            event: DeltaEvent {
                seq,
                aspect: "relations",
                change: DeltaChange::RowsAppended {
                    relation: "r".into(),
                    rows: (0..n).map(|i| tuple![i as i64, "payload"]).collect(),
                },
            },
            payload: None,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_and_reopen() {
        let path = tmp("append");
        let mut wal = Wal::create(&path).unwrap();
        for s in 1..=5 {
            wal.append(&rec(s, s as usize)).unwrap();
        }
        drop(wal);
        let (_wal, records) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[4], rec(5, 5));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_recovers_a_prefix() {
        let path = tmp("trunc");
        let mut wal = Wal::create(&path).unwrap();
        let originals: Vec<WalRecord> = (1..=4).map(|s| rec(s, s as usize)).collect();
        for r in &originals {
            wal.append(r).unwrap();
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_w, records) = Wal::open(&path).unwrap();
            assert!(
                originals.starts_with(&records),
                "cut at {cut}: recovered records must be a prefix"
            );
            // reopening after truncation is idempotent: the file now ends
            // at the last whole record
            let healed = std::fs::read(&path).unwrap();
            let (_w2, again) = Wal::open(&path).unwrap();
            assert_eq!(records, again);
            assert_eq!(std::fs::read(&path).unwrap(), healed);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_payload_with_valid_frame_is_rejected() {
        let path = tmp("corrupt");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(1, 1)).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a payload byte and fix the CRC so the frame still verifies
        let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let crc = crc32(&bytes[16..16 + len]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert_eq!(err.kind(), "storage");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_byte_without_crc_fix_truncates() {
        let path = tmp("flip");
        let mut wal = Wal::create(&path).unwrap();
        wal.append(&rec(1, 1)).unwrap();
        wal.append(&rec(2, 1)).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // tear the second record's payload
        std::fs::write(&path, &bytes).unwrap();
        let (_w, records) = Wal::open(&path).unwrap();
        assert_eq!(records, vec![rec(1, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_inside_the_log_is_refused_not_truncated() {
        let path = tmp("mid");
        let mut wal = Wal::create(&path).unwrap();
        for s in 1..=3 {
            wal.append(&rec(s, 2)).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // flip a payload byte of the second record, leaving its CRC stale
        let first_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        let second = 8 + 8 + first_len;
        bytes[second + 8] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = Wal::open(&path).unwrap_err();
        assert_eq!(err.kind(), "storage");
        assert!(err.message().contains(&format!("offset {second}")), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "the log must be left untouched");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAWAL!garbage").unwrap();
        assert_eq!(Wal::open(&path).unwrap_err().kind(), "storage");
        std::fs::remove_file(&path).unwrap();
    }
}
