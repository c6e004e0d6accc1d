//! HVC ("HillView Columnar") — our columnar binary file format.
//!
//! Substitutes for ORC/Parquet: per-column typed blocks so a worker "reads
//! a column completely from the data repository taking advantage of fast
//! sequential access and columnar access" (paper §5.4).
//!
//! The on-disk layout is version 3 ([`v3`]): a self-contained header
//! (schema, row count, payload descriptors, zone maps) followed by 64-byte
//! aligned raw little-endian payload sections, so a file can be mapped and
//! scanned zero-copy. This module holds the entry points and the pieces of
//! the format shared with the header codec:
//!
//! * The encoding byte of an integer or code payload mirrors the column's
//!   *in-memory* [`hillview_columnar::IntStorage`] representation
//!   (plain, bit-packed, run-length, delta), so a packed column
//!   round-trips through a file without ever inflating to plain.
//! * Null masks are run-length encoded (alternating present/missing run
//!   lengths, starting with present), which collapses the common
//!   all-present case to a single varint. A run total that disagrees with
//!   the file's row count is the structured [`Error::RowCountMismatch`].
//! * Dictionary codes are checked against the dictionary length, so a
//!   corrupt file is a parse error, never an out-of-bounds lookup.
//!
//! Any other magic (including the retired varint-packed `HVC2` container)
//! is rejected with a structured `bad magic` parse error.

#[path = "hvc_v3.rs"]
pub mod v3;

pub use v3::{probe_file, read_file_mapped, FileInfo};

use crate::error::{Error, Result};
use hillview_columnar::column::Column;
use hillview_columnar::encoding::IntStorage;
use hillview_columnar::{ColumnKind, NullMask, Table};
use hillview_net::{WireReader, WireWriter};
use std::io::Write;
use std::path::Path;

pub(crate) const ENC_PLAIN: u8 = 0;
pub(crate) const ENC_BIT_PACKED: u8 = 1;
pub(crate) const ENC_RUN_LENGTH: u8 = 2;
pub(crate) const ENC_DELTA: u8 = 3;

pub(crate) fn kind_byte(kind: ColumnKind) -> u8 {
    match kind {
        ColumnKind::Int => 0,
        ColumnKind::Date => 1,
        ColumnKind::Double => 2,
        ColumnKind::String => 3,
        ColumnKind::Category => 4,
    }
}

pub(crate) fn byte_kind(b: u8, at: usize) -> Result<ColumnKind> {
    Ok(match b {
        0 => ColumnKind::Int,
        1 => ColumnKind::Date,
        2 => ColumnKind::Double,
        3 => ColumnKind::String,
        4 => ColumnKind::Category,
        _ => {
            return Err(Error::Parse {
                format: "hvc",
                at,
                message: format!("unknown column kind byte {b}"),
            })
        }
    })
}

pub(crate) fn parse_err(message: impl Into<String>) -> Error {
    Error::Parse {
        format: "hvc",
        at: 0,
        message: message.into(),
    }
}

pub(crate) fn wire_err(e: hillview_net::Error) -> Error {
    parse_err(e.to_string())
}

pub(crate) fn encode_null_runs(w: &mut WireWriter, col: &Column, rows: usize) {
    // Alternating run lengths: present, missing, present, ...
    let mut runs: Vec<u64> = Vec::new();
    let mut current_null = false;
    let mut run = 0u64;
    for i in 0..rows {
        let null = col.is_null(i);
        if null == current_null {
            run += 1;
        } else {
            runs.push(run);
            current_null = null;
            run = 1;
        }
    }
    runs.push(run);
    w.put_varint(runs.len() as u64);
    for r in runs {
        w.put_varint(r);
    }
}

pub(crate) fn decode_null_runs(r: &mut WireReader, rows: usize, column: &str) -> Result<NullMask> {
    let n = r.get_len("null runs").map_err(wire_err)?;
    let mut mask = NullMask::none();
    let mut idx = 0usize;
    let mut is_null = false;
    for _ in 0..n {
        let run = r.get_varint().map_err(wire_err)? as usize;
        if is_null {
            for i in idx..(idx + run).min(rows) {
                mask.set_null(i, rows);
            }
        }
        idx += run;
        is_null = !is_null;
    }
    if idx != rows {
        return Err(Error::RowCountMismatch {
            column: column.to_string(),
            declared: rows,
            actual: idx,
        });
    }
    Ok(mask)
}

/// Verify every decoded dictionary code stays inside the dictionary.
/// `null_count` guards the empty-dictionary case: a dictionary can only be
/// empty when every row is null (present rows would dereference it).
pub(crate) fn validate_codes(
    codes: &IntStorage<u32>,
    dict_len: usize,
    null_count: usize,
    column: &str,
) -> Result<()> {
    if dict_len == 0 {
        if null_count < codes.len() {
            return Err(parse_err(format!(
                "column {column:?}: empty dictionary but {} non-null rows",
                codes.len() - null_count
            )));
        }
        return Ok(());
    }
    let check = |code: u32| -> Result<()> {
        if code as usize >= dict_len {
            Err(parse_err(format!(
                "column {column:?}: code {code} out of dictionary range {dict_len}"
            )))
        } else {
            Ok(())
        }
    };
    match codes {
        // Run-length: one check per run is exhaustive.
        IntStorage::RunLength { values, .. } => values.iter().try_for_each(|&c| check(c)),
        storage => {
            let mut buf = [0u32; 64];
            let len = storage.len();
            let mut i = 0usize;
            while i < len {
                let n = 64.min(len - i);
                storage.decode_into(i, &mut buf[..n]);
                buf[..n].iter().try_for_each(|&c| check(c))?;
                i += n;
            }
            Ok(())
        }
    }
}

/// Write a table to a file in the v3 layout: 64-byte aligned raw-LE
/// payload sections behind a self-contained header, so the file can be
/// mapped and scanned zero-copy — see [`v3`].
pub fn write_file(table: &Table, path: impl AsRef<Path>) -> Result<()> {
    let bytes = v3::encode(table);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(&bytes)?;
    f.flush()?;
    Ok(())
}

/// Read a table from a file into fully heap-resident columns. For lazy,
/// file-backed columns use [`read_file_mapped`]; to inspect a file without
/// reading its payload use [`probe_file`].
pub fn read_file(path: impl AsRef<Path>) -> Result<Table> {
    v3::decode_owned(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hillview_columnar::column::{DictColumn, F64Column, I64Column};
    use hillview_columnar::encoding::EncodingKind;
    use hillview_columnar::Value;

    fn sample_table() -> Table {
        Table::builder()
            .column(
                "Id",
                ColumnKind::Int,
                Column::Int(I64Column::from_options([
                    Some(100),
                    Some(101),
                    None,
                    Some(103),
                ])),
            )
            .column(
                "When",
                ColumnKind::Date,
                Column::Date(I64Column::from_options([
                    Some(1_700_000_000_000),
                    Some(1_700_000_000_100),
                    Some(1_700_000_000_200),
                    Some(1_700_000_000_300),
                ])),
            )
            .column(
                "Score",
                ColumnKind::Double,
                Column::Double(F64Column::from_options([
                    Some(1.5),
                    None,
                    Some(-2.25),
                    Some(0.0),
                ])),
            )
            .column(
                "Tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings([
                    Some("red"),
                    Some("blue"),
                    Some("red"),
                    None,
                ])),
            )
            .build()
            .unwrap()
    }

    /// A scratch path named per process and per test.
    fn tmp(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hillview-hvc-{test}-{}.hvc", std::process::id()))
    }

    #[test]
    fn file_round_trip() {
        let path = tmp("file-round-trip");
        let t = sample_table();
        write_file(&t, &path).unwrap();
        let t2 = read_file(&path).unwrap();
        assert_eq!(t2.get(0, "Tag").unwrap(), Value::str("red"));
        assert_eq!(t2.get(2, "Id").unwrap(), Value::Missing);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let path = tmp("corrupt-inputs");
        write_file(&sample_table(), &path).unwrap();
        let good = std::fs::read(&path).unwrap();
        // A retired v2 container: same varint body shape, `HVC2` magic.
        let mut v2 = b"HVC2".to_vec();
        v2.extend_from_slice(&[4, 4]);
        let cache = hillview_columnar::BlockCache::unbounded();
        let mode = hillview_columnar::residency::SegmentMode::Auto;
        for (bytes, what) in [(&b"NOPE"[..], "foreign magic"), (&v2[..], "v2 magic")] {
            std::fs::write(&path, bytes).unwrap();
            for err in [
                read_file(&path).unwrap_err(),
                read_file_mapped(&path, &cache, mode).unwrap_err(),
                probe_file(&path).unwrap_err(),
            ] {
                assert!(err.to_string().contains("bad magic"), "{what}: got {err}");
            }
        }
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(read_file(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn packed_columns_shrink_the_file() {
        let n = 100_000usize;
        let t = Table::builder()
            .column(
                "Bucketed",
                ColumnKind::Int,
                Column::Int(I64Column::new(
                    (0..n as i64).map(|i| i / 50).collect(),
                    NullMask::none(),
                )),
            )
            .build()
            .unwrap();
        let bytes = v3::encode(&t);
        assert!(
            bytes.len() < n, // < 1 byte/row; plain would be 8
            "{} bytes for {} run-length rows",
            bytes.len(),
            n
        );
    }

    #[test]
    fn delta_encoding_compresses_sorted_ints() {
        // Dates are near-sequential: whatever encoding ingest picks must
        // still beat 3 bytes/value on disk.
        let n = 10_000usize;
        let t = Table::builder()
            .column(
                "When",
                ColumnKind::Date,
                Column::Date(I64Column::from_options(
                    (0..n).map(|i| Some(1_700_000_000_000 + (i as i64) * 250)),
                )),
            )
            .build()
            .unwrap();
        let bytes = v3::encode(&t);
        assert!(
            bytes.len() < n * 3,
            "{} bytes for {} near-sequential dates",
            bytes.len(),
            n
        );
    }

    #[test]
    fn corrupt_packed_codes_stay_in_dictionary() {
        // Five categories over many rows → bit-packed codes of width 3,
        // whose packed words are the last bytes of the file. Setting them
        // to all-ones decodes codes 7 > dictionary length 5; the heap
        // decoder must reject, never index out of bounds.
        let cats = ["a", "b", "c", "d", "e"];
        let t = Table::builder()
            .column(
                "Tag",
                ColumnKind::Category,
                Column::Cat(DictColumn::from_strings(
                    (0..640).map(|i| Some(cats[i % 5])),
                )),
            )
            .build()
            .unwrap();
        let col = t.column_by_name("Tag").unwrap().as_dict_col().unwrap();
        assert_eq!(col.codes().kind(), EncodingKind::BitPacked);
        let mut bytes = v3::encode(&t);
        let n = bytes.len();
        assert!(v3::decode_owned(&bytes).is_ok());
        for b in &mut bytes[n - 8..] {
            *b = 0xFF;
        }
        let err = v3::decode_owned(&bytes).unwrap_err();
        assert!(
            err.to_string().contains("out of dictionary range"),
            "got {err}"
        );
    }
}
