//! Minimal FASTA reading and writing.
//!
//! The library operates on in-memory [`ReadSet`]s, but real pipelines start
//! from FASTA files; this module lets the examples and the end-to-end CLI
//! ingest and emit standard files. Sequences are upper-cased and any IUPAC
//! ambiguity code other than `ACGT` becomes `N` (by [`ReadSet::push`]),
//! matching the 5-letter alphabet assumption in the paper (§2).

use crate::reads::{ReadOrigin, ReadSet, Strand};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Parses FASTA from a reader into a [`ReadSet`].
///
/// Record names are discarded (read ids are dense indices); origins are
/// filled with zeroed placeholders since external data has no ground truth.
pub fn read_fasta<R: Read>(reader: R) -> io::Result<ReadSet> {
    let mut set = ReadSet::new();
    let mut current: Vec<u8> = Vec::new();
    let mut in_record = false;
    let placeholder = ReadOrigin {
        start: 0,
        ref_len: 0,
        strand: Strand::Forward,
    };
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let line = line.trim_end();
        if line.starts_with('>') {
            if in_record && !current.is_empty() {
                set.push(&current, placeholder);
                current.clear();
            }
            in_record = true;
        } else if !line.is_empty() {
            if !in_record {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "FASTA sequence data before first '>' header",
                ));
            }
            current.extend_from_slice(line.as_bytes());
        }
    }
    if in_record && !current.is_empty() {
        set.push(&current, placeholder);
    }
    Ok(set)
}

/// Reads a FASTA file from disk.
pub fn read_fasta_file<P: AsRef<Path>>(path: P) -> io::Result<ReadSet> {
    read_fasta(std::fs::File::open(path)?)
}

/// Writes `reads` as FASTA with `read_<id>` headers, wrapping at 80 columns.
pub fn write_fasta<W: Write>(writer: W, reads: &ReadSet) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for (id, seq) in reads.iter() {
        writeln!(w, ">read_{id}")?;
        for chunk in seq.chunks(80) {
            w.write_all(chunk)?;
            w.write_all(b"\n")?;
        }
    }
    w.flush()
}

/// Writes a FASTA file to disk.
pub fn write_fasta_file<P: AsRef<Path>>(path: P, reads: &ReadSet) -> io::Result<()> {
    write_fasta(std::fs::File::create(path)?, reads)
}

/// Parses FASTQ from a reader into a [`ReadSet`].
///
/// Quality strings are discarded — the pipeline's error handling is
/// k-mer-frequency- and alignment-based, not quality-aware (as in the
/// paper's pipeline). Multi-line FASTQ (wrapped sequence) is not
/// supported; modern long-read FASTQ is 4-lines-per-record.
pub fn read_fastq<R: Read>(reader: R) -> io::Result<ReadSet> {
    let mut set = ReadSet::new();
    let placeholder = ReadOrigin {
        start: 0,
        ref_len: 0,
        strand: Strand::Forward,
    };
    let mut lines = BufReader::new(reader).lines();
    while let Some(header) = lines.next() {
        let header = header?;
        if header.trim_end().is_empty() {
            continue; // tolerate trailing blank lines
        }
        if !header.starts_with('@') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("FASTQ record must start with '@', got {header:?}"),
            ));
        }
        let seq = lines.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "truncated FASTQ: no sequence")
        })??;
        let plus = lines.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "truncated FASTQ: no '+'")
        })??;
        if !plus.starts_with('+') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "FASTQ separator line must start with '+'",
            ));
        }
        let qual = lines.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "truncated FASTQ: no quality")
        })??;
        if qual.trim_end().len() != seq.trim_end().len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "FASTQ quality length differs from sequence length",
            ));
        }
        set.push(seq.trim_end().as_bytes(), placeholder);
    }
    Ok(set)
}

/// Reads a FASTQ file from disk.
pub fn read_fastq_file<P: AsRef<Path>>(path: P) -> io::Result<ReadSet> {
    read_fastq(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut set = ReadSet::new();
        let o = ReadOrigin {
            start: 0,
            ref_len: 0,
            strand: Strand::Forward,
        };
        set.push(b"ACGTACGT", o);
        set.push(&[b'G'; 200], o);
        let mut buf = Vec::new();
        write_fasta(&mut buf, &set).unwrap();
        let back = read_fasta(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.read(0), set.read(0));
        assert_eq!(back.read(1), set.read(1));
    }

    #[test]
    fn multiline_and_case_normalisation() {
        let text = b">r1\nacgt\nACGT\n>r2\nggg\n";
        let set = read_fasta(&text[..]).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.read(0), b"ACGTACGT");
        assert_eq!(set.read(1), b"GGG");
    }

    #[test]
    fn ambiguity_codes_become_n() {
        let text = b">r\nACRYSWGT\n";
        let set = read_fasta(&text[..]).unwrap();
        assert_eq!(set.read(0), b"ACNNNNGT");
    }

    #[test]
    fn data_before_header_is_error() {
        let text = b"ACGT\n>r\nACGT\n";
        assert!(read_fasta(&text[..]).is_err());
    }

    #[test]
    fn empty_input() {
        let set = read_fasta(&b""[..]).unwrap();
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn fastq_basic() {
        let text = b"@r1\nACGT\n+\nIIII\n@r2 with description\nggnn\n+r2\n!!!!\n";
        let set = read_fastq(&text[..]).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.read(0), b"ACGT");
        assert_eq!(set.read(1), b"GGNN");
    }

    #[test]
    fn fastq_errors() {
        assert!(read_fastq(&b"ACGT\n"[..]).is_err(), "missing @");
        assert!(read_fastq(&b"@r\nACGT\n"[..]).is_err(), "truncated");
        assert!(
            read_fastq(&b"@r\nACGT\nIIII\nIIII\n"[..]).is_err(),
            "bad separator"
        );
        assert!(
            read_fastq(&b"@r\nACGT\n+\nIII\n"[..]).is_err(),
            "quality length"
        );
    }

    #[test]
    fn fastq_trailing_blank_lines_ok() {
        let text = b"@r\nACGT\n+\nIIII\n\n\n";
        let set = read_fastq(&text[..]).unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn line_wrapping_at_80() {
        let mut set = ReadSet::new();
        set.push(
            &[b'A'; 161],
            ReadOrigin {
                start: 0,
                ref_len: 0,
                strand: Strand::Forward,
            },
        );
        let mut buf = Vec::new();
        write_fasta(&mut buf, &set).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 80 + 80 + 1
        assert_eq!(lines[1].len(), 80);
        assert_eq!(lines[3].len(), 1);
    }
}
