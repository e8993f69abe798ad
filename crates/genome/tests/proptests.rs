//! Property-based tests for sequence primitives and samplers.

use gnb_genome::fasta::{read_fasta, read_fastq};
use gnb_genome::rng::LogNormal;
use gnb_genome::seq::{complement, is_valid_dna, revcomp, revcomp_in_place};
use gnb_genome::{ErrorModel, Genome, GenomeParams, ReadSet};
use proptest::prelude::*;
use std::io;

fn dna(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        0..max_len,
    )
}

/// Reads over upper- and lowercase bases and IUPAC codes.
fn raw_reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                Just(b'A'),
                Just(b'c'),
                Just(b'G'),
                Just(b't'),
                Just(b'N'),
                Just(b'R'),
                Just(b'y')
            ],
            1..60,
        ),
        0..5,
    )
}

/// One byte-level mutation: `(kind, position, value)`. Kinds: flip bit
/// `value % 8`, truncate, or insert one of `>`, `@`, `+`, `\r`, NUL, `0xFF`.
fn mutations() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    proptest::collection::vec((0u8..3, any::<usize>(), any::<u8>()), 0..6)
}

fn mutate(mut bytes: Vec<u8>, muts: &[(u8, usize, u8)]) -> Vec<u8> {
    const INSERTS: [u8; 6] = [b'>', b'@', b'+', b'\r', 0, 0xFF];
    for &(kind, pos, val) in muts {
        match kind {
            0 if !bytes.is_empty() => {
                let at = pos % bytes.len();
                bytes[at] ^= 1 << (val % 8);
            }
            1 => bytes.truncate(pos % (bytes.len() + 1)),
            _ => bytes.insert(pos % (bytes.len() + 1), INSERTS[val as usize % 6]),
        }
    }
    bytes
}

/// A parse either fails with `InvalidData` or yields reads over
/// `{A,C,G,T,N}` only.
fn check_parse(parsed: io::Result<ReadSet>) -> Result<(), TestCaseError> {
    match parsed {
        Ok(set) => {
            for (_, seq) in set.iter() {
                prop_assert!(
                    is_valid_dna(seq),
                    "stored read {:?}",
                    String::from_utf8_lossy(seq)
                );
            }
        }
        Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Hostile input at the parser: FASTA and FASTQ text with bit flips,
    /// truncation and inserted record markers, CR, NUL and `0xFF` bytes.
    /// Both parsers, on both texts, return a typed error or a read set over
    /// `{A,C,G,T,N}`, and never panic.
    #[test]
    fn parsers_survive_mutated_input(reads in raw_reads(), muts in mutations()) {
        let mut fasta = Vec::new();
        let mut fastq = Vec::new();
        for (i, r) in reads.iter().enumerate() {
            fasta.extend_from_slice(format!(">r{i}\n").as_bytes());
            fasta.extend_from_slice(r);
            fasta.push(b'\n');
            fastq.extend_from_slice(format!("@r{i}\n").as_bytes());
            fastq.extend_from_slice(r);
            fastq.extend_from_slice(b"\n+\n");
            fastq.extend(std::iter::repeat_n(b'I', r.len()));
            fastq.push(b'\n');
        }
        // Unmutated, each text parses to its reads in normalised form.
        let normalised: Vec<Vec<u8>> = reads
            .iter()
            .map(|r| {
                r.iter()
                    .map(|&b| match b.to_ascii_uppercase() {
                        c @ (b'A' | b'C' | b'G' | b'T') => c,
                        _ => b'N',
                    })
                    .collect()
            })
            .collect();
        for set in [read_fasta(&fasta[..]).unwrap(), read_fastq(&fastq[..]).unwrap()] {
            let got: Vec<Vec<u8>> = set.iter().map(|(_, s)| s.to_vec()).collect();
            prop_assert_eq!(&got, &normalised);
        }
        for text in [mutate(fasta, &muts), mutate(fastq, &muts)] {
            check_parse(read_fasta(&text[..]))?;
            check_parse(read_fastq(&text[..]))?;
        }
    }

    /// revcomp is an involution over the 5-letter alphabet.
    #[test]
    fn revcomp_involution(s in dna(200)) {
        prop_assert_eq!(revcomp(&revcomp(&s)), s);
    }

    /// In-place and allocating reverse complements agree.
    #[test]
    fn revcomp_in_place_agrees(s in dna(200)) {
        let mut buf = s.clone();
        revcomp_in_place(&mut buf);
        prop_assert_eq!(buf, revcomp(&s));
    }

    /// Complement is self-inverse on valid bases.
    #[test]
    fn complement_self_inverse(s in dna(100)) {
        for &b in &s {
            prop_assert_eq!(complement(complement(b)), b);
        }
    }

    /// The error model always emits valid DNA and respects the indel
    /// balance within statistical tolerance on long fragments.
    #[test]
    fn error_model_total(e in 0.0f64..0.3, seed in 0u64..1000) {
        let mut rng = gnb_genome::rng::rng_from_seed(seed);
        let frag: Vec<u8> = (0..2000).map(|i| b"ACGT"[(i * 7 + 1) % 4]).collect();
        let m = ErrorModel::clr(e);
        let noisy = m.corrupt(&mut rng, &frag);
        prop_assert!(is_valid_dna(&noisy));
        // Length within plausible bounds.
        let expect = frag.len() as f64 * (1.0 + m.ins_rate - m.del_rate);
        prop_assert!((noisy.len() as f64 - expect).abs() < 0.25 * frag.len() as f64 + 50.0);
    }

    /// Genome generation is deterministic and always valid.
    #[test]
    fn genome_deterministic(len in 100usize..5000, seed in 0u64..100) {
        let a = Genome::generate(GenomeParams::uniform(len), seed);
        let b = Genome::generate(GenomeParams::uniform(len), seed);
        prop_assert_eq!(&a.seq, &b.seq);
        prop_assert_eq!(a.len(), len);
        prop_assert!(is_valid_dna(&a.seq));
    }

    /// LogNormal sampling stays positive and matches its configured mean
    /// within broad tolerance.
    #[test]
    fn lognormal_positive(mean in 10.0f64..10000.0, sigma in 0.0f64..1.0, seed in 0u64..50) {
        let d = LogNormal::from_mean_sigma(mean, sigma);
        let mut rng = gnb_genome::rng::rng_from_seed(seed);
        for _ in 0..50 {
            prop_assert!(d.sample(&mut rng) > 0.0);
        }
        prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
    }
}
