//! Ingest bench: the FASTA and FASTQ readers on `casa-seed`-sized inputs.
//!
//! `fasta_8mb` parses a generated 8 Mb reference written at 70 columns
//! (report MB/s from the group's byte throughput); `fastq_6000` parses
//! 6,000 simulated 101 bp reads (ns/read from the element throughput).
//! Both read from a file through the `from_path` entry points, as
//! `casa-seed` does, so the numbers include the buffered file reads.

use std::fs::File;
use std::io::BufWriter;

use casa_genome::fasta::{read_fasta_from_path, write_fasta, FastaRecord, NPolicy};
use casa_genome::fastq::{read_fastq_from_path, write_fastq, FastqRecord};
use casa_genome::synth::{generate_reference, ReferenceProfile};
use casa_genome::{Base, ReadSimConfig, ReadSimulator};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const REF_LEN: usize = 8_000_000;
const READS: usize = 6_000;

fn bench(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("casa_ingest_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let reference = generate_reference(&ReferenceProfile::human_like(), REF_LEN, 7);
    let fasta = dir.join("ref.fa");
    write_fasta(
        BufWriter::new(File::create(&fasta).expect("create FASTA")),
        &[FastaRecord {
            name: "chr1 synthetic".into(),
            seq: reference.clone(),
        }],
    )
    .expect("write FASTA");
    let fastq = dir.join("reads.fq");
    let reads: Vec<FastqRecord> = ReadSimulator::new(ReadSimConfig::default(), 8)
        .simulate(&reference, READS)
        .into_iter()
        .map(|r| FastqRecord {
            name: r.name,
            qual: vec![b'I'; r.seq.len()],
            seq: r.seq,
        })
        .collect();
    write_fastq(
        BufWriter::new(File::create(&fastq).expect("create FASTQ")),
        &reads,
    )
    .expect("write FASTQ");

    let policy = NPolicy::Replace(Base::A);
    let mut group = c.benchmark_group("ingest");
    group.sample_size(10);
    let bytes = std::fs::metadata(&fasta).expect("FASTA size").len();
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("fasta_8mb", |b| {
        b.iter(|| {
            let records = read_fasta_from_path(&fasta, policy).expect("parse FASTA");
            assert_eq!(records[0].seq.len(), REF_LEN);
            records
        })
    });
    group.throughput(Throughput::Elements(READS as u64));
    group.bench_function("fastq_6000", |b| {
        b.iter(|| {
            let records = read_fastq_from_path(&fastq, policy).expect("parse FASTQ");
            assert_eq!(records.len(), READS);
            records
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench);
criterion_main!(benches);
