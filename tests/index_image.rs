//! Integration tests for the zero-copy index image pipeline: build an
//! image once, mmap it back (the verifying open and the `open_fast`
//! startup path), and prove the mapped index is bit-identical to a
//! freshly built one across every backend, kernel, and worker count;
//! fuzz the on-disk format with truncations and bit flips (typed errors,
//! never a panic); refuse an image missing partitions' CAM planes with a
//! typed error naming the lowest such partition at every worker count;
//! hot-swap the image under a live `casa-serve` with concurrent clients
//! in flight — zero dropped or erroring requests; and refuse a version-1
//! image (separate tag and data arrays) with a typed error from both
//! opens and from `/admin/reload`, and a version-2 image (one filter per
//! partition) and a version-3 image (16-byte filter rows) with a typed
//! error naming both versions; and seed without a tile panic from an
//! image whose filter rows hold offsets past the partition tail.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use casa::core::{
    build_index_image, BackendKind, CasaConfig, Error, FaultPlan, IndexImageError, KernelBackend,
    LoadedIndex, SeedingSession,
};
use casa::filter::PreSeedingFilter;
use casa::genome::synth::{generate_reference, ReferenceProfile};
use casa::genome::{PackedSeq, ReadSimConfig, ReadSimulator};
use casa::serve::{IndexProvenance, ServeConfig, Server};
use casa::Seeder;
use casa_index::image::{ImageBuilder, ImageError, IndexImage, SectionKind};
use casa_index::Smem;

const REF_LEN: usize = 24_000;
const PART_LEN: usize = 7_000;
const READ_LEN: usize = 101;

/// A scratch directory unique to this test binary + test name; removed
/// and recreated so reruns start clean.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("casa_index_image_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn workload(read_count: usize) -> (PackedSeq, Vec<PackedSeq>) {
    let reference = generate_reference(&ReferenceProfile::human_like(), REF_LEN, 99);
    let reads = ReadSimulator::new(ReadSimConfig::default(), 41)
        .simulate(&reference, read_count)
        .into_iter()
        .map(|r| r.seq)
        .collect();
    (reference, reads)
}

fn build_image(reference: &PackedSeq, config: CasaConfig, path: &Path) -> LoadedIndex {
    build_index_image(reference, config, path).expect("image builds");
    LoadedIndex::open(path).expect("image maps back")
}

#[test]
fn mapped_index_is_bit_identical_across_backends_kernels_and_workers() {
    let (reference, reads) = workload(20);
    let config = CasaConfig::paper(PART_LEN, READ_LEN);
    let dir = scratch_dir("matrix");
    let path = dir.join("ref.casaimg");
    let index = build_image(&reference, config, &path);
    // The casa-serve startup mapping: header + meta verified, payload
    // checksums deferred.
    let fast = LoadedIndex::open_fast(&path).expect("image maps back fast");

    // Golden stream: a fresh (non-mapped) single-worker CAM session.
    let golden = SeedingSession::with_backend(
        &reference,
        config,
        1,
        FaultPlan::default(),
        BackendKind::Cam,
    )
    .expect("fresh session")
    .seed_reads(&reads);
    assert!(
        golden.smems.iter().any(|s| !s.is_empty()),
        "workload must produce SMEMs"
    );

    for (open, mapped) in [("open", &index), ("open_fast", &fast)] {
        for backend in BackendKind::ALL {
            for kernel in KernelBackend::supported() {
                for workers in [1, 2, 8] {
                    let session =
                        SeedingSession::from_image(mapped, workers, FaultPlan::default(), backend)
                            .and_then(|s| s.with_kernel_backend(kernel))
                            .expect("mapped session");
                    let run = session.seed_reads(&reads);
                    assert_eq!(
                        run.smems, golden.smems,
                        "{open} {backend:?}/{kernel:?}/workers={workers} diverged from fresh build"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn image_missing_cam_planes_fails_typed_naming_the_lowest_partition() {
    let (reference, _) = workload(0);
    let config = CasaConfig::small(3_000);
    let dir = scratch_dir("holes");
    let full = dir.join("full.casaimg");
    build_index_image(&reference, config, &full).expect("image builds");
    // Copy every section except the CAM planes of partitions 3 and 5.
    let image = IndexImage::open(&full).expect("image maps back");
    assert!(image.partitions() >= 6, "workload must span 6 partitions");
    let mut builder = ImageBuilder::new(image.config_bytes());
    for section in image.sections() {
        let kind = SectionKind::from_code(section.kind).expect("known section kind");
        if kind == SectionKind::CamPlanes && [3, 5].contains(&section.partition) {
            continue;
        }
        let bytes = image.section_bytes(section);
        builder.add_bytes(kind, section.partition, bytes, section.elem_count);
    }
    let holes = dir.join("holes.casaimg");
    builder.write_file(&holes).expect("write image with holes");
    let index = LoadedIndex::open(&holes).expect("image with holes maps back");
    for workers in [1, 2, 8] {
        match SeedingSession::from_image(&index, workers, FaultPlan::default(), BackendKind::Cam) {
            Err(Error::Image { what }) => assert!(
                what.contains("partition 3") && what.contains("CAM planes"),
                "workers={workers}: error must name partition 3's CAM planes: {what}"
            ),
            other => panic!("workers={workers}: expected Error::Image, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Tiny deterministic RNG (xorshift64*) so the corruption fuzz needs no
/// external crates and reruns reproduce the same byte positions.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Writes `bytes` to a fresh file and tries to map it, asserting the
/// attempt never panics. Returns the open result.
fn open_bytes(path: &Path, bytes: &[u8]) -> Result<LoadedIndex, impl std::fmt::Display> {
    std::fs::write(path, bytes).expect("write corrupt image");
    LoadedIndex::open(path)
}

#[test]
fn corrupt_images_fail_typed_and_never_panic() {
    let reference = generate_reference(&ReferenceProfile::human_like(), 9_000, 5);
    let config = CasaConfig::small(3_000);
    let dir = scratch_dir("corrupt");
    let clean_path = dir.join("clean.casaimg");
    let index = build_image(&reference, config, &clean_path);
    let original_config = *index.config();
    drop(index);
    let clean = std::fs::read(&clean_path).expect("read image bytes");
    let probe = dir.join("probe.casaimg");
    let mut rng = XorShift(0x5eed_cafe_f00d_0001);

    // Truncation at every regime: empty, mid-header, mid-meta, mid-payload.
    let mut cuts = vec![0, 1, 16, 63, 64, clean.len() - 1];
    for _ in 0..16 {
        cuts.push(rng.below(clean.len()));
    }
    for cut in cuts {
        let result = open_bytes(&probe, &clean[..cut]);
        assert!(
            result.is_err(),
            "truncation to {cut} bytes must be a typed error"
        );
    }

    // Header bit flips: every header byte participates in the checksum
    // (or IS the checksum), so any flip must be rejected.
    for byte in 0..64 {
        let mut bytes = clean.clone();
        bytes[byte] ^= 1 << rng.below(8);
        let result = open_bytes(&probe, &bytes);
        assert!(
            result.is_err(),
            "header bit flip at byte {byte} must be a typed error"
        );
    }

    // Random flips anywhere in the file: either rejected, or the flip
    // landed in bytes that don't change the decoded index (page padding)
    // — in which case the mapped index must still be semantically clean.
    for _ in 0..100 {
        let mut bytes = clean.clone();
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(8);
        match open_bytes(&probe, &bytes) {
            Err(_) => {}
            Ok(index) => {
                assert_eq!(
                    index.config(),
                    &original_config,
                    "flip at {at} changed config"
                );
                assert_eq!(
                    index.reference(),
                    &reference,
                    "flip at {at} changed the decoded reference"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

struct Response {
    status: u16,
    body: Vec<u8>,
}

/// One HTTP/1.1 request over a fresh connection; reads to EOF (the
/// server closes every connection after its response).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: casa\r\n");
    head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let status = std::str::from_utf8(&raw[..header_end])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
    Ok(Response {
        status,
        body: raw[header_end + 4..].to_vec(),
    })
}

fn expected_tsv(index: &LoadedIndex, reads: &[PackedSeq]) -> String {
    let run = Seeder::from_image_with(index, 1, FaultPlan::default(), BackendKind::Cam)
        .expect("mapped seeder")
        .seed_reads(reads);
    let mut out = String::new();
    for (ri, smems) in run.smems.iter().enumerate() {
        for Smem {
            read_start,
            read_end,
            hits,
        } in smems
        {
            let joined = hits
                .iter()
                .map(|h| h.to_string())
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&format!("{ri}\t{read_start}\t{read_end}\t{joined}\n"));
        }
    }
    out
}

#[test]
fn serve_hot_swaps_images_under_load_without_dropping_requests() {
    let (reference, reads) = workload(10);
    let config = CasaConfig::paper(PART_LEN, READ_LEN);
    let dir = scratch_dir("hotswap");
    let path_a = dir.join("a.casaimg");
    let path_b = dir.join("b.casaimg");
    let index_a = build_image(&reference, config, &path_a);
    // Image B holds the same reference + config, so responses stay
    // byte-identical across the swap and any divergence is a swap bug.
    build_index_image(&reference, config, &path_b).expect("image B builds");
    let expected = expected_tsv(&index_a, &reads);
    assert!(!expected.is_empty(), "workload must produce SMEMs");

    let mut serve = ServeConfig {
        seed_workers: 2,
        ..ServeConfig::default()
    };
    serve.limits.queue_depth = 64;
    let fingerprint = index_a.fingerprint();
    let seeder = Seeder::from_image_with(&index_a, 2, FaultPlan::default(), BackendKind::Cam)
        .expect("mapped seeder");
    let server = Server::start_with_index(
        seeder,
        serve,
        IndexProvenance::mapped(fingerprint, path_a.clone()),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // /health reports the mapped provenance before any swap.
    let health = request(addr, "GET", "/health", &[], b"").unwrap();
    let health_text = String::from_utf8(health.body).unwrap();
    assert!(
        health_text.contains("\"generation\":\"gen-1\""),
        "{health_text}"
    );
    assert!(
        health_text.contains("\"provenance\":\"mapped\""),
        "{health_text}"
    );
    assert!(
        health_text.contains(&format!("{fingerprint:016x}")),
        "{health_text}"
    );

    // Clients hammer /seed while the main thread swaps images back and
    // forth. Every single response must be a 200 carrying the exact TSV.
    let body = {
        let mut s = String::new();
        for read in &reads {
            s.push_str(&read.to_string());
            s.push('\n');
        }
        s
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|ci| {
                let body = body.as_str();
                let expected = expected.as_str();
                scope.spawn(move || {
                    let tenant = format!("tenant-{ci}");
                    for _ in 0..8 {
                        let resp = request(
                            addr,
                            "POST",
                            "/seed",
                            &[("X-Casa-Tenant", &tenant)],
                            body.as_bytes(),
                        )
                        .expect("request survives the swap");
                        assert_eq!(resp.status, 200, "request failed during hot swap");
                        assert_eq!(
                            String::from_utf8(resp.body).unwrap(),
                            expected,
                            "response diverged during hot swap"
                        );
                    }
                })
            })
            .collect();
        for round in 0..4 {
            let target = if round % 2 == 0 { &path_b } else { &path_a };
            let resp = request(
                addr,
                "POST",
                "/admin/reload",
                &[],
                target.display().to_string().as_bytes(),
            )
            .expect("reload reachable");
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            std::thread::sleep(Duration::from_millis(20));
        }
        for client in clients {
            client.join().expect("client thread clean");
        }
    });

    // Four swaps happened; a bad path must fail typed without swapping.
    let handle = server.handle();
    assert_eq!(handle.reloads(), 4);
    assert_eq!(handle.generation_label(), "gen-5");
    let resp = request(addr, "POST", "/admin/reload", &[], b"/nonexistent.casaimg").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(handle.reloads(), 4, "failed reload must not swap");
    // An empty body re-maps the active generation's own image.
    let resp = request(addr, "POST", "/admin/reload", &[], b"").unwrap();
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(handle.generation_label(), "gen-6");
    let health = request(addr, "GET", "/health", &[], b"").unwrap();
    let health_text = String::from_utf8(health.body).unwrap();
    assert!(
        health_text.contains("\"generation\":\"gen-6\""),
        "{health_text}"
    );

    // Generation bookkeeping is visible to scrapers too.
    let metrics = request(addr, "GET", "/metrics", &[], b"").unwrap();
    let metrics_text = String::from_utf8(metrics.body).unwrap();
    assert!(
        metrics_text.contains("casa_index_generation 6"),
        "{metrics_text}"
    );
    assert!(
        metrics_text.contains("casa_index_reloads_total 5"),
        "{metrics_text}"
    );

    assert!(server.shutdown().clean(), "drain must be clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filter_rows_past_the_partition_tail_seed_without_a_panic() {
    // Rows whose offsets a corrupt image moved at or past a partition's
    // tail (in and out of the CAM's entry range) or onto their
    // neighbour's: only payload checksums catch them, which `open_fast`
    // skips and a re-sealed image passes. The CAM's occurrence lists
    // must stay strictly ascending and in range, so seeding completes
    // without a tile panic.
    let (reference, reads) = workload(30);
    let config = CasaConfig::paper(PART_LEN, READ_LEN);
    let dir = scratch_dir("rows-past-tail");
    let clean = dir.join("clean.casaimg");
    build_index_image(&reference, config, &clean).expect("image builds");
    let image = IndexImage::open(&clean).expect("image maps back");
    // Past every full partition's tail (its last k - 1 offsets), still
    // inside its CAM; out of range of the shorter last partition.
    let past_tail = (PART_LEN + READ_LEN - 6) as u64;
    let mut builder = ImageBuilder::new(image.config_bytes());
    for section in image.sections() {
        let kind = SectionKind::from_code(section.kind).expect("known section kind");
        let bytes = image.section_bytes(section);
        if kind != SectionKind::FilterData {
            builder.add_bytes(kind, section.partition, bytes, section.elem_count);
            continue;
        }
        let rows: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
            .collect();
        let corrupt: Vec<u64> = (0..rows.len())
            .map(|i| {
                let offset = match i % 4 {
                    0 => u64::from(u32::MAX),
                    1 => past_tail,
                    2 => rows.get(i + 1).unwrap_or(&rows[i]) & 0xffff_ffff,
                    _ => rows[i] & 0xffff_ffff,
                };
                rows[i] & !0xffff_ffff | offset
            })
            .collect();
        builder.add_u64s(kind, section.partition, corrupt);
    }
    let path = dir.join("corrupt.casaimg");
    builder.write_file(&path).expect("write corrupt image");
    for (open, mapped) in [
        ("open", LoadedIndex::open(&path)),
        ("open_fast", LoadedIndex::open_fast(&path)),
    ] {
        let mapped = mapped.expect("a re-sealed image opens");
        for workers in [1, 2] {
            let run = SeedingSession::from_image(
                &mapped,
                workers,
                FaultPlan::default(),
                BackendKind::Cam,
            )
            .expect("mapped session")
            .seed_reads(&reads);
            let recovered = (
                run.stats.tile_retries,
                run.stats.partitions_quarantined,
                run.stats.fallback_reads,
            );
            assert_eq!(
                recovered,
                (0, 0, 0),
                "{open}, workers={workers}: a tile failed"
            );
            assert!(
                run.stats.rmem_searches > 0,
                "{open}: no pivot reached the CAM"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrites the image at `path` to claim format `version`, re-sealing the
/// header checksum (FNV-1a over header bytes 0..56) so only the version
/// check can reject it.
fn rewrite_version(path: &Path, version: u32) {
    let mut raw = std::fs::read(path).expect("read image");
    raw[8..12].copy_from_slice(&version.to_le_bytes());
    let mut sum: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &raw[..56] {
        sum ^= u64::from(b);
        sum = sum.wrapping_mul(0x100_0000_01b3);
    }
    raw[56..64].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, raw).expect("write image");
}

#[test]
fn version_one_images_are_refused_typed_by_open_and_reload() {
    let (reference, reads) = workload(6);
    let config = CasaConfig::paper(PART_LEN, READ_LEN);
    let dir = scratch_dir("v1");
    let current = dir.join("current.casaimg");
    let old = dir.join("v1.casaimg");
    let index = build_image(&reference, config, &current);
    build_index_image(&reference, config, &old).expect("image builds");
    rewrite_version(&old, 1);

    for (name, opened) in [
        ("open", LoadedIndex::open(&old)),
        ("open_fast", LoadedIndex::open_fast(&old)),
    ] {
        let err = opened.expect_err("a version-1 image must not open");
        assert!(
            matches!(err, IndexImageError::Image(ImageError::BadVersion(1))),
            "{name}: {err:?}"
        );
        assert!(
            err.to_string()
                .contains("unsupported index image version 1"),
            "{name}: {err}"
        );
    }

    // A live server refuses the old image and keeps serving generation 1.
    let expected = expected_tsv(&index, &reads);
    let seeder = Seeder::from_image_with(&index, 1, FaultPlan::default(), BackendKind::Cam)
        .expect("mapped seeder");
    let server = Server::start_with_index(
        seeder,
        ServeConfig::default(),
        IndexProvenance::mapped(index.fingerprint(), current.clone()),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let resp = request(
        addr,
        "POST",
        "/admin/reload",
        &[],
        old.display().to_string().as_bytes(),
    )
    .expect("reload reachable");
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    assert_eq!(resp.status, 400, "{text}");
    assert!(text.contains("unsupported index image version 1"), "{text}");
    let handle = server.handle();
    assert_eq!(handle.reloads(), 0, "a refused reload must not swap");
    assert_eq!(handle.generation_label(), "gen-1");
    let body: String = reads.iter().map(|r| format!("{r}\n")).collect();
    let resp = request(addr, "POST", "/seed", &[], body.as_bytes()).expect("seed reachable");
    assert_eq!(resp.status, 200);
    assert_eq!(String::from_utf8(resp.body).unwrap(), expected);
    assert!(server.shutdown().clean(), "drain must be clean");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_two_images_are_refused_naming_both_versions() {
    // A version-2 image as that format laid it out: one filter section
    // pair per partition, each partition's own filter.
    let (reference, _) = workload(0);
    let config = CasaConfig::small(7_000);
    let dir = scratch_dir("v2");
    let current = dir.join("current.casaimg");
    build_index_image(&reference, config, &current).expect("image builds");
    let image = IndexImage::open(&current).expect("image maps back");
    let mut builder = ImageBuilder::new(image.config_bytes());
    for section in image.sections() {
        let kind = SectionKind::from_code(section.kind).expect("known section kind");
        if !matches!(kind, SectionKind::FilterMini | SectionKind::FilterData) {
            let bytes = image.section_bytes(section);
            builder.add_bytes(kind, section.partition, bytes, section.elem_count);
        }
    }
    let parts = config.partitioning.split(&reference);
    assert!(parts.len() > 1, "workload must span several partitions");
    for p in &parts {
        let filter = PreSeedingFilter::build(&p.seq, config.filter);
        builder.add_u32s(SectionKind::FilterMini, p.index as u32, filter.mini_index());
        builder.add_u64s(SectionKind::FilterData, p.index as u32, filter.row_words());
    }
    let old = dir.join("v2.casaimg");
    builder.write_file(&old).expect("write version-2 layout");
    rewrite_version(&old, 2);
    assert_refused_naming_both_versions(&old, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both opens refuse the image at `path` with the typed
/// [`ImageError::BadVersion`] of `version`, naming it and the supported
/// version 4.
fn assert_refused_naming_both_versions(path: &Path, version: u32) {
    for (name, opened) in [
        ("open", LoadedIndex::open(path)),
        ("open_fast", LoadedIndex::open_fast(path)),
    ] {
        let err = opened.expect_err("an image of another version must not open");
        assert!(
            matches!(err, IndexImageError::Image(ImageError::BadVersion(v)) if v == version),
            "{name}: {err:?}"
        );
        let text = err.to_string();
        assert!(
            text.contains(&format!("version {version}")) && text.contains("supported: 4"),
            "{name}: the error must name both versions: {text}"
        );
    }
}

#[test]
fn version_three_images_are_refused_and_filter_rows_are_one_word_each() {
    // The current image's filter section holds one 8-byte word per row:
    // a return to 16-byte rows would double its element count.
    let (reference, _) = workload(0);
    let config = CasaConfig::small(7_000);
    let dir = scratch_dir("v3");
    let current = dir.join("current.casaimg");
    build_index_image(&reference, config, &current).expect("image builds");
    let image = IndexImage::open(&current).expect("image maps back");
    let parts = config.partitioning.split(&reference);
    let seqs: Vec<&PackedSeq> = parts.iter().map(|p| &p.seq).collect();
    let filter = PreSeedingFilter::build_partitions(&seqs, config.filter, 1).expect("fits");
    let data = image
        .sections()
        .iter()
        .find(|s| SectionKind::from_code(s.kind) == Some(SectionKind::FilterData))
        .expect("a filter row section");
    assert_eq!(data.elem_count, filter.rows() as u64);
    assert_eq!(data.byte_len(), 8 * filter.rows());

    // A version-3 image as that format laid it out: two words per row,
    // the start mask, then groups | tag << 32.
    let mut builder = ImageBuilder::new(image.config_bytes());
    for section in image.sections() {
        let kind = SectionKind::from_code(section.kind).expect("known section kind");
        if kind != SectionKind::FilterData {
            let bytes = image.section_bytes(section);
            builder.add_bytes(kind, section.partition, bytes, section.elem_count);
        }
    }
    let (stride, groups) = (config.filter.stride, config.filter.groups);
    let wide: Vec<u64> = filter
        .row_words()
        .iter()
        .flat_map(|&row| {
            let x = row as u32 as usize;
            let group = 1u64 << ((x / stride) % groups);
            [1u64 << (x % stride), group | (row >> 32) << 32]
        })
        .collect();
    builder.add_u64s(SectionKind::FilterData, 0, wide);
    let old = dir.join("v3.casaimg");
    builder.write_file(&old).expect("write version-3 layout");
    rewrite_version(&old, 3);
    assert_refused_naming_both_versions(&old, 3);
    let _ = std::fs::remove_dir_all(&dir);
}
