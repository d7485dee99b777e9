//! Primitive calibration on the run's own data: the committed epochs of a
//! traced run are replayed through the public crypto, codec and store
//! functions, and the simulated `CostModel` is compared with what the same
//! operations cost on this host.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use setchain::collector::Batch;
use setchain::{CostModel, Element, ElementGenerator};
use setchain_crypto::{sha256, KeyRegistry, ProcessId};
use setchain_store::{DiskStore, EpochRecord, StateStore};
use setchain_workload::Deployment;

use crate::report::Metric;
use crate::workload::Spec;

/// Upper bound on replayed elements, so calibration stays a small share of
/// a run.
const MAX_REPLAY: usize = 20_000;
/// Minimum host time spent timing each primitive.
const MIN_TIMED_S: f64 = 0.05;
/// Compresschain's chunk length for batch frames.
const BATCH_CHUNK_LEN: usize = 16 * 1024;

/// Repeats `f` until at least `min_s` host seconds have passed; returns
/// seconds per unit, where each call of `f` reports the units it processed.
fn secs_per_unit(min_s: f64, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += f();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_s && units > 0 {
            return elapsed / units as f64;
        }
    }
}

/// SHA-256 throughput over a fixed 1 MiB buffer, MiB/s: a probe of host
/// speed taken before every run, so drift between two sets of runs shows.
pub fn host_ref_mib_s() -> f64 {
    let buf: Vec<u8> = (0..1u32 << 20).map(|i| (i * 2_654_435_761) as u8).collect();
    1.0 / secs_per_unit(0.1, || {
        black_box(sha256(black_box(&buf)));
        1
    })
}

/// One committed epoch as replayed.
pub struct Epoch {
    digest: [u8; 64],
    elements: Vec<Element>,
    proofs: Vec<u8>,
}

/// Server 0's resident non-empty committed epochs, oldest first, up to
/// [`MAX_REPLAY`] elements.
pub fn resident_epochs(d: &Deployment) -> Vec<Epoch> {
    let h = d.server(0);
    let state = h.state();
    let mut out = Vec::new();
    let mut total = 0;
    for epoch in 1..=state.epoch() {
        let (Some(elements), Some(digest)) =
            (h.app().epoch_elements(epoch), state.epoch_digest(epoch))
        else {
            continue;
        };
        if elements.is_empty() || state.proof_count(epoch) == 0 {
            continue;
        }
        if total + elements.len() > MAX_REPLAY {
            break;
        }
        total += elements.len();
        let mut proofs = Vec::new();
        for p in state.proofs_for(epoch) {
            proofs.extend_from_slice(&p.epoch.to_le_bytes());
            proofs.extend_from_slice(&p.signer.0.to_le_bytes());
            proofs.extend_from_slice(&p.signature.bytes);
        }
        out.push(Epoch {
            digest: digest.0,
            elements: elements.to_vec(),
            proofs,
        });
    }
    out
}

/// The non-empty epochs a server persisted, oldest first, up to
/// [`MAX_REPLAY`] elements: read back from its store once the deployment
/// that wrote it is gone.
pub fn stored_epochs(dir: &Path) -> Vec<Epoch> {
    let store = DiskStore::open(dir, 8 << 20, 64).expect("the run's store reopens");
    let mut out = Vec::new();
    let mut total = 0;
    for epoch in 1..=store.tip() {
        let record = store
            .load_epoch(epoch)
            .expect("stored epochs read back")
            .expect("epochs up to the tip are stored");
        let elements: Vec<Element> = record
            .elements
            .chunks_exact(Element::PACKED_LEN)
            .map(|c| Element::unpack(c.try_into().expect("exact chunks")))
            .collect();
        if elements.is_empty() {
            continue;
        }
        if total + elements.len() > MAX_REPLAY {
            break;
        }
        total += elements.len();
        out.push(Epoch {
            digest: record.digest,
            elements,
            proofs: record.proofs,
        });
    }
    out
}

/// The calibration metrics over a traced run's committed epochs.
pub fn calibrate(spec: &Spec, epochs: &[Epoch], registry: &KeyRegistry, dir: &Path) -> Vec<Metric> {
    let elements: Vec<Element> = epochs
        .iter()
        .flat_map(|e| e.elements.iter().copied())
        .collect();
    let n = elements.len().max(1) as u64;
    let mut out: Vec<Metric> = Vec::new();

    // Per-element MAC verification with per-client key schedules, as the
    // servers' batched validation does it.
    let mut by_client: Vec<(ProcessId, ElementGenerator, Vec<Element>)> = Vec::new();
    for e in &elements {
        match by_client.iter_mut().find(|(c, _, _)| *c == e.client) {
            Some((_, _, v)) => v.push(*e),
            None => {
                let keys = registry.lookup(e.client).expect("clients are registered");
                by_client.push((e.client, ElementGenerator::new(keys), vec![*e]));
            }
        }
    }
    let hmac_s = secs_per_unit(MIN_TIMED_S, || {
        let mut ok = 0u64;
        for (_, generator, batch) in &by_client {
            for e in batch {
                ok += black_box(e.auth_matches(generator.auth_key())) as u64;
            }
        }
        assert_eq!(ok, n, "every committed element authenticates");
        n
    });
    out.push(("crypto.hmac_verify_ns".into(), hmac_s * 1e9, "ns"));

    // Hashing and Merkle roots over the materialized epoch contents.
    let mut raw = Vec::new();
    for e in &elements {
        e.materialize_into(&mut raw);
    }
    let sha_s_per_byte = secs_per_unit(MIN_TIMED_S, || {
        black_box(sha256(black_box(&raw)));
        raw.len() as u64
    });
    let sha_mib_s = 1.0 / (sha_s_per_byte * (1 << 20) as f64);
    out.push(("crypto.sha256_mib_s".into(), sha_mib_s, "MiB/s"));
    let merkle_s = secs_per_unit(MIN_TIMED_S, || {
        for epoch in epochs {
            black_box(setchain::proofs::epoch_root(black_box(&epoch.elements)));
        }
        n
    });
    out.push((
        "crypto.merkle_root_ns_per_element".into(),
        merkle_s * 1e9,
        "ns",
    ));

    // The batch codec over collector-sized batches of the same elements.
    let batches: Vec<Vec<u8>> = elements
        .chunks(spec.collector)
        .map(|chunk| {
            let batch = Batch {
                elements: chunk.to_vec(),
                proofs: Vec::new(),
            };
            let mut buf = Vec::new();
            batch.encode_elements_into(&mut buf);
            buf
        })
        .collect();
    let raw_bytes: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let frames: Vec<Vec<u8>> = batches
        .iter()
        .map(|b| setchain_compress::compress_chunked_with(b, BATCH_CHUNK_LEN))
        .collect();
    let framed_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
    let compress_s = secs_per_unit(MIN_TIMED_S, || {
        for b in &batches {
            black_box(setchain_compress::compress_chunked_with(
                black_box(b),
                BATCH_CHUNK_LEN,
            ));
        }
        raw_bytes
    });
    let mut scratch = Vec::new();
    let decompress_s = secs_per_unit(MIN_TIMED_S, || {
        for f in &frames {
            setchain_compress::decompress_chunked_into(black_box(f), &mut scratch)
                .expect("a frame this codec produced decodes");
        }
        raw_bytes
    });
    let mib = (1 << 20) as f64;
    out.push((
        "compress.ratio".into(),
        raw_bytes as f64 / framed_bytes.max(1) as f64,
        "x",
    ));
    out.push((
        "compress.compress_mib_s".into(),
        1.0 / (compress_s * mib),
        "MiB/s",
    ));
    out.push((
        "compress.decompress_mib_s".into(),
        1.0 / (decompress_s * mib),
        "MiB/s",
    ));

    // The segment store: append every replayed epoch to a fresh store, then
    // read each back.
    let store_dir = crate::workload::fresh_dir(dir, "calibration-store");
    let records: Vec<EpochRecord> = epochs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut packed = Vec::with_capacity(e.elements.len() * Element::PACKED_LEN);
            for el in &e.elements {
                packed.extend_from_slice(&el.pack());
            }
            EpochRecord::new(i as u64 + 1, e.digest, packed, e.proofs.clone())
        })
        .collect();
    let mut store = DiskStore::open(&store_dir, 8 << 20, 64).expect("calibration store opens");
    let start = Instant::now();
    for record in &records {
        store.append_epoch(record).expect("calibration append");
    }
    let append_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for record in &records {
        let back = store.load_epoch(record.epoch).expect("calibration read");
        assert_eq!(
            back.as_ref(),
            Some(record),
            "the store returns what it stored"
        );
    }
    let readback_s = start.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    let count = records.len().max(1) as f64;
    out.push((
        "store.append_us_per_epoch".into(),
        append_s * 1e6 / count,
        "us",
    ));
    out.push((
        "store.readback_us_per_epoch".into(),
        readback_s * 1e6 / count,
        "us",
    ));

    // The simulated cost model against the host.
    let model = CostModel::default();
    let server = registry
        .lookup(ProcessId::server(0))
        .expect("server 0 is registered");
    let msg = [7u8; 64];
    let sig = setchain_crypto::sign(&server, &msg);
    let sign_s = secs_per_unit(MIN_TIMED_S, || {
        black_box(setchain_crypto::sign(&server, black_box(&msg)));
        1
    });
    let verify_s = secs_per_unit(MIN_TIMED_S, || {
        assert!(setchain_crypto::verify(registry, black_box(&msg), &sig));
        1
    });
    let hash_s_per_kib = sha_s_per_byte * 1024.0;
    let secs = |d: setchain_simnet::SimDuration| d.as_micros() as f64 / 1e6;
    out.push((
        "costmodel.sign_model_over_host".into(),
        secs(model.sign) / sign_s,
        "x",
    ));
    out.push((
        "costmodel.verify_model_over_host".into(),
        secs(model.verify_signature) / verify_s,
        "x",
    ));
    out.push((
        "costmodel.hash_model_over_host".into(),
        secs(model.hash_per_kib) / hash_s_per_kib,
        "x",
    ));
    out
}
