//! Micro-benchmarks of the cryptographic substrate: hashing, signing,
//! verification and Merkle tree construction. These are the per-operation
//! costs behind the `CostModel` used by the simulation. SHA-256 figures
//! depend on which compression kernel the host runs, so the bench prints it
//! first.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use setchain::{Element, ElementId};
use setchain_crypto::{
    sha256, sha256_backend, sha256_compress, sha256_compress_portable, sha512, sign, verify,
    HmacSha256Key, KeyRegistry, MerkleTree, ProcessId,
};

type Compress = fn(&mut [u32; 8], &[u8]);

/// One compression call over 1 and 16 blocks, on the portable kernel and on
/// the one this host dispatches to.
fn bench_compress(c: &mut Criterion) {
    println!("sha256 backend: {}", sha256_backend());
    let mut group = c.benchmark_group("sha256_compress");
    for blocks in [1usize, 16] {
        let data = vec![0xabu8; 64 * blocks];
        group.throughput(Throughput::Bytes(data.len() as u64));
        let kernels: [(&str, Compress); 2] = [
            ("portable", sha256_compress_portable),
            ("dispatched", sha256_compress),
        ];
        for (name, compress) in kernels {
            let mut state = [0x6a09_e667u32; 8];
            group.bench_with_input(BenchmarkId::new(name, blocks), &data, |b, d| {
                b.iter(|| {
                    compress(&mut state, black_box(d));
                    state[0]
                })
            });
        }
    }
    group.finish();
}

/// A server's per-element admission check: recompute the element's
/// HMAC-SHA-256 authenticator under its client's precomputed key schedule.
fn bench_hmac_verify_element(c: &mut Criterion) {
    let registry = KeyRegistry::bootstrap(1, 4, 1);
    let keys = registry.lookup(ProcessId::client(0)).unwrap();
    let schedule = HmacSha256Key::new(&keys.secret.0);
    let element = Element::new(&keys, ElementId::new(0, 1), 438, 7);
    c.bench_function("hmac_verify_element", |b| {
        b.iter(|| assert!(black_box(&element).auth_matches(&schedule)))
    });
}

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashing");
    for size in [439usize, 4 * 1024, 64 * 1024, 1024 * 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d))
        });
        group.bench_with_input(BenchmarkId::new("sha512", size), &data, |b, d| {
            b.iter(|| sha512(d))
        });
    }
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let registry = KeyRegistry::bootstrap(1, 4, 1);
    let keys = registry.lookup(ProcessId::server(0)).unwrap();
    let msg = vec![0x42u8; 64];
    let sig = sign(&keys, &msg);
    let mut group = c.benchmark_group("signatures");
    group.bench_function("sign_64B", |b| b.iter(|| sign(&keys, &msg)));
    group.bench_function("verify_64B", |b| b.iter(|| verify(&registry, &msg, &sig)));
    group.finish();
}

fn bench_merkle(c: &mut Criterion) {
    let mut group = c.benchmark_group("merkle");
    for leaves in [128usize, 1024] {
        let items: Vec<Vec<u8>> = (0..leaves)
            .map(|i| format!("tx-{i}").into_bytes())
            .collect();
        group.bench_with_input(BenchmarkId::new("build", leaves), &items, |b, items| {
            b.iter(|| MerkleTree::build(items))
        });
        let tree = MerkleTree::build(&items);
        let proof = tree.prove(leaves / 2);
        let root = tree.root();
        group.bench_with_input(
            BenchmarkId::new("verify_proof", leaves),
            &items,
            |b, items| b.iter(|| proof.verify(&items[leaves / 2], &root)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_hmac_verify_element,
    bench_hashing,
    bench_signatures,
    bench_merkle
);
criterion_main!(benches);
