//! Cryptographic substrate for the Setchain reproduction.
//!
//! The paper relies on three cryptographic primitives:
//!
//! * **SHA-512** ([`sha512`]) for hashing batches and epochs (FIPS 180-4),
//!   plus SHA-256 ([`sha256`]) used internally for identifiers.
//! * **ed25519 signatures** under an assumed PKI. This crate substitutes a
//!   deterministic keyed-hash signature scheme ([`sign`]) whose verification
//!   is mediated by the PKI [`KeyRegistry`]; see `DESIGN.md` §3 for why the
//!   substitution preserves the behaviour the protocols depend on. Signature
//!   material is padded so that epoch-proofs and hash-batches have the same
//!   wire length as in the paper (139 bytes).
//! * A binary [`merkle`] tree, used by the ledger to commit to block
//!   contents and by tests to cross-check batch hashing.
//!
//! Everything in this crate is implemented from scratch on top of `std`;
//! nothing here should be used outside of this reproduction for real
//! security purposes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fxhash;
pub mod hash;
pub mod hmac;
pub mod keys;
pub mod merkle;
pub mod parallel;
pub mod signature;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use hash::{
    sha256, sha256_backend, sha256_compress, sha256_compress_portable, sha256_many, sha512,
    Digest256, Digest512, Sha256, Sha512,
};
pub use hmac::{
    hmac_sha256, hmac_sha512, mac_batch_root, verify_batch_root, HmacSha256Key, HmacSha512Key,
};
pub use keys::{KeyPair, KeyRegistry, ProcessId, PublicKey, SecretKey};
pub use merkle::{domain_hash, framed_hash, merkle_root, MerkleProof, MerkleTree};
pub use parallel::{default_threads, parallel_map, parallel_map_min, MIN_PARALLEL_LEN};
pub use signature::{sign, sign_with, verify, verify_batch, SigVerifier, Signature, SIGNATURE_LEN};

/// Length in bytes of an epoch-proof / hash-batch on the wire, as reported in
/// the paper's evaluation section (Section 4): 139 bytes.
pub const PROOF_WIRE_LEN: usize = 139;
