//! HMAC (RFC 2104) over the in-repo SHA-2 hashers.
//!
//! HMAC is used by the signature substitute ([`crate::signature`]) and is
//! also exposed directly for tests and for deriving deterministic per-process
//! key material in the simulator.

use crate::hash::{Digest256, Digest512, Sha256, Sha512};
use crate::keys::ProcessId;

const BLOCK_256: usize = 64;
const BLOCK_512: usize = 128;

/// Domain-separation tag for batch-root MACs: a root MAC must never verify
/// as an element authenticator or an epoch signature under the same key.
const BATCH_ROOT_DOMAIN: &[u8; 19] = b"setchain-batch-root";

/// A precomputed HMAC-SHA-256 key schedule.
///
/// HMAC spends two of its four-ish compression calls absorbing the padded
/// key (`ipad` into the inner hash, `opad` into the outer). Those two
/// absorptions depend only on the key, so verifying many messages under the
/// same key — a collector batch signed by one client, a vote stream from one
/// validator — can pay them once: `HmacSha256Key::new` captures the
/// post-pad hasher states and [`mac`](Self::mac) finishes from them per
/// message.
#[derive(Clone)]
pub struct HmacSha256Key {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256Key {
    /// Precomputes the key schedule for `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_256];
        if key.len() > BLOCK_256 {
            let d = {
                let mut h = Sha256::new();
                h.update(key);
                h.finalize()
            };
            key_block[..32].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_256];
        let mut opad = [0u8; BLOCK_256];
        for i in 0..BLOCK_256 {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256Key { inner, outer }
    }

    /// HMAC-SHA-256 of `message` under this key. For a message of at most
    /// 119 bytes both finishing hashes pad on the stack and compress
    /// straight from the precomputed pad states.
    pub fn mac(&self, message: &[u8]) -> Digest256 {
        let digest = self.inner.finalize_with(message);
        self.outer.finalize_with(digest.as_bytes())
    }
}

/// A precomputed HMAC-SHA-512 key schedule (see [`HmacSha256Key`]).
#[derive(Clone)]
pub struct HmacSha512Key {
    inner: Sha512,
    outer: Sha512,
}

impl HmacSha512Key {
    /// Precomputes the key schedule for `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_512];
        if key.len() > BLOCK_512 {
            let d = {
                let mut h = Sha512::new();
                h.update(key);
                h.finalize()
            };
            key_block[..64].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_512];
        let mut opad = [0u8; BLOCK_512];
        for i in 0..BLOCK_512 {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha512::new();
        inner.update(&ipad);
        let mut outer = Sha512::new();
        outer.update(&opad);
        HmacSha512Key { inner, outer }
    }

    /// HMAC-SHA-512 of `message` under this key.
    pub fn mac(&self, message: &[u8]) -> Digest512 {
        let mut h = self.inner.clone();
        h.update(message);
        let digest = h.finalize();
        let mut o = self.outer.clone();
        o.update(digest.as_bytes());
        o.finalize()
    }
}

/// The message a batch-root MAC binds: domain tag, owning process, element
/// count and the Merkle root itself. The count is bound so a truncated or
/// extended batch cannot reuse a root MAC even if its root collided.
fn batch_root_message(owner: ProcessId, count: u64, root: &Digest256) -> [u8; 67] {
    let mut msg = [0u8; 67];
    msg[..19].copy_from_slice(BATCH_ROOT_DOMAIN);
    msg[19..27].copy_from_slice(&owner.0.to_le_bytes());
    msg[27..35].copy_from_slice(&count.to_le_bytes());
    msg[35..67].copy_from_slice(root.as_bytes());
    msg
}

/// Compact authenticator over a whole Merkle-batched submission: the first
/// 8 bytes of `HMAC-SHA-256(key, domain ‖ owner ‖ count ‖ root)`, the
/// batch-level twin of the per-element 8-byte authenticator. One MAC covers
/// every element under `root`; membership does the per-element work.
pub fn mac_batch_root(key: &HmacSha256Key, owner: ProcessId, count: u64, root: &Digest256) -> u64 {
    let mac = key.mac(&batch_root_message(owner, count, root));
    u64::from_le_bytes(mac.0[..8].try_into().expect("8 bytes"))
}

/// Verifies a [`mac_batch_root`] authenticator under `key`.
pub fn verify_batch_root(
    key: &HmacSha256Key,
    owner: ProcessId,
    count: u64,
    root: &Digest256,
    mac: u64,
) -> bool {
    mac_batch_root(key, owner, count, root) == mac
}

/// HMAC-SHA-256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest256 {
    HmacSha256Key::new(key).mac(message)
}

/// HMAC-SHA-512 of `message` under `key`.
pub fn hmac_sha512(key: &[u8], message: &[u8]) -> Digest512 {
    HmacSha512Key::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let msg = b"Hi There";
        assert_eq!(
            hmac_sha256(&key, msg).to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hmac_sha512(&key, msg).to_hex(),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
                .replace(char::is_whitespace, "")
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let key = b"Jefe";
        let msg = b"what do ya want for nothing?";
        assert_eq!(
            hmac_sha256(key, msg).to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        assert_eq!(
            hmac_sha512(key, msg).to_hex(),
            "164b7a7bfcf819e2e395fbe73b56e0a387bd64222e831fd610270cd7ea250554\
             9758bf75c05a994a6d034f65f8f0e6fdcaeab1a34d4a6b4b636e070a38bce737"
                .replace(char::is_whitespace, "")
        );
    }

    // RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let msg = [0xddu8; 50];
        assert_eq!(
            hmac_sha256(&key, &msg).to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaau8; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hmac_sha256(&key, msg).to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha512(b"k1", b"m"), hmac_sha512(b"k2", b"m"));
    }

    #[test]
    fn batch_root_mac_binds_every_field() {
        let key = HmacSha256Key::new(b"client secret");
        let owner = ProcessId::client(3);
        let root = crate::hash::sha256(b"root");
        let mac = mac_batch_root(&key, owner, 64, &root);
        assert!(verify_batch_root(&key, owner, 64, &root, mac));
        // Any field change invalidates the MAC.
        assert!(!verify_batch_root(
            &key,
            ProcessId::client(4),
            64,
            &root,
            mac
        ));
        assert!(!verify_batch_root(&key, owner, 65, &root, mac));
        let other_root = crate::hash::sha256(b"other");
        assert!(!verify_batch_root(&key, owner, 64, &other_root, mac));
        assert!(!verify_batch_root(&key, owner, 64, &root, mac ^ 1));
        // ... and so does the key.
        let other_key = HmacSha256Key::new(b"other secret");
        assert!(!verify_batch_root(&other_key, owner, 64, &root, mac));
    }

    #[test]
    fn batch_root_mac_is_domain_separated_from_raw_hmac() {
        // The MAC must not equal an HMAC over the bare root: the domain tag
        // and the (owner, count) binding are part of the message.
        let secret = b"client secret";
        let key = HmacSha256Key::new(secret);
        let root = crate::hash::sha256(b"root");
        let mac = mac_batch_root(&key, ProcessId::client(0), 1, &root);
        let bare = hmac_sha256(secret, root.as_bytes());
        assert_ne!(mac, u64::from_le_bytes(bare.0[..8].try_into().unwrap()));
    }

    #[test]
    fn precomputed_keys_match_one_shots_across_messages() {
        let key = [0x42u8; 32];
        let k256 = HmacSha256Key::new(&key);
        let k512 = HmacSha512Key::new(&key);
        for len in [0usize, 1, 20, 63, 64, 65, 127, 128, 129, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            assert_eq!(k256.mac(&msg), hmac_sha256(&key, &msg), "len={len}");
            assert_eq!(k512.mac(&msg), hmac_sha512(&key, &msg), "len={len}");
        }
        // Long keys go through the hash-the-key path.
        let long_key = [0xAAu8; 200];
        let k = HmacSha256Key::new(&long_key);
        assert_eq!(k.mac(b"m"), hmac_sha256(&long_key, b"m"));
        let k = HmacSha512Key::new(&long_key);
        assert_eq!(k.mac(b"m"), hmac_sha512(&long_key, b"m"));
    }
}
