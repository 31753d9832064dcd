//! VM image verification — the paper's proposed certificate scheme.
//!
//! From the future-work section: without hardware attestation for
//! post-boot VM images, "Hafnium will require some mechanism of verifying
//! VM signatures to ensure their authenticity and provenance ... leverage
//! certificate verification, where Hafnium is able to verify VM
//! signatures using a known public key that is included as part of the
//! trusted boot sequence."
//!
//! The model uses HMAC-SHA-256 with a boot-time key registry standing in
//! for public-key certificates: the trust structure (keys fixed at boot,
//! per-image signatures verified before launch) is identical even though
//! the primitive is symmetric.

use crate::sha256::{self, HmacKey};

/// A key trusted to sign VM images, installed during trusted boot. It
/// keeps the keyed HMAC state, so checking a signature hashes only the
/// image.
#[derive(Debug, Clone)]
pub struct TrustedKey {
    pub name: String,
    key: HmacKey,
}

impl TrustedKey {
    pub fn new(name: impl Into<String>, key: &[u8]) -> Self {
        TrustedKey {
            name: name.into(),
            key: HmacKey::new(key),
        }
    }

    /// Sign an image (the tooling side — on a real system this happens
    /// offline with the private key).
    pub fn sign(&self, image: &[u8]) -> [u8; sha256::DIGEST_LEN] {
        self.key.mac(image)
    }
}

/// The boot-time registry Hafnium consults before launching any VM image.
#[derive(Debug, Clone, Default)]
pub struct KeyRegistry {
    keys: Vec<TrustedKey>,
    sealed: bool,
}

/// Verification failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// No registered key produced this signature.
    Untrusted,
    /// Registry was sealed (boot completed); no more keys may be added.
    Sealed,
}

impl KeyRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a key. Only possible before `seal()` — keys are part of
    /// the trusted boot sequence, not runtime state.
    pub fn install(&mut self, key: TrustedKey) -> Result<(), VerifyError> {
        if self.sealed {
            return Err(VerifyError::Sealed);
        }
        self.keys.push(key);
        Ok(())
    }

    /// Seal the registry at the end of boot.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Verify an image signature against every registered key; returns
    /// the matching key's name. Constant-time comparison per key.
    pub fn verify(
        &self,
        image: &[u8],
        signature: &[u8; sha256::DIGEST_LEN],
    ) -> Result<&str, VerifyError> {
        for k in &self.keys {
            let expect = k.sign(image);
            if constant_time_eq(&expect, signature) {
                return Ok(&k.name);
            }
        }
        Err(VerifyError::Untrusted)
    }
}

fn constant_time_eq(a: &[u8; sha256::DIGEST_LEN], b: &[u8; sha256::DIGEST_LEN]) -> bool {
    let mut diff = 0u8;
    for i in 0..sha256::DIGEST_LEN {
        diff |= a[i] ^ b[i];
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_and_verify() {
        let key = TrustedKey::new("sandia-release", b"secret");
        let mut reg = KeyRegistry::new();
        reg.install(key.clone()).unwrap();
        reg.seal();
        let image = b"kitten-arm64.bin";
        let sig = key.sign(image);
        assert_eq!(reg.verify(image, &sig), Ok("sandia-release"));
    }

    #[test]
    fn tampered_image_rejected() {
        let key = TrustedKey::new("k", b"secret");
        let mut reg = KeyRegistry::new();
        reg.install(key.clone()).unwrap();
        let sig = key.sign(b"genuine");
        assert_eq!(reg.verify(b"tampered", &sig), Err(VerifyError::Untrusted));
    }

    #[test]
    fn wrong_key_rejected() {
        let good = TrustedKey::new("good", b"k1");
        let evil = TrustedKey::new("evil", b"k2");
        let mut reg = KeyRegistry::new();
        reg.install(good).unwrap();
        let sig = evil.sign(b"image");
        assert_eq!(reg.verify(b"image", &sig), Err(VerifyError::Untrusted));
    }

    #[test]
    fn multiple_keys_identify_signer() {
        let a = TrustedKey::new("a", b"ka");
        let b = TrustedKey::new("b", b"kb");
        let mut reg = KeyRegistry::new();
        reg.install(a).unwrap();
        reg.install(b.clone()).unwrap();
        assert_eq!(reg.verify(b"img", &b.sign(b"img")), Ok("b"));
    }

    proptest::proptest! {
        /// Any single-byte corruption — anywhere in the image or
        /// anywhere in its signature — must fail verification. There
        /// is no byte on the launch path the registry does not cover,
        /// and no nonzero xor mask that collides.
        #[test]
        fn single_byte_flip_defeats_verify(
            image in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..64),
            pos in proptest::arbitrary::any::<usize>(),
            mask in 1usize..256,
            in_signature in proptest::arbitrary::any::<bool>(),
        ) {
            let key = TrustedKey::new("boot", b"registry-key");
            let mut reg = KeyRegistry::new();
            reg.install(key.clone()).unwrap();
            reg.seal();
            let sig = key.sign(&image);
            proptest::prop_assert_eq!(reg.verify(&image, &sig), Ok("boot"));
            if in_signature {
                let mut bad = sig;
                bad[pos % bad.len()] ^= mask as u8;
                proptest::prop_assert_eq!(
                    reg.verify(&image, &bad),
                    Err(VerifyError::Untrusted)
                );
            } else {
                let mut bad = image.clone();
                let i = pos % bad.len();
                bad[i] ^= mask as u8;
                proptest::prop_assert_eq!(
                    reg.verify(&bad, &sig),
                    Err(VerifyError::Untrusted)
                );
            }
        }
    }

    #[test]
    fn sealed_registry_rejects_new_keys() {
        let mut reg = KeyRegistry::new();
        reg.seal();
        assert!(reg.is_sealed());
        assert_eq!(
            reg.install(TrustedKey::new("late", b"k")),
            Err(VerifyError::Sealed)
        );
        assert!(reg.is_empty());
    }
}
