//! # ps-crypto — the IPsec substrate (§6.2.4)
//!
//! From-scratch implementations of exactly the primitives the paper's
//! IPsec gateway uses: **AES-128 in CTR mode** (RFC 3686 framing) for
//! the ESP cipher and **HMAC-SHA1-96** for the authenticator, plus the
//! ESP tunnel-mode encapsulate/decapsulate transforms.
//!
//! Everything is validated against published vectors (FIPS-197,
//! SP 800-38A, RFC 3686, FIPS 180-1, RFC 2202) in unit tests and in
//! the golden KAT suite (`tests/kat.rs`), and round-trip properties
//! are checked with the in-tree `ps-check` harness.
//!
//! The block-level structure mirrors how the paper parallelizes the
//! GPU kernels: AES-CTR keystream blocks are independent ("we chop
//! packets into AES blocks (16B) and map each block to one GPU
//! thread") while SHA-1 blocks chain ("SHA1 cannot be parallelized at
//! the block level"; it parallelizes per packet). The GPU kernel's
//! thread body encrypts one [`aes::ctr_counter_block`] per thread, and
//! its warp XORs a whole run of blocks with one [`aes::ctr_xor`].

pub mod aes;
mod cpu;
pub mod esp;
pub mod hmac;
pub mod sha1;

pub use aes::{Aes128, CtrStream};
pub use cpu::backends;
pub use esp::{decrypt_tunnel, encrypt_tunnel, EspError, SecurityAssociation};
pub use hmac::HmacSha1;
pub use sha1::Sha1;
