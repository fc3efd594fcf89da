//! Runtime CPU feature checks for the accelerated backends, in one
//! place. `is_x86_feature_detected!` caches its probe, so each check
//! is a load and a bit test; on other architectures every check is
//! `false` and the portable paths run.

use std::sync::OnceLock;

/// AES-NI: the `aesenc` path of [`crate::aes`].
#[inline]
pub(crate) fn aes_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// VAES + AVX-512 F + BW: the 16-blocks-in-flight `ctr_xor` of
/// [`crate::aes`] (four 512-bit registers of four blocks each, byte
/// masks for the tail).
#[inline]
pub(crate) fn vaes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("vaes") && avx512()
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// SHA-NI: the `sha1rnds4` compression of [`crate::sha1`].
#[inline]
pub(crate) fn sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// AVX-512 F + BW: the 16-lane HMAC of
/// [`crate::HmacSha1::mac96_many`].
#[inline]
pub(crate) fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Which code this host runs for each primitive, e.g.
/// `aes=vaes sha1=ni hmac-many=avx512x16`. For logs beside host-time
/// numbers; no output that is compared byte for byte prints it.
pub fn backends() -> &'static str {
    static LINE: OnceLock<String> = OnceLock::new();
    LINE.get_or_init(|| {
        format!(
            "aes={} sha1={} hmac-many={}",
            if vaes() {
                "vaes"
            } else if aes_ni() {
                "ni"
            } else {
                "ttable"
            },
            if sha_ni() { "ni" } else { "scalar" },
            if avx512() { "avx512x16" } else { "single" },
        )
    })
}
