//! Helpers shared by the integration tests that drive an app's
//! callbacks directly, without a router.

use packetshader::core::App;
use packetshader::io::Packet;
use packetshader::net::Verdict;

/// `app.pre_shade` plus the router's pass right after it, for callers
/// that drive an app directly: the packets it marked off the fast path
/// leave `pkts`, the rest stay in order. Returns `(dropped, slow_path)`.
///
/// # Panics
/// Panics if `pre_shade` removed a packet instead of marking it.
pub fn pre_shade_fast_path<A: App>(app: &mut A, pkts: &mut Vec<Packet>) -> (u64, u64) {
    let n = pkts.len();
    app.pre_shade(pkts);
    assert_eq!(pkts.len(), n, "pre_shade must mark, never remove");
    let slow_path = pkts
        .iter()
        .filter(|p| matches!(p.verdict, Verdict::SlowPath(_)))
        .count();
    pkts.retain(|p| p.verdict == Verdict::FastPath);
    ((n - pkts.len() - slow_path) as u64, slow_path as u64)
}
