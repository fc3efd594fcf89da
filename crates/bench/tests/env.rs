//! A tooling variable takes effect: a mistyped one stops `ps-bench`
//! with a message naming the variable, instead of running with its
//! default, and a well-formed one is never silently ignored.

use std::process::Command;

/// Run `ps-bench fig5` with `var=value`; require a nonzero exit and
/// return its stderr.
fn fails_with(var: &str, value: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ps-bench"))
        .arg("fig5")
        .env(var, value)
        .output()
        .expect("ps-bench starts");
    assert!(!out.status.success(), "{var}={value} ran to completion");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_ps_bench_ms_panics_naming_it() {
    for value in ["2ms", "0"] {
        let stderr = fails_with("PS_BENCH_MS", value);
        assert!(stderr.contains("PS_BENCH_MS"), "{stderr}");
    }
}

#[test]
fn malformed_ps_trace_cap_panics_naming_it() {
    let stderr = fails_with("PS_TRACE_CAP", "64k");
    assert!(stderr.contains("PS_TRACE_CAP"), "{stderr}");
}

#[test]
fn ps_trace_cap_sizes_reproduce_ring_while_ps_trace_is_off() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["--app", "minimal", "--ms", "1"])
        .env_remove("PS_TRACE")
        .env("PS_TRACE_CAP", "1000")
        .output()
        .expect("reproduce starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(ring-evicted events: "), "{stdout}");
}
