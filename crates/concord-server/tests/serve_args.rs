//! `concord-serve` rejects out-of-range policy parameters at the command
//! line instead of starting a dispatcher that panics on them.

use concord_args::ArgError;
use std::process::Command;

/// Runs `concord-serve --policy <policy>` and asserts it exits with the
/// `BadValue` error for that value, before binding anything.
fn assert_rejected(policy: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_concord-serve"))
        .args(["--listen", "127.0.0.1:0", "--policy", policy])
        .output()
        .expect("concord-serve starts");
    let want = ArgError::BadValue {
        flag: "policy".to_string(),
        value: policy.to_string(),
        expected: "ps|fcfs|srpt[:PCT]|boost[:US]".to_string(),
    };
    assert_eq!(out.status.code(), Some(2), "--policy {policy}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("concord-serve: {want}\n")
    );
}

/// Regression (pre-fix failure): `srpt:4294967295` parsed, and the
/// dispatcher's first SRPT estimate panicked on an empty range.
#[test]
fn srpt_noise_above_100_pct_is_a_bad_value() {
    assert_rejected("srpt:4294967295");
    assert_rejected("srpt:101");
}

/// A Boost `B` whose nanosecond value overflows `u64` is refused too.
#[test]
fn overflowing_boost_is_a_bad_value() {
    assert_rejected(&format!("boost:{}", u64::MAX / 1_000 + 1));
}
