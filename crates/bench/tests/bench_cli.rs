//! `bench_kernels`, `bench_population` and `chaos_resume` refuse an
//! unknown flag and a missing or malformed flag value by name, and
//! `chaos_resume` a missing mode or child setting, each with exit
//! code 1, a plain-text message after the binary's name and no panic,
//! before they run anything.

use std::path::Path;
use std::process::Command;

/// Runs `bin` with `args` and `env` in a fresh directory and returns
/// its stderr, asserting that it exited 1, printed its error as plain
/// text after its own name, did not panic and wrote nothing.
fn refused(bin: &str, tag: &str, args: &[&str], env: &[(&str, &str)]) -> String {
    let dir = std::env::temp_dir().join(format!("helcfl_bench_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out =
        Command::new(bin).args(args).envs(env.iter().copied()).current_dir(&dir).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?} {env:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
    let name = Path::new(bin).file_name().unwrap().to_str().unwrap();
    assert!(stderr.starts_with(&format!("{name}: ")), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("Error: \""), "{bin} {args:?} printed a Debug error: {stderr}");
    assert!(!dir.join("results").exists(), "{bin} {args:?} wrote results");
    std::fs::remove_dir_all(&dir).unwrap();
    stderr
}

fn assert_refuses(bin: &str, tag: &str, args: &[&str], flag: &str) {
    let stderr = refused(bin, tag, args, &[]);
    assert!(stderr.contains(flag), "{args:?}: stderr does not name {flag}: {stderr}");
}

#[test]
fn bench_kernels_refuses_bad_flags_by_name() {
    let bin = env!("CARGO_BIN_EXE_bench_kernels");
    assert_refuses(bin, "k_seed_missing", &["--smoke", "--seed"], "--seed");
    assert_refuses(bin, "k_seed_bad", &["--seed", "-3"], "--seed");
    assert_refuses(bin, "k_ops_missing", &["--operands"], "--operands");
    assert_refuses(bin, "k_ops_zero", &["--operands", "0"], "--operands");
    assert_refuses(bin, "k_ops_bad", &["--operands", "many"], "--operands");
    assert_refuses(bin, "k_unknown", &["--seeed", "7"], "--seeed");
}

#[test]
fn bench_population_refuses_bad_flags_by_name() {
    let bin = env!("CARGO_BIN_EXE_bench_population");
    assert_refuses(bin, "p_seed_missing", &["--smoke", "--seed"], "--seed");
    assert_refuses(bin, "p_seed_bad", &["--seed", "2022x"], "--seed");
    assert_refuses(bin, "p_trace_missing", &["--trace"], "--trace");
    assert_refuses(bin, "p_unknown", &["--traces", "t.jsonl"], "--traces");
}

#[test]
fn chaos_resume_refuses_bad_flags_a_missing_mode_or_child_setting() {
    let bin = env!("CARGO_BIN_EXE_chaos_resume");
    assert_refuses(bin, "c_no_mode", &[], "--smoke");
    assert_refuses(bin, "c_no_out", &["--child"], "--out");
    assert_refuses(bin, "c_seed_bad", &["--smoke", "--seed", "x"], "--seed");
    assert_refuses(bin, "c_unknown", &["--smoke", "--sed", "5"], "--sed");
    let stderr = refused(bin, "c_no_ring", &["--child", "--out", "h.csv"], &[]);
    assert!(stderr.contains("HELCFL_CHECKPOINT"), "stderr does not name the variable: {stderr}");
}
