//! Captures build provenance (compiler version, source revision) into the
//! binary, so every result line can name the toolchain it was built with.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = capture(&rustc, &["-V"]).unwrap_or_else(|| "unknown".to_owned());
    // Benchmark checkouts are often plain source trees, not git clones.
    let sha = capture("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_SHA={sha}");
    println!("cargo:rerun-if-changed=build.rs");
    // The reflog changes on every commit, so the recorded sha stays current.
    if std::path::Path::new("../.git/logs/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/logs/HEAD");
    }
}
