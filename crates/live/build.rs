//! Build-time provenance for the `/buildinfo` route: git hash, rustc
//! version, and cargo profile, baked in as env vars. Every probe
//! degrades to `"unknown"` — a tarball build without git (or an
//! unusual toolchain layout) must never fail to compile.

use std::process::Command;

fn probe(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

fn main() {
    let git_hash =
        probe("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BS_GIT_HASH={git_hash}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let rustc_version = probe(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=BS_RUSTC_VERSION={rustc_version}");

    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=BS_BUILD_PROFILE={profile}");

    // Rebuild when HEAD moves so the hash stays current. In an exported
    // tree there is no HEAD, and cargo takes a missing watched file for
    // a changed one: watching it would rebuild this crate and all its
    // dependents on every build.
    if std::path::Path::new("../../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
