//! Records the compiler version and, when built inside a git checkout,
//! the revision, for the run metadata.

use std::path::Path;
use std::process::Command;

fn output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir("..")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = output(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let rev =
        output("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=DRSBENCH_RUSTC={version}");
    println!("cargo:rustc-env=DRSBENCH_GIT_REV={rev}");
    println!("cargo:rerun-if-changed=build.rs");
    for path in ["../.git/HEAD", "../.git/index"] {
        if Path::new(path).exists() {
            println!("cargo:rerun-if-changed={path}");
        }
    }
}
