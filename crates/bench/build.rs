//! Emits `CXLG_BUILD_ID`: an FNV-1a 64 over every workspace Rust source
//! under `crates/*/src` and `vendor/*/src`, path and bytes, in sorted
//! path order. The cached campaign binds it into every job key, so a
//! result store written by other code misses instead of serving that
//! code's bytes.

use std::path::{Path, PathBuf};

fn main() {
    // Cargo runs a build script from its package root (crates/bench).
    let root = Path::new("../..");
    let mut files = Vec::new();
    for group in ["crates", "vendor"] {
        let Ok(members) = std::fs::read_dir(root.join(group)) else {
            continue;
        };
        for member in members.flatten() {
            let src = member.path().join("src");
            if src.is_dir() {
                println!("cargo:rerun-if-changed={}", src.display());
                collect_rs(&src, &mut files);
            }
        }
    }
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .expect("source under the workspace root");
            (rel.to_string_lossy().replace('\\', "/"), path)
        })
        .collect();
    named.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, path) in &named {
        let bytes = std::fs::read(path).expect("read workspace source");
        for chunk in [name.as_bytes(), &[0], &bytes, &[0]] {
            for &b in chunk {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    println!("cargo:rustc-env=CXLG_BUILD_ID={h:016x}");
}

/// Every `.rs` file under `dir`, recursively (unordered; the caller sorts).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
