//! Workspace file discovery.
//!
//! Walks the repository tree for `.rs` files, skipping what must never
//! be linted:
//!
//! * `vendor/` — the offline dependency stand-ins are external code
//!   with their own idioms;
//! * `target/` and `.git/` — build products and VCS internals;
//! * any directory named `corpus` — lint test fixtures are *data*
//!   (must-flag examples would otherwise flag the lint's own tree).
//!
//! Paths come back workspace-relative, `/`-separated and sorted, so the
//! scan order — and therefore the report — is independent of directory
//! enumeration order.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "corpus"];

/// All `.rs` files under `root`, as sorted workspace-relative paths.
pub fn workspace_rs_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(relative_slashed(root, &path));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// `path` relative to `root`, with `/` separators regardless of host.
fn relative_slashed(root: &Path, path: &PathBuf) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_crate_but_not_vendor_or_corpus() {
        // CARGO_MANIFEST_DIR is compile-time fixed, not an env read.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let files = workspace_rs_files(&root).unwrap();
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"), "{files:?}");
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.contains("/corpus/")));
        assert!(files.iter().all(|f| !f.starts_with("target/")));
        // Sorted ⇒ deterministic report order.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
