//! The environment stamp attached to every result.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `None` outside a git checkout.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a over the paths and contents of every file under `dirs`, in
/// sorted order: identifies the measured source even where the checkout
/// carries no git metadata.
fn source_hash(root: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(&root.join(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

pub fn stamp(threads: usize) -> Json {
    let root = Path::new(".");
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("threads", Json::Num(threads as f64)),
        (
            "simd_tier",
            Json::Str(flexcs_linalg::simd::tier_name().to_string()),
        ),
        (
            "parallel_feature",
            Json::Bool(flexcs_core::parallel_enabled()),
        ),
        (
            "git_revision",
            git_revision(root).map_or(Json::Null, Json::Str),
        ),
        (
            "source_hash",
            Json::Str(source_hash(root, &["crates", "vendor", "perfbench/src"])),
        ),
    ])
}
