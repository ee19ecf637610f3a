//! One clock: outside `p2kvs_util::timing`, the non-test code of the
//! product crates reads no clock, sleeps and yields only through
//! `timing`, and never installs the manual test clock.
//!
//! "Non-test code" follows `tools/loc.sh`: each `src/**/*.rs` file up to
//! its first `#[cfg(test)]` (or `#[cfg(all(test, ..))]`), with `//` lines
//! skipped.

use std::path::{Path, PathBuf};

/// The crates whose time calls must go through `timing`.
const PRODUCT_CRATES: [&str; 7] = ["util", "storage", "lsmkv", "wtiger", "kvell", "obs", "core"];

/// The `std` calls only `timing.rs` may make, and the manual clock only
/// tests may start.
const FORBIDDEN: [&str; 5] = [
    "Instant::now",
    ".elapsed()",
    "thread::sleep",
    "yield_now()",
    "Manual::start",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `tools/loc.sh`'s `^[[:space:]]*#\[cfg\((all\()?test[,)]`.
fn is_test_gate(line: &str) -> bool {
    let t = line.trim_start();
    ["#[cfg(test", "#[cfg(all(test"].iter().any(|gate| {
        t.strip_prefix(gate)
            .is_some_and(|rest| rest.starts_with([',', ')']))
    })
}

/// `file:line: text` for every forbidden call in the non-test part of
/// `src`. `timing::yield_now()` is the seam itself, not a bypass.
fn violations(file: &str, src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if is_test_gate(line) {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        let code = line.replace("timing::yield_now()", "");
        if FORBIDDEN.iter().any(|pat| code.contains(pat)) {
            out.push(format!("{file}:{}: {}", i + 1, line.trim()));
        }
    }
    out
}

#[test]
fn product_code_reads_time_only_through_timing() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut found = Vec::new();
    let mut scanned = 0;
    for krate in PRODUCT_CRATES {
        let mut files = Vec::new();
        rust_files(&crates.join(krate).join("src"), &mut files);
        files.sort();
        for path in files {
            if krate == "util" && path.file_name().is_some_and(|n| n == "timing.rs") {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("read source");
            let name = format!(
                "crates/{krate}/{}",
                path.strip_prefix(crates.join(krate)).unwrap().display()
            );
            found.extend(violations(&name, &src));
            scanned += 1;
        }
    }
    assert!(scanned > 50, "only {scanned} files scanned");
    assert!(
        found.is_empty(),
        "{} time calls bypass p2kvs_util::timing:\n{}",
        found.len(),
        found.join("\n")
    );
}

#[test]
fn the_scanner_sees_what_it_must_and_stops_at_the_tests() {
    let src = "\
let t = std::time::Instant::now();
// a comment about Instant::now() is fine
let d = t.elapsed();
timing::yield_now();
std::thread::yield_now();
std::thread::sleep(d);
let _clock = timing::Manual::start();
#[cfg(test)]
mod tests { fn f() { std::thread::sleep(d); } }
";
    let found = violations("x.rs", src);
    let lines: Vec<&str> = found.iter().map(|v| v.split(':').nth(1).unwrap()).collect();
    assert_eq!(lines, ["1", "3", "5", "6", "7"], "{found:?}");
}
