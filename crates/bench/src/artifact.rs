//! Per-run metrics JSON artifacts and the shared run metadata every
//! `BENCH_*.json` artifact embeds.
//!
//! When `P2KVS_METRICS_DIR` is set, every p2KVS store the harness closes
//! writes its final [`MetricsSnapshot`] there as
//! `<experiment>-<seq>.metrics.json` (the `repro` binary defaults the
//! directory to `repro_metrics/`). The artifact is the JSON render of the
//! snapshot: framework counters, queue-wait/service histograms, queue
//! depths, and per-instance `engine_*` metrics — enough to audit any
//! throughput or latency number the run printed.
//!
//! The benchmark artifacts (`BENCH_scan.json`, `BENCH_skew.json`,
//! `BENCH_trace.json`, `BENCH_cache.json`,
//! `BENCH_backup.json`) additionally open with a
//! [`RunMeta`] header — schema version, bench id, timestamp, seed, git
//! revision when discoverable, and the run's configuration knobs — so
//! every artifact is self-describing: a number in CI can always be traced
//! back to the exact code revision and parameters that produced it.
//! [`validate_schema`] checks that contract and is unit-tested against
//! all the artifact renderers.

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use p2kvs_obs::MetricsSnapshot;

/// Version of the shared artifact envelope. Bump when the meta header or
/// a required top-level key changes shape.
pub const SCHEMA_VERSION: u64 = 2;

/// Environment variable naming the artifact directory; unset (or empty)
/// disables artifact writing.
pub const METRICS_DIR_ENV: &str = "P2KVS_METRICS_DIR";

static EXPERIMENT: Mutex<Option<String>> = Mutex::new(None);
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Labels subsequent artifacts with `id` (the experiment currently
/// running, e.g. `fig13`).
pub fn set_experiment(id: &str) {
    *EXPERIMENT.lock().expect("experiment label poisoned") = Some(id.to_string());
}

/// Writes `snapshot` as a JSON artifact if `P2KVS_METRICS_DIR` is set;
/// returns the path written, `None` when disabled or on IO failure
/// (artifacts are best-effort — a full disk must not fail a benchmark).
pub fn maybe_write(snapshot: &MetricsSnapshot) -> Option<PathBuf> {
    let dir = std::env::var(METRICS_DIR_ENV)
        .ok()
        .filter(|d| !d.is_empty())?;
    let label = EXPERIMENT
        .lock()
        .expect("experiment label poisoned")
        .clone()
        .unwrap_or_else(|| "run".to_string());
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = PathBuf::from(dir);
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{label}-{seq:03}.metrics.json"));
    std::fs::write(&path, snapshot.render_json()).ok()?;
    Some(path)
}

/// The self-describing header every `BENCH_*.json` artifact opens with.
///
/// Built by the bench that owns the artifact, rendered by
/// [`RunMeta::render`] as the first keys of the top-level JSON object:
/// `bench`, `schema_version`, `generated_unix`, `seed`, `git_rev`
/// (`null` when the build is not inside a git checkout), and a `config`
/// object holding the run's knobs (op counts, thread counts, sample
/// rates, ...).
pub struct RunMeta {
    bench: String,
    seed: u64,
    /// Keys paired with pre-rendered JSON value tokens.
    config: Vec<(String, String)>,
}

impl RunMeta {
    /// Starts a header for the bench `bench` run with `seed` (0 for
    /// seedless deterministic workloads).
    pub fn new(bench: &str, seed: u64) -> RunMeta {
        RunMeta { bench: bench.to_string(), seed, config: Vec::new() }
    }

    /// Adds a numeric (or boolean — any bare-token) config knob.
    pub fn num(mut self, key: &str, value: impl Display) -> RunMeta {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a string config knob (quoted in the JSON).
    pub fn text(mut self, key: &str, value: &str) -> RunMeta {
        self.config
            .push((key.to_string(), format!("\"{}\"", value.replace('"', "'"))));
        self
    }

    /// Renders the header as the leading lines of a two-space-indented
    /// JSON object body (trailing comma included — summary keys follow).
    pub fn render(&self) -> String {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let rev = git_rev().map_or("null".to_string(), |r| format!("\"{r}\""));
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!(
            "  \"bench\": \"{}\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
             \"generated_unix\": {unix},\n  \"seed\": {},\n  \"git_rev\": {rev},\n  \
             \"config\": {{{}}},\n",
            self.bench,
            self.seed,
            config.join(", "),
        )
    }
}

/// Best-effort current git revision: walks up from the working directory
/// to the nearest `.git`, follows `HEAD` one level of indirection, and
/// returns the 40-hex commit id. `None` outside a checkout (artifacts
/// then record `git_rev: null`) — a bench must never fail over this.
pub fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let id = match head.strip_prefix("ref: ") {
                None => head.to_string(),
                Some(refname) => match std::fs::read_to_string(git.join(refname)) {
                    Ok(id) => id.trim().to_string(),
                    // Ref may live only in packed-refs.
                    Err(_) => {
                        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                        packed
                            .lines()
                            .find(|l| l.ends_with(refname))
                            .and_then(|l| l.split_ascii_whitespace().next())?
                            .to_string()
                    }
                },
            };
            return (id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit()))
                .then_some(id);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Validates the shared `BENCH_*.json` envelope: structurally balanced
/// JSON (string-aware brace/bracket scan) carrying every required
/// [`RunMeta`] key with the right value shape, plus a `results` array.
/// Returns the violations found; empty = conforming.
pub fn validate_schema(json: &str) -> Vec<String> {
    let mut v = Vec::new();

    // Structural scan: braces/brackets balanced outside string literals.
    let (mut depth, mut brackets) = (0i64, 0i64);
    let (mut in_str, mut escaped) = (false, false);
    for c in json.chars() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') => in_str = false,
            (true, ..) => {}
            (false, _, '"') => in_str = true,
            (false, _, '{') => depth += 1,
            (false, _, '}') => depth -= 1,
            (false, _, '[') => brackets += 1,
            (false, _, ']') => brackets -= 1,
            _ => {}
        }
        if depth < 0 || brackets < 0 {
            v.push("unbalanced closers".into());
            return v;
        }
    }
    if depth != 0 || brackets != 0 || in_str {
        v.push(format!(
            "unbalanced document (brace depth {depth}, bracket depth {brackets}, in_str {in_str})"
        ));
    }

    // Required keys, each with a shape sniff on the first value char.
    let shape_of = |key: &str| -> Option<char> {
        let at = json.find(&format!("\"{key}\":"))?;
        json[at + key.len() + 3..].trim_start().chars().next()
    };
    let mut expect = |key: &str, ok: &dyn Fn(char) -> bool, want: &str| match shape_of(key) {
        None => v.push(format!("missing required key \"{key}\"")),
        Some(c) if !ok(c) => {
            v.push(format!("key \"{key}\" should be {want}, starts with {c:?}"))
        }
        Some(_) => {}
    };
    expect("bench", &|c| c == '"', "a string");
    expect("generated_unix", &|c| c.is_ascii_digit(), "a number");
    expect("seed", &|c| c.is_ascii_digit(), "a number");
    expect("git_rev", &|c| c == '"' || c == 'n', "a string or null");
    expect("config", &|c| c == '{', "an object");
    expect("results", &|c| c == '[', "an array");
    if !json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")) {
        v.push(format!("missing or stale schema_version (want {SCHEMA_VERSION})"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_meta_renders_required_keys_and_validates() {
        let meta = RunMeta::new("unit", 42)
            .num("threads", 8)
            .num("identical", true)
            .text("profile", "optane");
        let doc = format!("{{\n{}  \"results\": []\n}}\n", meta.render());
        assert!(doc.contains("\"bench\": \"unit\""), "{doc}");
        assert!(doc.contains("\"seed\": 42"));
        assert!(doc.contains("\"threads\": 8"));
        assert!(doc.contains("\"identical\": true"));
        assert!(doc.contains("\"profile\": \"optane\""));
        let violations = validate_schema(&doc);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn validate_schema_catches_missing_keys_and_imbalance() {
        let v = validate_schema("{\"bench\": \"x\"}");
        assert!(v.iter().any(|m| m.contains("\"seed\"")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("schema_version")), "{v:?}");
        let v = validate_schema("{\"a\": [1, 2}");
        assert!(v.iter().any(|m| m.contains("unbalanced")), "{v:?}");
        // Braces inside string literals must not confuse the scan.
        let meta = RunMeta::new("b{r[ace", 1).text("k", "}}]]");
        let doc = format!("{{\n{}  \"results\": []\n}}\n", meta.render());
        assert!(validate_schema(&doc).is_empty());
    }

    #[test]
    fn git_rev_is_stable_within_a_checkout() {
        // In a checkout both calls agree on a 40-hex id; outside one,
        // both are None — either way the function must be deterministic.
        assert_eq!(git_rev(), git_rev());
        if let Some(rev) = git_rev() {
            assert_eq!(rev.len(), 40);
        }
    }

    /// The schema contract, checked against the `BENCH_*.json`
    /// renderers with synthetic results (no benchmark execution).
    #[test]
    fn all_bench_artifacts_conform_to_schema() {
        let scan = crate::scaninterf::render_json(
            &[crate::scaninterf::InterfResult {
                config: "chunked",
                chunk_entries: 256,
                p50_get_idle_ns: 800,
                p99_get_idle_ns: 2000,
                p50_get_scan_ns: 900,
                p99_get_scan_ns: 3000,
                gets_during_scan: 500,
                scans_completed: 2,
                scan_entries_per_sec: 1e5,
                scan_chunks: 40,
                scan_resumes: 38,
            }],
            100_000,
            100,
            true,
        );
        let skew = crate::skew::render_json(
            &[crate::skew::SkewResult {
                config: "balanced",
                workers: 4,
                shards: 16,
                migrations: 3,
                ops: 1000,
                wall_secs: 0.5,
                throughput_ops_sec: 2000.0,
                p50_get_ns: 900,
                p99_get_ns: 4000,
                worker_ops: vec![250, 250, 250, 250],
                ops_spread: 1.0,
                busy_spread: 1.1,
            }],
            2000,
            true,
            7,
        );
        let trace = crate::traceov::render_json(
            &crate::traceov::TraceOvSummary {
                results: vec![crate::traceov::TraceOvResult {
                    config: "sampled",
                    trace_sample: 64,
                    round: 0,
                    ops: 1000,
                    wall_secs: 0.5,
                    throughput_ops_sec: 2000.0,
                    read_checksum: 42,
                    spans_recorded: 9,
                }],
                best_disabled: 2040.0,
                best_sampled: 2000.0,
                overhead_pct: 1.96,
                within_budget: true,
            },
            4,
            1000,
            100,
            7,
            true,
        );
        let cache = crate::cachebench::render_json(
            &crate::cachebench::CacheBenchSummary {
                results: vec![crate::cachebench::HitRateResult {
                    pct_of_hot: 100,
                    capacity_bytes: 1 << 20,
                    ops: 1000,
                    wall_secs: 0.5,
                    throughput_ops_sec: 2000.0,
                    hit_rate: 0.93,
                    p50_get_ns: 400,
                    p99_get_ns: 9000,
                    hits: 930,
                    misses: 70,
                    evictions: 12,
                }],
                hot_keys: 1200,
                hot_bytes: 1 << 20,
                reads_identical: true,
                miss: crate::cachebench::MissPathResult {
                    keys_per_round: 1000,
                    rounds: 3,
                    off_secs: 0.5,
                    on_secs: 0.505,
                    overhead_pct: 1.0,
                },
                skew: crate::cachebench::SkewRecovery {
                    static_ops_sec: 1000.0,
                    balanced_ops_sec: 1100.0,
                    balanced_cached_ops_sec: 1500.0,
                    cached_over_static: 1.5,
                    reads_identical: true,
                },
            },
            20_000,
            7,
        );
        let backup = crate::backupload::render_json(
            &crate::backupload::BackupLoadSummary {
                results: vec![crate::backupload::BackupLoadResult {
                    phase: "streaming",
                    round: 0,
                    ops: 1000,
                    wall_secs: 0.5,
                    throughput_ops_sec: 2000.0,
                    p50_get_ns: 900,
                    p99_get_ns: 4000,
                    p50_put_ns: 1100,
                    p99_put_ns: 6000,
                    cut_at_op: 125,
                    backup_entries: 400,
                    backup_wall_secs: 0.1,
                }],
                best_idle_get_p99_ns: 3000,
                best_streaming_get_p99_ns: 4000,
                best_idle_put_p99_ns: 5000,
                best_streaming_put_p99_ns: 6000,
                degradation_x_get: 1.33,
                degradation_x_put: 1.2,
                within_budget: true,
            },
            400,
            1000,
            7,
        );
        let elastic = crate::elastic::render_json(
            &crate::elastic::ElasticSummary {
                results: vec![crate::elastic::PhaseResult {
                    config: "elastic",
                    phase: 0,
                    load_x: 1,
                    workers_avg: 1.5,
                    workers_end: 2,
                    ops: 1000,
                    wall_secs: 0.5,
                    throughput_ops_sec: 2000.0,
                    p50_get_ns: 900,
                    p99_get_ns: 4000,
                }],
                elastic_avg_workers: 2.5,
                static_avg_workers: 8.0,
                elastic_peak_workers: 6,
                provisioning_improvement: 3.2,
                elastic_p99_ns: 4000,
                static_p99_ns: 3500,
                p99_ratio: 1.14,
                latency_within_budget: true,
                provisioning_within_budget: true,
                reads_identical: true,
            },
            10_000,
            4_000,
            7,
        );
        for (name, doc) in [
            ("scan", &scan),
            ("skew", &skew),
            ("trace", &trace),
            ("cache", &cache),
            ("backup", &backup),
            ("elastic", &elastic),
        ] {
            let v = validate_schema(doc);
            assert!(v.is_empty(), "BENCH_{name}.json schema: {v:?}\n{doc}");
        }
    }

    #[test]
    fn writes_labeled_artifact_when_enabled() {
        let dir = std::env::temp_dir().join("p2kvs-artifact-test");
        std::env::set_var(METRICS_DIR_ENV, &dir);
        set_experiment("figX");
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("ops_total".into(), 7));
        let path = maybe_write(&snap).expect("artifact written");
        assert!(path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("figX-"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"ops_total\": 7"));
        std::env::remove_var(METRICS_DIR_ENV);
        assert!(maybe_write(&snap).is_none(), "unset env disables artifacts");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
