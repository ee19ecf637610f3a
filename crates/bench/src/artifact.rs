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
//! The gate scenarios ([`crate::SCENARIOS`]) each hand back one
//! [`Report`]; this module is the only place one is rendered (the
//! schema-v2 `BENCH_<id>.json`: a header naming the scenario, timestamp,
//! seed, git revision when discoverable and the run's configuration
//! knobs, then the summary, then one row per measurement), printed,
//! written and turned into a verdict ([`run_gate`]) — so a number in CI
//! can always be traced back to the code revision and parameters that
//! produced it. [`validate_schema`] checks that contract and is
//! unit-tested against every scenario.

use std::fmt::{self, Display, Formatter};
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

/// One value of a [`Fields`] list, rendered as its JSON token.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, a size, a latency in nanoseconds.
    Int(u64),
    /// A measurement and the decimals it is printed with; gates read the
    /// unrounded number.
    Float(f64, usize),
    /// A verdict or an identity flag.
    Bool(bool),
    /// A label (quoted in the JSON).
    Text(String),
    /// An array, e.g. per-worker op counts.
    List(Vec<Value>),
    /// A nested object.
    Object(Fields),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Text(v.to_string())
    }
}

impl Display for Value {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "\"{}\"", v.replace('"', "'")),
            Value::List(items) => {
                let items: Vec<String> = items.iter().map(Value::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Value::Object(fields) => write!(f, "{fields}"),
        }
    }
}

/// Ordered `(name, value)` pairs: a report's configuration, its summary,
/// or one row of its results. Rendered as one JSON object.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fields(pub Vec<(&'static str, Value)>);

impl Fields {
    /// An empty list.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// Appends `name`.
    pub fn with(mut self, name: &'static str, value: impl Into<Value>) -> Fields {
        self.0.push((name, value.into()));
        self
    }

    /// Appends a measurement printed with `decimals` decimals.
    pub fn float(self, name: &'static str, value: f64, decimals: usize) -> Fields {
        self.with(name, Value::Float(value, decimals))
    }

    /// Appends the `ops`, `wall_secs`, `throughput_ops_sec` triple of a
    /// measured window.
    pub fn window(self, ops: u64, wall_secs: f64) -> Fields {
        self.with("ops", ops)
            .float("wall_secs", wall_secs, 3)
            .float("throughput_ops_sec", ops as f64 / wall_secs.max(1e-9), 1)
    }

    /// The value of `name`. Panics when absent: a scenario reads back only
    /// what it wrote.
    pub fn get(&self, name: &str) -> &Value {
        match self.0.iter().find(|(n, _)| *n == name) {
            Some((_, v)) => v,
            None => panic!("no field {name:?} in {self}"),
        }
    }

    /// The number under `name`.
    pub fn num(&self, name: &str) -> f64 {
        match self.get(name) {
            Value::Int(v) => *v as f64,
            Value::Float(v, _) => *v,
            other => panic!("field {name:?} is not a number: {other}"),
        }
    }

    /// The integer under `name`.
    pub fn int(&self, name: &str) -> u64 {
        match self.get(name) {
            Value::Int(v) => *v,
            other => panic!("field {name:?} is not an integer: {other}"),
        }
    }

    /// The flag under `name`.
    pub fn is(&self, name: &str) -> bool {
        match self.get(name) {
            Value::Bool(v) => *v,
            other => panic!("field {name:?} is not a flag: {other}"),
        }
    }

    /// Whether `name` holds the label `text`.
    pub fn has(&self, name: &str, text: &str) -> bool {
        matches!(self.get(name), Value::Text(t) if t == text)
    }
}

impl Display for Fields {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        write!(f, "{{{}}}", body.join(", "))
    }
}

/// The smallest `field` among the rows whose `name` is `text` (e.g. the
/// best round of one configuration); `f64::INFINITY` when none match.
pub fn best_of(rows: &[Fields], name: &str, text: &str, field: &str) -> f64 {
    rows.iter()
        .filter(|r| r.has(name, text))
        .map(|r| r.num(field))
        .fold(f64::INFINITY, f64::min)
}

/// What one scenario run hands back: who ran (`bench`, `seed`), with what
/// (`config`), what it found (`summary`, the fields its gate reads) and
/// the measurements behind that, one row per configuration or round.
/// [`Report::render_json`] is the schema-v2 `BENCH_<id>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The scenario id (`backup_under_load`, ...).
    pub bench: &'static str,
    /// The seed the op streams derive from (0 for a seedless workload).
    pub seed: u64,
    /// The run's knobs: op counts, thread counts, budgets.
    pub config: Fields,
    /// Derived numbers and verdicts.
    pub summary: Fields,
    /// The `results` array.
    pub rows: Vec<Fields>,
}

impl Report {
    /// The artifact: the self-describing header (`bench`,
    /// `schema_version`, `generated_unix`, `seed`, `git_rev` — `null`
    /// outside a git checkout — and `config`), then the summary fields,
    /// then `results`.
    pub fn render_json(&self) -> String {
        let unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let rev = git_rev().map_or("null".to_string(), |r| format!("\"{r}\""));
        let mut s = format!(
            "{{\n  \"bench\": \"{}\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
             \"generated_unix\": {unix},\n  \"seed\": {},\n  \"git_rev\": {rev},\n  \
             \"config\": {},\n",
            self.bench, self.seed, self.config,
        );
        for (k, v) in &self.summary.0 {
            s.push_str(&format!("  \"{k}\": {v},\n"));
        }
        let rows: Vec<String> = self.rows.iter().map(|r| format!("    {r}")).collect();
        s.push_str(&format!(
            "  \"results\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        ));
        s
    }

    /// Prints the run as one table under `question`, the configuration
    /// beside it and the summary below.
    pub fn print(&self, question: &str) {
        let header: Vec<&str> = self
            .rows
            .first()
            .map_or(Vec::new(), |r| r.0.iter().map(|(k, _)| *k).collect());
        let cell = |v: &Value| match v {
            Value::Text(label) => label.clone(),
            other => other.to_string(),
        };
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.0.iter().map(|(_, v)| cell(v)).collect())
            .collect();
        crate::print_table(question, &header, &rows);
        println!("\nconfig: seed {} {}", self.seed, self.config);
        for (k, v) in &self.summary.0 {
            println!("{k}: {v}");
        }
    }

    /// Writes the artifact as `<name>.json` under `$P2KVS_METRICS_DIR`
    /// when set, the working directory otherwise; returns the path.
    pub fn write(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = std::env::var(METRICS_DIR_ENV)
            .map(PathBuf::from)
            .unwrap_or_default();
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(&dir)?;
        }
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, self.render_json())?;
        Ok(path)
    }
}

/// One gate scenario: a question about a feature, the run that measures
/// it and the gate that turns the run's summary into a verdict.
pub struct Scenario {
    /// What `gates -- <id>` selects and the artifact's `bench`.
    pub id: &'static str,
    /// The artifact's file stem (`BENCH_backup`).
    pub artifact: &'static str,
    /// The question the run answers — its table's title.
    pub question: &'static str,
    /// Runs the scenario at `P2KVS_SCALE`, seeded from its
    /// `P2KVS_*_SEED` variable.
    pub run: fn() -> Report,
    /// The reasons `summary` fails the scenario; empty = green. Byte
    /// identity between configurations is judged at every scale,
    /// thresholds on timings only when `full_scale` (below it the windows
    /// are too short to gate).
    pub gate: fn(summary: &Fields, full_scale: bool) -> Vec<String>,
}

/// Runs `scenario`, prints its table, writes its artifact and reports
/// its gate: `Ok(true)` when the gate held.
pub fn run_gate(scenario: &Scenario) -> std::io::Result<bool> {
    let report = (scenario.run)();
    report.print(scenario.question);
    println!("wrote {}", report.write(scenario.artifact)?.display());
    let full_scale = crate::scale() >= 1.0;
    if !full_scale {
        println!("P2KVS_SCALE < 1: byte identity is gated, timing thresholds are not");
    }
    let failed = (scenario.gate)(&report.summary, full_scale);
    for reason in &failed {
        eprintln!("GATE FAILED ({}): {reason}", scenario.id);
    }
    Ok(failed.is_empty())
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
            return (id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit())).then_some(id);
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
        Some(c) if !ok(c) => v.push(format!("key \"{key}\" should be {want}, starts with {c:?}")),
        Some(_) => {}
    };
    expect("bench", &|c| c == '"', "a string");
    expect("generated_unix", &|c| c.is_ascii_digit(), "a number");
    expect("seed", &|c| c.is_ascii_digit(), "a number");
    expect("git_rev", &|c| c == '"' || c == 'n', "a string or null");
    expect("config", &|c| c == '{', "an object");
    expect("results", &|c| c == '[', "an array");
    if !json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")) {
        v.push(format!(
            "missing or stale schema_version (want {SCHEMA_VERSION})"
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn unit_report() -> Report {
        Report {
            bench: "unit",
            seed: 42,
            config: Fields::new()
                .with("threads", 8usize)
                .float("budget_x", 2.0, 1)
                .with("profile", "op\"tane"),
            summary: Fields::new()
                .with("identical", true)
                .float("ratio", 1.23456, 3),
            rows: vec![
                Fields::new()
                    .with("config", "a")
                    .with("worker_ops", Value::List(vec![1u64.into(), 2u64.into()])),
                Fields::new()
                    .with("config", "b")
                    .with("worker_ops", Value::List(Vec::new())),
            ],
        }
    }

    #[test]
    fn run_meta_renders_required_keys_and_validates() {
        let doc = unit_report().render_json();
        assert!(doc.contains("\"bench\": \"unit\""), "{doc}");
        assert!(doc.contains("\"seed\": 42"));
        assert!(doc
            .contains("\"config\": {\"threads\": 8, \"budget_x\": 2.0, \"profile\": \"op'tane\"}"));
        assert!(doc.contains("  \"identical\": true,\n  \"ratio\": 1.235,\n"));
        assert!(doc.contains("    {\"config\": \"a\", \"worker_ops\": [1, 2]},\n"));
        let violations = validate_schema(&doc);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn fields_read_back_what_was_written() {
        let report = unit_report();
        assert_eq!(
            report.summary.num("ratio"),
            1.23456,
            "gates read the unrounded number"
        );
        assert!(report.summary.is("identical"));
        assert_eq!(report.config.int("threads"), 8);
        assert!(report.rows[1].has("config", "b") && !report.rows[1].has("config", "a"));
        let rows = [
            Fields::new().with("config", "a").with("p99", 9u64),
            Fields::new().with("config", "a").with("p99", 7u64),
            Fields::new().with("config", "b").with("p99", 3u64),
        ];
        assert_eq!(best_of(&rows, "config", "a", "p99"), 7.0);
        assert_eq!(best_of(&rows, "config", "c", "p99"), f64::INFINITY);
    }

    #[test]
    fn validate_schema_catches_missing_keys_and_imbalance() {
        let v = validate_schema("{\"bench\": \"x\"}");
        assert!(v.iter().any(|m| m.contains("\"seed\"")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("schema_version")), "{v:?}");
        let v = validate_schema("{\"a\": [1, 2}");
        assert!(v.iter().any(|m| m.contains("unbalanced")), "{v:?}");
        // Braces inside string literals must not confuse the scan.
        let mut report = unit_report();
        report.bench = "b{r[ace";
        report.config = Fields::new().with("k", "}}]]");
        assert!(validate_schema(&report.render_json()).is_empty());
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

    /// The object keys of `json` at brace depth `depth`, inside the
    /// `results` array (`in_rows`) or outside it.
    fn keys(json: &str, depth: i64, in_rows: bool) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        let (mut braces, mut brackets) = (0i64, 0i64);
        let mut at = 0;
        while at < json.len() {
            match json.as_bytes()[at] {
                b'{' => braces += 1,
                b'}' => braces -= 1,
                b'[' => brackets += 1,
                b']' => brackets -= 1,
                b'"' => {
                    // No string of an artifact holds a quote: `Value::Text`
                    // swaps them out.
                    let end = at + 1 + json[at + 1..].find('"').expect("closing quote");
                    let is_key = json[end + 1..].starts_with(':');
                    if is_key && braces == depth && (brackets == 1) == in_rows {
                        out.insert(&json[at + 1..end]);
                    }
                    at = end;
                }
                _ => {}
            }
            at += 1;
        }
        out
    }

    const HEADER: &str = "bench schema_version generated_unix seed git_rev config results";

    /// A small run of scenario `id`, and the key sets of its artifact as
    /// written at `693e08b`, the last commit with one renderer per
    /// scenario: summary keys (the header is [`HEADER`]), the keys of
    /// nested objects (`config`, and `skew_recovery` for the cache), the
    /// keys of a `results` row.
    fn recorded(id: &str) -> (fn() -> Report, [&'static str; 3]) {
        match id {
            "backup_under_load" => (crate::backupload::smoke, [
                "best_idle_get_p99_ns best_streaming_get_p99_ns best_idle_put_p99_ns \
                 best_streaming_put_p99_ns degradation_x_get degradation_x_put within_budget",
                "workers shards clients keys ops_per_round rounds put_percent budget_x",
                "phase round ops wall_secs throughput_ops_sec p50_get_ns p99_get_ns p50_put_ns \
                 p99_put_ns cut_at_op backup_entries backup_wall_secs",
            ]),
            "scan_interference" => (crate::scaninterf::smoke, [
                "scan_results_identical p99_point_get_improvement_during_scan",
                "entries value_bytes",
                "config chunk_entries p50_get_idle_ns p99_get_idle_ns p50_get_scan_ns \
                 p99_get_scan_ns gets_during_scan scans_completed scan_entries_per_sec \
                 scan_chunks scan_resumes",
            ]),
            "skew_rebalance" => (crate::skew::smoke, [
                "reads_identical spread_improvement throughput_improvement",
                "tenants theta keys_per_tenant",
                "config workers shards migrations ops wall_secs throughput_ops_sec p50_get_ns \
                 p99_get_ns worker_ops ops_spread busy_spread",
            ]),
            "cache_hitrate" => (crate::cachebench::smoke, [
                "reads_identical hit_rate_full p50_get_ns_full miss_overhead_pct skew_recovery",
                "workers keys theta value_len hot_mass hot_set_keys hot_set_bytes static_ops_sec \
                 balanced_ops_sec balanced_cached_ops_sec cached_over_static reads_identical",
                "pct_of_hot capacity_bytes ops wall_secs throughput_ops_sec hit_rate p50_get_ns \
                 p99_get_ns hits misses evictions",
            ]),
            "compaction_stall" => (crate::compstall::smoke, [
                "best_baseline_stall_secs best_parallel_stall_secs stall_improvement_x \
                 best_baseline_put_p99_ns best_parallel_put_p99_ns put_p99_x read_back_identical \
                 within_gate",
                "workers clients keys ops_per_round rounds put_percent value_len min_improvement_x",
                "config round ops wall_secs throughput_ops_sec p50_put_ns p95_put_ns p99_put_ns \
                 max_put_ns p50_get_ns p99_get_ns stall_secs compaction_bytes queues_active \
                 read_back_count read_back_fold",
            ]),
            "elastic_scale" => (crate::elastic::smoke, [
                "reads_identical elastic_avg_workers static_avg_workers elastic_peak_workers \
                 provisioning_improvement provisioning_within_budget elastic_p99_ns static_p99_ns \
                 p99_ratio latency_within_budget",
                "max_workers shards rounds_per_phase keys ops_per_client p99_budget \
                 provisioning_budget phases",
                "config phase load_x workers_avg workers_end ops wall_secs throughput_ops_sec \
                 p50_get_ns p99_get_ns",
            ]),
            "trace_overhead" => (crate::traceov::smoke, [
                "read_checksums_identical best_disabled_ops_sec best_sampled_ops_sec overhead_pct \
                 budget_pct within_budget",
                "threads ops_per_thread keys_per_thread rounds default_trace_sample",
                "config trace_sample round ops wall_secs throughput_ops_sec read_checksum \
                 spans_recorded",
            ]),
            other => panic!("no recorded key set for scenario {other}"),
        }
    }

    /// The schema contract and the artifact keys, checked against a small
    /// run of every scenario of the table.
    #[test]
    fn all_bench_artifacts_conform_to_schema() {
        let set = |names: &'static str| names.split_whitespace().collect::<BTreeSet<&str>>();
        for s in &crate::SCENARIOS {
            let (smoke, [summary, nested, row]) = recorded(s.id);
            let report = smoke();
            assert_eq!(report.bench, s.id);
            let doc = report.render_json();
            let v = validate_schema(&doc);
            assert!(v.is_empty(), "{}.json schema: {v:?}\n{doc}", s.artifact);

            let top: BTreeSet<&str> = set(summary).union(&set(HEADER)).copied().collect();
            assert_eq!(keys(&doc, 1, false), top, "{}: top-level keys", s.id);
            assert_eq!(keys(&doc, 2, false), set(nested), "{}: nested keys", s.id);
            assert_eq!(keys(&doc, 2, true), set(row), "{}: row keys", s.id);
            for r in &report.rows {
                assert_eq!(
                    r.0.len(),
                    set(row).len(),
                    "{}: every row has every key once",
                    s.id
                );
            }
            // A run this small is not held to timing thresholds, but its
            // configurations must agree byte for byte.
            let failed = (s.gate)(&report.summary, false);
            assert!(failed.is_empty(), "{}: {failed:?}", s.id);
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
        // A report lands in the same directory under its artifact name.
        let path = unit_report().write("BENCH_unit").unwrap();
        assert_eq!(path, dir.join("BENCH_unit.json"));
        assert!(validate_schema(&std::fs::read_to_string(&path).unwrap()).is_empty());
        std::env::remove_var(METRICS_DIR_ENV);
        assert!(maybe_write(&snap).is_none(), "unset env disables artifacts");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
