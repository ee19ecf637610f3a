//! The YCSB core workloads of the paper's Table 1.

use p2kvs_util::rng::Rng;

use crate::generator::{KeySpace, Latest, ScrambledZipfian, Uniform};

/// Request distributions used by Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    Uniform,
    Zipfian,
    Latest,
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// PUT of a new key (LOAD, D, E inserts).
    Insert { key: Vec<u8>, value: Vec<u8> },
    /// UPDATE of an existing key.
    Update { key: Vec<u8>, value: Vec<u8> },
    /// GET.
    Read { key: Vec<u8> },
    /// SCAN from `key` for `len` items.
    Scan { key: Vec<u8>, len: usize },
    /// GET then UPDATE of the same key (workload F).
    ReadModifyWrite { key: Vec<u8>, value: Vec<u8> },
}

/// Named workloads from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 100% PUT, uniform.
    Load,
    /// 50% UPDATE, 50% GET, zipfian.
    A,
    /// 5% UPDATE, 95% GET, zipfian.
    B,
    /// 100% GET, zipfian.
    C,
    /// 5% PUT, 95% GET, latest.
    D,
    /// 5% PUT, 95% SCAN, uniform.
    E,
    /// 50% RMW, 50% GET, zipfian.
    F,
}

impl WorkloadKind {
    /// All Table 1 workloads in order.
    pub fn all() -> [WorkloadKind; 7] {
        use WorkloadKind::*;
        [Load, A, B, C, D, E, F]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Load => "LOAD",
            WorkloadKind::A => "A",
            WorkloadKind::B => "B",
            WorkloadKind::C => "C",
            WorkloadKind::D => "D",
            WorkloadKind::E => "E",
            WorkloadKind::F => "F",
        }
    }

    /// The request distribution of Table 1.
    pub fn distribution(&self) -> Distribution {
        match self {
            WorkloadKind::Load | WorkloadKind::E => Distribution::Uniform,
            WorkloadKind::D => Distribution::Latest,
            _ => Distribution::Zipfian,
        }
    }
}

/// A fully parameterized workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which Table 1 mix.
    pub kind: WorkloadKind,
    /// Records loaded before the run (existing key population).
    pub record_count: u64,
    /// Operations to perform.
    pub op_count: u64,
    /// Value size in bytes (paper default: 128-byte KV pairs).
    pub value_size: usize,
    /// Maximum SCAN length (workload E; YCSB default 100).
    pub max_scan_len: usize,
}

impl Workload {
    /// Builds a Table 1 workload with the paper's 128-byte values.
    pub fn table1(kind: WorkloadKind, record_count: u64, op_count: u64) -> Workload {
        Workload {
            kind,
            record_count,
            op_count,
            value_size: 128,
            max_scan_len: 100,
        }
    }

    /// Per-thread operation generator.
    pub fn generator(&self, thread: usize) -> OpGenerator {
        OpGenerator::new(self.clone(), thread as u64)
    }
}

/// Stateful per-thread operation stream.
pub struct OpGenerator {
    spec: Workload,
    keys: KeySpace,
    uniform: Uniform,
    zipf: ScrambledZipfian,
    latest: Latest,
    /// Next insert index (thread-striped so threads never collide).
    insert_cursor: u64,
    thread: u64,
    rng: Rng,
}

impl OpGenerator {
    fn new(spec: Workload, thread: u64) -> OpGenerator {
        let n = spec.record_count.max(1);
        OpGenerator {
            keys: KeySpace::hashed(),
            uniform: Uniform::new(n),
            zipf: ScrambledZipfian::new(n),
            latest: Latest::new(n),
            insert_cursor: 0,
            thread,
            rng: Rng::new(0x9e37 ^ thread),
            spec,
        }
    }

    fn existing_key(&mut self) -> Vec<u8> {
        let i = match self.spec.kind.distribution() {
            Distribution::Uniform => self.uniform.next(&mut self.rng),
            Distribution::Zipfian => self.zipf.next(&mut self.rng),
            Distribution::Latest => self
                .latest
                .next(&mut self.rng, self.spec.record_count.saturating_sub(1)),
        };
        self.keys.key(i)
    }

    fn fresh_key(&mut self) -> (Vec<u8>, u64) {
        // Stripe inserts by thread so concurrent generators are disjoint.
        let i = self.spec.record_count + self.insert_cursor * 1024 + self.thread;
        self.insert_cursor += 1;
        (self.keys.key(i), i)
    }

    /// Generates the next operation.
    pub fn next_op(&mut self) -> OpKind {
        let value_size = self.spec.value_size;
        match self.spec.kind {
            WorkloadKind::Load => {
                let (key, i) = self.fresh_key();
                OpKind::Insert {
                    value: self.keys.value(i, value_size),
                    key,
                }
            }
            WorkloadKind::A => self.mix(0.50, value_size, false),
            WorkloadKind::B => self.mix(0.05, value_size, false),
            WorkloadKind::C => OpKind::Read {
                key: self.existing_key(),
            },
            WorkloadKind::D => {
                if self.rng.unit() < 0.05 {
                    let (key, i) = self.fresh_key();
                    OpKind::Insert {
                        value: self.keys.value(i, value_size),
                        key,
                    }
                } else {
                    OpKind::Read {
                        key: self.existing_key(),
                    }
                }
            }
            WorkloadKind::E => {
                if self.rng.unit() < 0.05 {
                    let (key, i) = self.fresh_key();
                    OpKind::Insert {
                        value: self.keys.value(i, value_size),
                        key,
                    }
                } else {
                    let len = 1 + self.rng.below(self.spec.max_scan_len as u64) as usize;
                    OpKind::Scan {
                        key: self.existing_key(),
                        len,
                    }
                }
            }
            WorkloadKind::F => {
                if self.rng.unit() < 0.50 {
                    let key = self.existing_key();
                    let v = self.keys.value(self.insert_cursor, value_size);
                    OpKind::ReadModifyWrite { key, value: v }
                } else {
                    OpKind::Read {
                        key: self.existing_key(),
                    }
                }
            }
        }
    }

    /// Write-fraction mix helper (workloads A/B).
    fn mix(&mut self, update_ratio: f64, value_size: usize, _latest: bool) -> OpKind {
        if self.rng.unit() < update_ratio {
            let key = self.existing_key();
            let v = self.keys.value(self.insert_cursor, value_size);
            self.insert_cursor += 1;
            OpKind::Update { key, value: v }
        } else {
            OpKind::Read {
                key: self.existing_key(),
            }
        }
    }

    /// Keys used to pre-load the table (`record_count` items).
    pub fn load_keys(spec: &Workload) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        let keys = KeySpace::hashed();
        (0..spec.record_count).map(move |i| (keys.key(i), keys.value(i, spec.value_size)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_ops(kind: WorkloadKind, n: usize) -> std::collections::HashMap<&'static str, usize> {
        let spec = Workload::table1(kind, 10_000, n as u64);
        let mut g = spec.generator(0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            let label = match g.next_op() {
                OpKind::Insert { .. } => "insert",
                OpKind::Update { .. } => "update",
                OpKind::Read { .. } => "read",
                OpKind::Scan { .. } => "scan",
                OpKind::ReadModifyWrite { .. } => "rmw",
            };
            *counts.entry(label).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn load_is_all_inserts() {
        let c = count_ops(WorkloadKind::Load, 1000);
        assert_eq!(c["insert"], 1000);
    }

    #[test]
    fn workload_a_is_half_updates() {
        let c = count_ops(WorkloadKind::A, 20_000);
        let updates = c["update"] as f64 / 20_000.0;
        assert!((0.45..0.55).contains(&updates), "update ratio {updates}");
    }

    #[test]
    fn workload_b_is_mostly_reads() {
        let c = count_ops(WorkloadKind::B, 20_000);
        assert!(c["read"] > 18_000);
        assert!(c["update"] > 500);
    }

    #[test]
    fn workload_c_is_all_reads() {
        let c = count_ops(WorkloadKind::C, 1000);
        assert_eq!(c["read"], 1000);
    }

    #[test]
    fn workload_d_inserts_and_reads() {
        let c = count_ops(WorkloadKind::D, 20_000);
        assert!(c["read"] > 18_000);
        assert!(c["insert"] > 500);
    }

    #[test]
    fn workload_e_scans() {
        let c = count_ops(WorkloadKind::E, 20_000);
        assert!(c["scan"] > 18_000);
        assert!(c["insert"] > 500);
    }

    #[test]
    fn workload_f_has_rmw() {
        let c = count_ops(WorkloadKind::F, 20_000);
        let rmw = c["rmw"] as f64 / 20_000.0;
        assert!((0.45..0.55).contains(&rmw), "rmw ratio {rmw}");
    }

    #[test]
    fn insert_keys_are_disjoint_across_threads() {
        let spec = Workload::table1(WorkloadKind::Load, 100, 1000);
        let mut g0 = spec.generator(0);
        let mut g1 = spec.generator(1);
        let mut keys = std::collections::HashSet::new();
        for _ in 0..500 {
            for g in [&mut g0, &mut g1] {
                if let OpKind::Insert { key, .. } = g.next_op() {
                    assert!(keys.insert(key), "duplicate insert key across threads");
                }
            }
        }
    }

    #[test]
    fn scan_lengths_bounded() {
        let spec = Workload::table1(WorkloadKind::E, 1000, 1000);
        let mut g = spec.generator(0);
        for _ in 0..1000 {
            if let OpKind::Scan { len, .. } = g.next_op() {
                assert!((1..=100).contains(&len));
            }
        }
    }

    #[test]
    fn load_keys_count_matches() {
        let spec = Workload::table1(WorkloadKind::A, 500, 0);
        assert_eq!(OpGenerator::load_keys(&spec).count(), 500);
    }

    #[test]
    fn table1_distributions() {
        assert_eq!(WorkloadKind::Load.distribution(), Distribution::Uniform);
        assert_eq!(WorkloadKind::A.distribution(), Distribution::Zipfian);
        assert_eq!(WorkloadKind::D.distribution(), Distribution::Latest);
        assert_eq!(WorkloadKind::E.distribution(), Distribution::Uniform);
        assert_eq!(WorkloadKind::all().len(), 7);
    }
}
