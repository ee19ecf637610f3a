//! Cross-crate integration: the full stack from YCSB workloads down
//! through the p2KVS framework, the LSM engine, and the simulated device.

use std::sync::Arc;

use p2kvs::engine::LsmFactory;
use p2kvs::{P2Kvs, P2KvsOptions};
use p2kvs_bench::clients::P2Client;
use p2kvs_bench::workload::{drive, hashed_key, load, ordered_key, Run, Workload, WorkloadKind};
use p2kvs_storage::{DeviceProfile, Env, SimEnv};

fn open_store(env: Arc<SimEnv>, workers: usize) -> P2Client<lsmkv::Db> {
    let mut engine_opts = lsmkv::Options::rocksdb_like(env);
    engine_opts.memtable_size = 256 << 10;
    engine_opts.target_file_size = 128 << 10;
    let factory = LsmFactory::new(engine_opts);
    let mut opts = P2KvsOptions::with_workers(workers);
    opts.pin_workers = false;
    P2Client {
        store: P2Kvs::open(factory, "fullstack", opts).unwrap(),
    }
}

#[test]
fn ycsb_suite_runs_clean_over_p2kvs_on_simulated_nvme() {
    let env = Arc::new(SimEnv::with_profile(DeviceProfile::nvme_optane()));
    let client = open_store(env.clone(), 4);
    for kind in WorkloadKind::all() {
        let spec = Workload::table1(
            kind,
            2_000,
            if kind == WorkloadKind::E { 300 } else { 2_000 },
        );
        if kind != WorkloadKind::Load {
            load(&client, spec.record_count, spec.value_size).unwrap();
        }
        let r = drive(&client, &spec, Run::new(4, spec.op_count, false));
        assert_eq!(r.errors, 0, "workload {} had errors", kind.name());
        assert_eq!(r.ops, spec.op_count);
    }
    // The device actually saw traffic.
    let io = env.io_stats();
    assert!(io.bytes_written > 0 && io.wal_bytes > 0);
    assert!(io.syncs > 0, "manifest/txn syncs expected");
}

#[test]
fn workload_survives_power_failure_mid_run() {
    let env = Arc::new(SimEnv::with_profile(DeviceProfile::instant()));
    let factory = || {
        let mut o = lsmkv::Options::rocksdb_like(env.clone());
        o.memtable_size = 64 << 10;
        o.sync = lsmkv::SyncPolicy::Always; // Every group durable.
        LsmFactory::new(o)
    };
    let opts = || {
        let mut o = P2KvsOptions::with_workers(3);
        o.pin_workers = false;
        o
    };
    {
        let store = P2Kvs::open(factory(), "pf", opts()).unwrap();
        for i in 0..2_000 {
            store
                .put(format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        store.close();
    }
    env.fs().power_failure();
    let store = P2Kvs::open(factory(), "pf", opts()).unwrap();
    for i in (0..2_000).step_by(97) {
        assert_eq!(
            store.get(format!("k{i:05}").as_bytes()).unwrap().unwrap(),
            format!("v{i}").as_bytes(),
            "synced write k{i:05} lost after power failure"
        );
    }
}

#[test]
fn all_engines_agree_on_the_same_history() {
    // The same deterministic op sequence applied to every engine in the
    // workspace must produce identical read results.
    let history: Vec<(bool, u64)> = (0..1_500u64)
        .map(|i| {
            let h = p2kvs_util::hash::mix64(i);
            (h % 5 != 0, h % 300) // 80% put / 20% delete over 300 keys
        })
        .collect();

    // Reference model.
    let mut model = std::collections::BTreeMap::new();
    for (i, (is_put, k)) in history.iter().enumerate() {
        if *is_put {
            model.insert(hashed_key(*k), format!("v{i}").into_bytes());
        } else {
            model.remove(&hashed_key(*k));
        }
    }

    let check = |name: &str, get: &dyn Fn(&[u8]) -> Option<Vec<u8>>| {
        for k in 0..300u64 {
            let key = hashed_key(k);
            assert_eq!(
                get(&key),
                model.get(&key).cloned(),
                "{name} diverges on key {k}"
            );
        }
    };

    // lsmkv directly.
    {
        let db = lsmkv::Db::open(lsmkv::Options::for_test(), "agree-lsm").unwrap();
        let wo = lsmkv::WriteOptions::default();
        for (i, (is_put, k)) in history.iter().enumerate() {
            if *is_put {
                db.put(&wo, &hashed_key(*k), format!("v{i}").as_bytes())
                    .unwrap();
            } else {
                db.delete(&wo, &hashed_key(*k)).unwrap();
            }
        }
        db.flush().unwrap();
        check("lsmkv", &|k| db.get(k).unwrap());
    }
    // p2kvs over lsmkv.
    {
        let env = Arc::new(SimEnv::with_profile(DeviceProfile::instant()));
        let store = &open_store(env, 4).store;
        for (i, (is_put, k)) in history.iter().enumerate() {
            if *is_put {
                store
                    .put(&hashed_key(*k), format!("v{i}").as_bytes())
                    .unwrap();
            } else {
                store.delete(&hashed_key(*k)).unwrap();
            }
        }
        check("p2kvs", &|k| store.get(k).unwrap());
    }
    // kvell.
    {
        let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
        let mut o = kvell::KvellOptions::new(env);
        o.workers = 3;
        let db = kvell::KvellDb::open(o, "agree-kv").unwrap();
        for (i, (is_put, k)) in history.iter().enumerate() {
            if *is_put {
                db.put(&hashed_key(*k), format!("v{i}").as_bytes()).unwrap();
            } else {
                let _ = db.delete(&hashed_key(*k)).unwrap();
            }
        }
        check("kvell", &|k| db.get(k).unwrap());
    }
    // wtiger.
    {
        let env: p2kvs_storage::EnvRef = Arc::new(p2kvs_storage::MemEnv::new());
        let db = wtiger::WtDb::open(wtiger::WtOptions::new(env), "agree-wt").unwrap();
        for (i, (is_put, k)) in history.iter().enumerate() {
            if *is_put {
                db.put(&hashed_key(*k), format!("v{i}").as_bytes()).unwrap();
            } else {
                let _ = db.delete(&hashed_key(*k)).unwrap();
            }
        }
        check("wtiger", &|k| db.get(k).unwrap());
    }
}

#[test]
fn scan_results_identical_across_layouts() {
    let mut stores: Vec<(&str, Box<dyn Fn(&[u8], usize) -> Vec<Vec<u8>>>)> = Vec::new();

    // The same data behind 16 shards and behind the paper's 4: the
    // opening per-shard quota differs, the result may not.
    let env = Arc::new(SimEnv::with_profile(DeviceProfile::instant()));
    for (name, mut o) in [
        ("default", P2KvsOptions::with_workers(4)),
        ("paper-layout", P2KvsOptions::paper_layout(4)),
    ] {
        o.pin_workers = false;
        let factory = LsmFactory::new(lsmkv::Options::rocksdb_like(env.clone()));
        let store = P2Kvs::open(factory, format!("sc-{name}"), o).unwrap();
        for i in 0..3_000u64 {
            store.put(&ordered_key(i), b"v").unwrap();
        }
        stores.push((
            name,
            Box::new(move |s, n| {
                store
                    .scan(s, n)
                    .unwrap()
                    .into_iter()
                    .map(|(k, _)| k)
                    .collect()
            }),
        ));
    }

    for start in [0u64, 1, 1499, 2990] {
        for n in [1usize, 7, 100, 500] {
            let expect: Vec<Vec<u8>> = (start..3_000).take(n).map(ordered_key).collect();
            for (name, scan) in &stores {
                assert_eq!(
                    scan(&ordered_key(start), n),
                    expect,
                    "{name} start={start} n={n}"
                );
            }
        }
    }
}
