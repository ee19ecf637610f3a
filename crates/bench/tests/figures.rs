//! Every paper figure as a scenario of the bench binary, run once at a
//! tiny scale. This file is its own test binary, so the `P2KVS_SCALE` it
//! sets reaches no other test.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use p2kvs_bench::artifact::validate_schema;
use p2kvs_bench::FIGURES;

/// The row keys of figure `id`'s report, as `(tables, keys)` pairs: the
/// `table` labels that share a key set ("" for a figure with one table),
/// then the keys of each of their rows.
fn recorded(id: &str) -> &'static [(&'static str, &'static str)] {
    match id {
        "fig1" => &[(
            "1a 1b",
            "table threads device fillseq_kqps fillrandom_kqps overwrite_kqps readseq_kqps \
             readrandom_kqps failed_calls",
        )],
        "fig4" => &[
            (
                "timeline",
                "table value_bytes order t_s wal_mb_s flush_mb_s compact_mb_s bg_cpu_pct \
                 failed_calls",
            ),
            (
                "run",
                "table value_bytes order ops kqps write_bw_util_pct fg_util_pct failed_calls",
            ),
        ],
        "fig5" => &[
            (
                "5a",
                "table threads single_kqps single_pin_kqps multi_pin_kqps failed_calls",
            ),
            (
                "5b",
                "table threads wal_mb_s flush_mb_s compact_mb_s device_pct failed_calls",
            ),
            (
                "5c",
                "table threads per_user_thread_pct background_cores_pct failed_calls",
            ),
        ],
        "fig6" => &[(
            "",
            "threads total_us wal_us wal_pct memtable_us memtable_pct wal_lock_us wal_lock_pct \
             memtable_lock_us memtable_lock_pct other_us other_pct failed_calls",
        )],
        "fig7" => &[(
            "",
            "batch_bytes kvs_per_batch wal_mb_s kqps cpu_s_per_1m_kvs failed_calls",
        )],
        "fig8" => &[(
            "wal_only memtable_only",
            "table threads single_kqps multi_kqps flushes failed_calls",
        )],
        "tab1" => &[("", "workload mix distribution failed_calls")],
        "fig12" => &[
            ("fig12", "table system kqps io_amp bw_util_pct failed_calls"),
            (
                "tab2",
                "table system mem_avg_mib mem_max_mib threads_busy_pct cpu_us_per_op \
                 failed_calls",
            ),
        ],
        "fig13" => &[(
            "",
            "offered_kqps system avg_us p99_us kqps run_secs failed_calls",
        )],
        "fig14" => &[("nvme io_bound", "table system kqps vs_rocksdb failed_calls")],
        "fig15" => &[(
            "",
            "size range_rocks_ops_s range_p2_ops_s range_speedup scan_rocks_ops_s scan_p2_ops_s \
             scan_speedup failed_calls",
        )],
        "fig16" => &[(
            "16a 16b",
            "table threads workload rocksdb_kqps p2kvs4_kqps p2kvs4_x p2kvs8_kqps p2kvs8_x \
             failed_calls",
        )],
        "fig17" => &[(
            "LOAD A B C",
            "table workers obm_off_kqps obm_off_x obm_on_kqps obm_on_x failed_calls",
        )],
        "fig18" => &[(
            "LOAD A C",
            "table value_bytes rocksdb_kqps no_obm_x with_obm_x failed_calls",
        )],
        "fig19" => &[(
            "",
            "workload rocksdb_kqps p2kvs8_kqps p2kvs8_x failed_calls",
        )],
        "fig20" => &[(
            "",
            "workload kvell4_kqps p2kvs4_kqps p2kvs4_x kvell8_kqps p2kvs8_kqps p2kvs8_x \
             failed_calls",
        )],
        "fig21" => &[(
            "",
            "system kqps io_mb_s mem_mib total_cpu_pct per_core_cpu_pct failed_calls",
        )],
        "fig22" => &[(
            "",
            "threads leveldb_write_kqps p2kvs_write_kqps write_x leveldb_read_kqps \
             p2kvs_read_kqps read_x failed_calls",
        )],
        "fig23" => &[(
            "",
            "threads wt_write_kqps p2kvs_write_kqps write_x wt_read_kqps p2kvs_read_kqps read_x \
             failed_calls",
        )],
        "ablate" => &[
            (
                "batch_bound",
                "table batch_max kqps avg_batch p99_us failed_calls",
            ),
            (
                "partitioning",
                "table worker_requests max_over_min failed_calls",
            ),
        ],
        other => panic!("no recorded key set for figure {other}"),
    }
}

/// Each figure's artifact passes the schema, its tables are the recorded
/// ones with the recorded row keys, and its verdict is green: no call
/// failed (and Fig 8 flushed no memtable).
#[test]
fn every_figure_reports_its_recorded_rows_and_passes() {
    std::env::set_var("P2KVS_SCALE", "0.002");
    std::env::remove_var("P2KVS_METRICS_DIR");
    for s in &FIGURES {
        let report = (s.run)();
        assert_eq!(report.bench, s.id);
        let doc = report.render_json();
        let v = validate_schema(&doc);
        assert!(v.is_empty(), "{}.json schema: {v:?}\n{doc}", s.artifact);

        let mut want = BTreeMap::new();
        for (tables, keys) in recorded(s.id) {
            let keys: BTreeSet<&str> = keys.split_whitespace().collect();
            for table in tables.split(' ') {
                want.insert(table, keys.clone());
            }
        }
        let tables: BTreeSet<&str> = report.rows.iter().map(|r| r.table()).collect();
        assert_eq!(
            tables,
            want.keys().copied().collect(),
            "{}: tables\n{doc}",
            s.id
        );
        for row in &report.rows {
            let keys: Vec<&str> = row.0.iter().map(|(k, _)| *k).collect();
            assert_eq!(
                keys.iter().copied().collect::<BTreeSet<_>>(),
                want[row.table()],
                "{}: keys of a row of table {:?}",
                s.id,
                row.table()
            );
            assert_eq!(keys.len(), want[row.table()].len(), "{}: a key twice", s.id);
        }
        let failed = s.verdict(&report);
        assert!(failed.is_empty(), "{}: {failed:?}", s.id);
    }
}

#[test]
fn the_binary_exits_2_on_an_unknown_id() {
    for args in [&["fig99"][..], &["fig1", "tab2"], &[]] {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .status()
            .expect("run repro");
        assert_eq!(status.code(), Some(2), "repro {args:?}");
    }
}
