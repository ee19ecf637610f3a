//! `--selftest`: checks the benchmark's own machinery in a few seconds —
//! the generators, the percentile helper, the span arithmetic, the
//! verification, and the wrappers — without measuring anything.

use std::process::ExitCode;

use p2kvs_storage::DeviceProfile;
use p2kvs_util::hash::fnv1a64;

use crate::gen::{self, Rng, Zipf};
use crate::micro;
use crate::setup;
use crate::stats::percentile;
use crate::trace::{self, Kind};
use crate::workloads::{self as wl, Call, Keyspace};

/// Hash of the first `n` `mixed` calls a client would issue under `seed`:
/// op kinds, keys and values.
fn stream_hash(seed: u64, n: u64) -> u64 {
    let ks = Keyspace::new(seed);
    let zipf = Zipf::new(10_000);
    let mut rng = Rng::new(seed, 0);
    let mut h = 0u64;
    let mut fold = |tag: u8, bytes: &[u8]| h = fnv1a64(&[&h.to_le_bytes(), &[tag][..], bytes].concat());
    for id in 0..n {
        match wl::next_mixed_call(&mut rng, &zipf, ks, id) {
            Call::Get { idx } => fold(0, &gen::key_of(idx)),
            Call::Put { idx, id } => {
                fold(1, &gen::key_of(idx));
                fold(1, &gen::value_of(idx, id));
            }
            Call::Scan { idx } => fold(2, &gen::key_of(idx)),
            Call::Txn { idxs, id } => {
                for (k, idx) in idxs.into_iter().enumerate() {
                    fold(3, &gen::key_of(idx));
                    fold(3, &gen::value_of(idx, id + k as u64));
                }
            }
        }
    }
    h
}

fn generators() -> Result<(), String> {
    if stream_hash(7, 20_000) != stream_hash(7, 20_000) {
        return Err("same seed gave two different op streams".into());
    }
    if stream_hash(7, 20_000) == stream_hash(8, 20_000) {
        return Err("two seeds gave the same op stream".into());
    }
    let zipf = Zipf::new(wl::HOT_KEYS);
    let mut rng = Rng::new(1, 0);
    let draws = 2_000_000u64;
    let head = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count() as f64 / draws as f64;
    let want = zipf.head_mass();
    if (head / want - 1.0).abs() > 0.01 {
        return Err(format!("zipfian head mass {head:.5}, analytic {want:.5}"));
    }
    let value = gen::value_of(42, 9);
    let mut torn = value.clone();
    torn[100] ^= 1;
    if !gen::value_ok(42, &value) || gen::value_ok(43, &value) || gen::value_ok(42, &torn) {
        return Err("value self-verification is wrong".into());
    }
    if !gen::entry_ok(&gen::key_of(42), &value) || gen::entry_ok(&gen::key_of(43), &value) {
        return Err("entry verification is wrong".into());
    }
    if gen::id_of_key(&gen::key_of(42)) != Some(gen::key_id(42)) {
        return Err("key id does not round-trip".into());
    }
    Ok(())
}

fn percentiles() -> Result<(), String> {
    let v: Vec<u32> = (1..=101).collect();
    for (p, want) in [(0.0, 1.0), (50.0, 51.0), (99.0, 100.0), (100.0, 101.0)] {
        let got = percentile(&v, p);
        if got != want {
            return Err(format!("p{p} of 1..=101 is {got}, want {want}"));
        }
    }
    if percentile(&[10, 20], 50.0) != 15.0 || percentile(&[], 50.0) != 0.0 {
        return Err("percentile interpolation or empty case is wrong".into());
    }
    Ok(())
}

/// A hand-built trace: one cache-hit get, one put served by a merged
/// batch with two nested storage spans, a read whose key two clients
/// asked for at once (ambiguous, dropped), and a `get_many` whose
/// `multiget` read through two read-pool threads at once.
fn spans() -> Result<(), String> {
    use Kind::*;
    let client = trace::hand_built(
        "client",
        &[
            (ClientGet, 0, 400, None, &[0xaa]),
            (ClientPut, 1_000, 10_000, None, &[7]),
            (ClientGet, 20_000, 5_000, None, &[0xbb]),
            (ClientGet, 20_500, 5_000, None, &[0xbb]),
            (ClientGetMany, 30_000, 9_000, None, &[0xc1, 0xc2]),
        ],
    );
    let worker = trace::hand_built(
        "worker",
        &[
            (EngineWriteBatch, 3_000, 6_000, None, &[7, 8]),
            (StorageAppend, 3_500, 1_000, Some(0), &[]),
            (StorageFlush, 5_000, 2_500, Some(0), &[]),
            (EngineGet, 21_000, 1_000, None, &[0xbb]),
            (EngineMultiget, 32_000, 5_000, None, &[0xc1, 0xc2]),
        ],
    );
    // Overlapping reads cover 33_000..35_500 of the multiget; the third
    // read starts after it ended and belongs to nobody.
    let pool = [
        trace::hand_built("lsmkv-read-0", &[(StorageRead, 33_000, 2_000, None, &[])]),
        trace::hand_built(
            "lsmkv-read-1",
            &[
                (StorageRead, 34_000, 1_500, None, &[]),
                (StorageRead, 38_000, 500, None, &[]),
            ],
        ),
    ];
    let cover = trace::covered(&worker);
    if cover[0] != 3_500 || trace::self_ns(&worker.spans[0], cover[0]) != 2_500 {
        return Err(format!("self time: covered {} of the batch span", cover[0]));
    }
    let [pool0, pool1] = pool;
    let b = trace::budget(&[client, worker, pool0, pool1]);
    let want = trace::Budget {
        ops: 5,
        client_ns: 400 + 10_000 + 5_000 + 5_000 + 9_000,
        // The hit and both ambiguous reads have no engine span.
        inline_ns: 400 + 5_000 + 5_000,
        queue_wait_ns: 2_000 + 2_000,
        engine_self_ns: 2_500 + 2_500,
        storage_wait_ns: 3_500 + 2_500,
        complete_ns: 2_000 + 2_000,
        // Ids 7, 8, 0xbb, 0xc1, 0xc2: 8 has no client, 0xbb has two.
        links: 5,
        unmatched: 2,
        inline_get_ns: vec![400, 5_000, 5_000],
    };
    if b != want {
        return Err(format!("budget is {b:?}, want {want:?}"));
    }
    if b.residual_pct() != 0.0 {
        return Err(format!("budget parts do not add up: {}", b.residual_pct()));
    }
    Ok(())
}

fn null_store() -> Result<(), String> {
    let store = micro::open_null_store();
    store.put(b"k", b"v").map_err(|e| e.to_string())?;
    if store.get(b"k").map_err(|e| e.to_string())?.is_some() {
        return Err("the no-op engine returned a value".into());
    }
    let (tx, rx) = std::sync::mpsc::channel();
    store
        .put_async(b"k", b"v", move |r| {
            let _ = tx.send(r.is_ok());
        })
        .map_err(|e| e.to_string())?;
    if rx.recv() != Ok(true) {
        return Err("put_async over the no-op engine did not complete".into());
    }
    Ok(())
}

/// A tiny fill and `mixed` pass through the real stack on the instant
/// device: every result verifies, the read-back finds every key, and a
/// damaged record is caught.
fn tiny_end_to_end() -> Result<(), String> {
    let b = setup::open_plain_on(DeviceProfile::instant());
    let ks = Keyspace::new(3);
    let phase = wl::fill(&b, ks, 4_096);
    b.wait_idle();
    let back = wl::read_back(&b, ks, 3, 4_096);
    if phase.failed != 0 || back.failed != 0 || back.attempted != wl::READBACK {
        return Err(format!(
            "tiny fill: {} write failures, {} of {} read-backs failed",
            phase.failed, back.failed, back.attempted
        ));
    }
    b.store
        .put(&gen::key_of(ks.idx(5)), b"damaged")
        .map_err(|e| e.to_string())?;
    let failed = wl::read_back(&b, ks, 3, 4_096).failed;
    if failed == 0 {
        return Err("a damaged record passed the read-back".into());
    }
    Ok(())
}

/// The wrappers forward everything and the spans they record link up.
fn traced_store() -> Result<(), String> {
    let b = setup::open_traced();
    let ks = Keyspace::new(4);
    trace::set_enabled(true);
    let phase = wl::fill(&b, ks, 2_048);
    trace::set_enabled(false);
    b.wait_idle();
    let failed = wl::read_back(&b, ks, 4, 2_048).failed;
    drop(b);
    let budget = trace::budget(&trace::take_all());
    if phase.failed != 0 || failed != 0 {
        return Err("the traced store lost or damaged writes".into());
    }
    if budget.ops != 2_048 || budget.unmatched != 0 || budget.inline_ns != 0 {
        return Err(format!(
            "traced fill: {} client spans, {} unmatched of {} links, {} ns inline",
            budget.ops, budget.unmatched, budget.links, budget.inline_ns
        ));
    }
    if budget.residual_pct() > 1.0 {
        return Err(format!("traced fill budget residual {}", budget.residual_pct()));
    }
    Ok(())
}

pub fn run() -> ExitCode {
    let checks: [(&str, fn() -> Result<(), String>); 6] = [
        ("generators", generators),
        ("percentiles", percentiles),
        ("spans", spans),
        ("null_store", null_store),
        ("tiny_end_to_end", tiny_end_to_end),
        ("traced_store", traced_store),
    ];
    let mut ok = true;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("selftest {name}: ok"),
            Err(e) => {
                ok = false;
                println!("selftest {name}: FAILED: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
