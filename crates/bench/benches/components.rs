//! Criterion micro-benchmarks of the engine's hot components: these are
//! the per-operation costs the paper's latency breakdown (Fig 6) is made
//! of — WAL encoding, skiplist insertion, SST lookup, bloom probes,
//! checksums, and OBM batch formation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::sync::Arc;

fn bench_skiplist(c: &mut Criterion) {
    use lsmkv::memtable::MemTable;
    use lsmkv::types::ValueType;
    let mut g = c.benchmark_group("memtable");
    g.throughput(Throughput::Elements(1));
    g.bench_function("insert-128B", |b| {
        let mem = MemTable::new();
        let mut i = 0u64;
        b.iter(|| {
            mem.add(
                i + 1,
                ValueType::Value,
                format!("key{i:012}").as_bytes(),
                &[7u8; 128],
            );
            i += 1;
        });
    });
    g.bench_function("get-hit", |b| {
        let mem = MemTable::new();
        for i in 0..10_000u64 {
            mem.add(
                i + 1,
                ValueType::Value,
                format!("key{i:08}").as_bytes(),
                &[7u8; 128],
            );
        }
        let mut i = 0u64;
        b.iter(|| {
            let k = format!("key{:08}", (i * 7919) % 10_000);
            i += 1;
            std::hint::black_box(mem.get(k.as_bytes(), u64::MAX >> 8));
        });
    });
    g.finish();
}

fn bench_wal(c: &mut Criterion) {
    use lsmkv::wal::LogWriter;
    use p2kvs_storage::{Env, MemEnv};
    let mut g = c.benchmark_group("wal");
    for size in [128usize, 1024, 16384] {
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("append-{size}B"), |b| {
            let env = MemEnv::new();
            let mut w = LogWriter::new(env.new_writable(std::path::Path::new("b.log")).unwrap());
            let payload = vec![7u8; size];
            b.iter(|| w.add_record(&payload).unwrap());
        });
    }
    g.finish();
}

fn bench_sst(c: &mut Criterion) {
    use lsmkv::sst::{TableBuilder, TableConfig, TableReader};
    use lsmkv::types::{make_internal_key, ValueType};
    use p2kvs_storage::{Env, MemEnv};
    let mut g = c.benchmark_group("sst");
    let env = MemEnv::new();
    let path = std::path::Path::new("bench.sst");
    let config = TableConfig {
        block_size: 4096,
        restart_interval: 16,
        bloom_bits_per_key: 10,
    };
    let mut builder = TableBuilder::new(env.new_writable(path).unwrap(), config);
    for i in 0..50_000u64 {
        let ik = make_internal_key(format!("key{i:010}").as_bytes(), 1, ValueType::Value);
        builder.add(&ik, &[9u8; 128]).unwrap();
    }
    let summary = builder.finish().unwrap();
    let reader = Arc::new(
        TableReader::open(
            env.new_random_access(path).unwrap(),
            summary.file_size,
            1,
            None,
        )
        .unwrap(),
    );
    g.throughput(Throughput::Elements(1));
    g.bench_function("get-present", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let ik = make_internal_key(
                format!("key{:010}", (i * 104_729) % 50_000).as_bytes(),
                u64::MAX >> 8,
                ValueType::Value,
            );
            i += 1;
            std::hint::black_box(reader.get(&ik, false).unwrap());
        });
    });
    g.bench_function("bloom-reject-absent", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let k = format!("absent{i:010}");
            i += 1;
            std::hint::black_box(reader.may_contain(k.as_bytes()));
        });
    });
    g.finish();
}

fn bench_hash_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("util");
    let data = vec![0xa5u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("crc32c-4k", |b| {
        b.iter(|| std::hint::black_box(p2kvs_util::crc32c::crc32c(&data)))
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("fnv1a-20B-key", |b| {
        b.iter(|| std::hint::black_box(p2kvs_util::hash::fnv1a64(b"user0000000000001234")))
    });
    g.finish();
}

fn bench_zipfian(c: &mut Criterion) {
    use rand::SeedableRng;
    let mut g = c.benchmark_group("ycsb");
    g.throughput(Throughput::Elements(1));
    g.bench_function("scrambled-zipfian", |b| {
        let gen = ycsb::generator::ScrambledZipfian::new(1_000_000);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        b.iter(|| std::hint::black_box(gen.next(&mut rng)));
    });
    g.finish();
}

fn bench_obm_queue(c: &mut Criterion) {
    use p2kvs::queue::RequestQueue;
    use p2kvs::types::{Op, Request};
    let mut g = c.benchmark_group("obm");
    g.bench_function("enqueue+batch-32", |b| {
        let q = RequestQueue::new();
        b.iter_batched(
            || {
                (0..32)
                    .map(|i: u32| {
                        Request::sync(Op::Put {
                            key: i.to_le_bytes().to_vec(),
                            value: vec![0u8; 128],
                        })
                        .0
                    })
                    .collect::<Vec<_>>()
            },
            |reqs| {
                for r in reqs {
                    q.push(r).ok().unwrap();
                }
                let batch = q.pop_batch(32).unwrap();
                std::hint::black_box(batch.len());
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_accessing(c: &mut Criterion) {
    use p2kvs::queue::RequestQueue;
    use p2kvs::types::{Op, Request, Response};
    use p2kvs_bench::accessing::{fan_in, MutexQueue, QueueImpl};
    use std::thread;

    // Single-thread enqueue → completion round trip against a dedicated
    // echo worker: the floor the accessing layer adds to every sync op.
    let mut g = c.benchmark_group("accessing");
    g.throughput(Throughput::Elements(1));

    g.bench_function("round-trip/ring", |b| {
        let q = Arc::new(RequestQueue::new());
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut batch = Vec::with_capacity(32);
                while q.pop_batch_into(32, &mut batch) {
                    for req in batch.drain(..) {
                        req.finish(Ok(Response::Done));
                    }
                }
            })
        };
        b.iter(|| {
            let (req, waiter) = Request::sync(Op::Get { key: b"k".to_vec() });
            q.push(req).ok().unwrap();
            std::hint::black_box(waiter.wait().unwrap());
        });
        q.close();
        consumer.join().unwrap();
    });

    g.bench_function("round-trip/mutex", |b| {
        let q = Arc::new(MutexQueue::new());
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut batch = Vec::with_capacity(32);
                while q.pop_batch_into(32, &mut batch) {
                    for req in batch.drain(..) {
                        req.finish(Ok(Response::Done));
                    }
                }
            })
        };
        b.iter(|| {
            let (req, waiter) = Request::sync(Op::Get { key: b"k".to_vec() });
            q.push(req).ok().unwrap();
            std::hint::black_box(waiter.wait().unwrap());
        });
        q.close();
        consumer.join().unwrap();
    });

    // Fan-in: N synchronous user threads sharing one worker queue — the
    // contended shape the lock-free ring exists for. One criterion
    // "element" is one completed round trip across all threads.
    const OPS_PER_THREAD: usize = 1_000;
    for threads in [1usize, 2, 4, 8, 16] {
        for imp in [QueueImpl::Mutex, QueueImpl::Ring] {
            g.throughput(Throughput::Elements((threads * OPS_PER_THREAD) as u64));
            g.bench_function(format!("fan-in/{}x{threads}", imp.label()), |b| {
                b.iter_custom(|iters| {
                    let mut total = std::time::Duration::ZERO;
                    for _ in 0..iters {
                        let r = fan_in(imp, threads, OPS_PER_THREAD, 32);
                        total += std::time::Duration::from_secs_f64(r.elapsed_secs);
                    }
                    total
                });
            });
        }
    }

    // Pipelined fan-in: each user thread keeps a window of async requests
    // outstanding, so the handoff itself (not the per-op context switch)
    // is the measured cost.
    for imp in [QueueImpl::Mutex, QueueImpl::Ring] {
        g.throughput(Throughput::Elements((8 * OPS_PER_THREAD) as u64));
        g.bench_function(format!("pipelined/{}x8", imp.label()), |b| {
            b.iter_custom(|iters| {
                let mut total = std::time::Duration::ZERO;
                for _ in 0..iters {
                    let r = p2kvs_bench::accessing::pipelined(imp, 8, OPS_PER_THREAD, 32, 64);
                    total += std::time::Duration::from_secs_f64(r.elapsed_secs);
                }
                total
            });
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_skiplist, bench_wal, bench_sst, bench_hash_crc, bench_zipfian, bench_obm_queue, bench_accessing
);
criterion_main!(benches);
