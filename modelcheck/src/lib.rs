//! Exhaustive interleaving checks of p2kvs's lock-free MPSC ring under
//! `loom`. `crates/core/src/ring.rs` is included by path — it imports
//! nothing from its crate for exactly this purpose — and compiled with
//! `--cfg loom`, which swaps its atomics and cells for loom's checked ones:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release --manifest-path modelcheck/Cargo.toml
//! ```
#![cfg(loom)]

#[path = "../../crates/core/src/ring.rs"]
#[allow(dead_code)]
mod ring;

#[cfg(test)]
mod tests {
    use crate::ring::{PushError, Ring};
    use loom::sync::Arc;
    use loom::thread;

    #[test]
    fn two_producers_one_consumer_exactly_once() {
        loom::model(|| {
            let ring = Arc::new(Ring::<usize>::with_capacity(4));
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let ring = ring.clone();
                    thread::spawn(move || {
                        // Capacity 4 and 2 total pushes: Full is impossible,
                        // Closed is impossible (no closer in this model).
                        assert!(ring.try_push(p + 1).is_ok());
                    })
                })
                .collect();
            let consumer = {
                let ring = ring.clone();
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while seen.len() < 2 {
                        if let Some(v) = ring.try_pop() {
                            seen.push(v);
                        } else {
                            thread::yield_now();
                        }
                    }
                    seen
                })
            };
            for p in producers {
                p.join().unwrap();
            }
            let mut seen = consumer.join().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, vec![1, 2], "each push received exactly once");
        });
    }

    #[test]
    fn close_is_atomic_with_push() {
        loom::model(|| {
            let ring = Arc::new(Ring::<usize>::with_capacity(2));
            let pusher = {
                let ring = ring.clone();
                thread::spawn(move || ring.try_push(7).is_ok())
            };
            let closer = {
                let ring = ring.clone();
                thread::spawn(move || ring.close())
            };
            let accepted = pusher.join().unwrap();
            closer.join().unwrap();
            // Consumer view after both: drain everything that was accepted.
            let mut drained = 0;
            loop {
                if let Some(v) = ring.try_pop() {
                    assert_eq!(v, 7);
                    drained += 1;
                } else if ring.drained() {
                    break;
                } else {
                    thread::yield_now();
                }
            }
            // Accepted => drained exactly once; rejected => never seen.
            assert_eq!(drained, usize::from(accepted));
        });
    }

    #[test]
    fn full_ring_rejects_without_corruption() {
        loom::model(|| {
            let ring = Arc::new(Ring::<usize>::with_capacity(2));
            assert!(ring.try_push(1).is_ok());
            assert!(ring.try_push(2).is_ok());
            let contender = {
                let ring = ring.clone();
                thread::spawn(move || matches!(ring.try_push(3), Err(PushError::Full(3))))
            };
            let popped = ring.try_pop();
            assert_eq!(popped, Some(1));
            // The contender either saw Full or there was room by then —
            // but the ring stays consistent either way.
            let _ = contender.join().unwrap();
            let mut rest = Vec::new();
            while let Some(v) = ring.try_pop() {
                rest.push(v);
            }
            assert!(rest == vec![2] || rest == vec![2, 3]);
        });
    }
}
