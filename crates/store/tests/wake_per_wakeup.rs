//! A shard worker rings a wake-enabled session's eventfd once per
//! service wakeup, after every completion of that wakeup is sent — not
//! once per completion — and no completion is left without a ring
//! behind it.

use ame_store::{SecureStore, SessionConfig, StoreConfig, StoreOp, StoreValue};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

fn wake_rings(store: &SecureStore) -> u64 {
    store
        .telemetry()
        .counter("store/shard0/wake_rings")
        .expect("every shard reports wake_rings")
}

#[test]
fn one_ring_per_session_per_wakeup() {
    let store = SecureStore::new(StoreConfig {
        shards: 1,
        shard_bytes: 1 << 16,
        queue_depth: 64,
        max_batch: 32,
        ..StoreConfig::default()
    });
    let before = wake_rings(&store);
    let (mut submitter, mut reaper) = store.split_session_with_wake(SessionConfig {
        in_flight_window: 16,
    });

    // Jam the worker inside its first wakeup, then queue eight more ops
    // behind the jam: they can only be served together, by the next one.
    let (gate_tx, gate_rx) = sync_channel::<()>(1);
    let (in_tx, in_rx) = sync_channel::<()>(1);
    let mut tickets = vec![submitter
        .submit_rmw(0, move |_| {
            let _ = in_tx.send(());
            let _ = gate_rx.recv();
        })
        .unwrap()];
    in_rx.recv().unwrap();
    for b in 1..5u64 {
        tickets.push(
            submitter
                .submit(StoreOp::Write {
                    addr: b * 64,
                    data: [b as u8; 64],
                })
                .unwrap(),
        );
        tickets.push(submitter.submit(StoreOp::Read { addr: b * 64 }).unwrap());
    }
    gate_tx.send(()).unwrap();

    // Reap the way the reactor does: drain the wakeup, then everything.
    let mut reaped = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while reaped.len() < tickets.len() {
        assert!(
            Instant::now() < deadline,
            "stranded: {} of {} completions reaped",
            reaped.len(),
            tickets.len()
        );
        reaper.drain_wake();
        reaped.extend(reaper.try_recv_all());
        std::thread::yield_now();
    }
    assert_eq!(
        reaped.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
        tickets,
        "one shard completes in submission order"
    );
    assert!(matches!(reaped[0].1, Ok(StoreValue::Modified(_))));
    for (b, pair) in (1..5u8).zip(reaped[1..].chunks(2)) {
        assert_eq!(pair[0].1, Ok(StoreValue::Written));
        assert_eq!(pair[1].1, Ok(StoreValue::Data([b; 64])));
    }
    assert_eq!(
        wake_rings(&store) - before,
        2,
        "nine completions over two wakeups ring the session twice"
    );
    drop((submitter, reaper));
    let _ = store.shutdown();
}
