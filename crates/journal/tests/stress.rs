//! Journal concurrency stress: 8 writer threads hammering their rings
//! while a snapshot thread reads concurrently. Asserts the seqlock
//! contract — no torn records, monotonic epochs per thread, bounded
//! memory with oldest-first drops counted in the exported
//! `aql_journal_dropped_total` metric.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aql_journal::{dropped_total, intern, snapshot, Tag, DEFAULT_CAPACITY};

const THREADS: u64 = 8;
const CAP: usize = DEFAULT_CAPACITY;
/// Three ring-fulls a writer, so every ring overflows.
const WRITES: u64 = 3 * CAP as u64;

#[test]
fn eight_writers_no_torn_records_bounded_memory() {
    let label = intern("stress:w");
    let before_dropped = dropped_total();
    let before_metric = aql_journal::metrics::family_total("aql_journal_dropped_total");

    // Concurrent reader: snapshots must never observe a torn record
    // (bad tag, wrong label, out-of-range payload) while writers run.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = 0usize;
            let mut quiescent_rounds = 0;
            // Keep snapshotting while writers run, plus a few rounds
            // after they stop (the writers can finish before this
            // thread is even scheduled).
            while quiescent_rounds < 3 {
                if stop.load(Ordering::Relaxed) {
                    quiescent_rounds += 1;
                }
                let j = snapshot();
                for e in j.events.iter().filter(|e| e.label == label) {
                    assert_eq!(e.tag, Tag::CacheMiss, "torn tag");
                    assert!(e.a >= 1 && e.a <= THREADS, "torn payload a: {}", e.a);
                    assert!(e.b < WRITES, "torn payload b: {}", e.b);
                    assert!(e.epoch >= 1, "epoch must be 1-based");
                    seen += 1;
                }
            }
            seen
        })
    };

    let writers: Vec<_> = (1..=THREADS)
        .map(|marker| {
            std::thread::spawn(move || {
                for i in 0..WRITES {
                    // a = writer marker, b = per-writer sequence.
                    aql_journal::record(Tag::CacheMiss, label, marker, i);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    stop.store(true, Ordering::Relaxed);
    let seen_live = reader.join().expect("reader");
    assert!(seen_live > 0, "concurrent snapshots saw events");

    // Quiescent snapshot: exact retention and ordering guarantees.
    let journal = snapshot();
    for marker in 1..=THREADS {
        let mut mine: Vec<_> = journal
            .events
            .iter()
            .filter(|e| e.label == label && e.a == marker)
            .collect();
        assert_eq!(
            mine.len(),
            CAP,
            "bounded memory: exactly one ring of records per writer"
        );
        mine.sort_by_key(|e| e.epoch);
        for pair in mine.windows(2) {
            assert!(
                pair[0].epoch < pair[1].epoch,
                "epochs monotonic per thread"
            );
            assert_eq!(
                pair[0].b + 1,
                pair[1].b,
                "retained records are a contiguous run"
            );
        }
        // Oldest-first drop: the survivors are the NEWEST records.
        assert_eq!(mine.last().map(|e| e.b), Some(WRITES - 1));
        assert_eq!(mine.first().map(|e| e.b), Some(WRITES - CAP as u64));
    }

    // Drop accounting: each writer overwrote WRITES - CAP records,
    // visible in both the per-ring counters and the exported metric.
    let dropped = dropped_total() - before_dropped;
    let expected = THREADS * (WRITES - CAP as u64);
    assert!(
        dropped >= expected,
        "dropped_total counted overwrites: {dropped} < {expected}"
    );
    let metric = aql_journal::metrics::family_total("aql_journal_dropped_total") - before_metric;
    assert!(
        metric >= expected,
        "aql_journal_dropped_total exported: {metric} < {expected}"
    );
}
