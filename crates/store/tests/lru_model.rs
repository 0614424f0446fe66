//! Model-based test of `ChunkCache`'s recency list: random sequences of
//! lookups, successful loads and failing loads under small budgets,
//! compared step by step with a naive `Vec`-ordered reference LRU.
//!
//! Own integration-test binary (own process) with a single test: the
//! governor's ledger is process state, and its balance is asserted
//! exactly.

use std::cell::Cell;

use proptest::prelude::*;

use aql_store::{governor, stats, CacheStats, ChunkCache, ScalarBuf, StoreError};

/// Chunk `id` always has the same size: 1–6 `f64`s, so byte totals
/// fingerprint the resident set and some chunks exceed small budgets.
fn elems(id: u64) -> usize {
    1 + (id % 6) as usize
}

/// Look chunk `id` up; on a miss the loader succeeds iff `ok`.
#[derive(Debug, Clone)]
struct Get {
    id: u64,
    ok: bool,
}

fn arb_op() -> impl Strategy<Value = Get> {
    prop_oneof![
        8 => (0u64..12).prop_map(|id| Get { id, ok: true }),
        1 => (0u64..12).prop_map(|id| Get { id, ok: false }),
    ]
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Hit,
    Loaded,
    LoadError,
}

/// The reference: a `Vec` of `(id, bytes)`, least recently used first.
struct Model {
    budget: u64,
    lru: Vec<(u64, u64)>,
    stats: CacheStats,
    /// Governed bytes this cache has charged.
    charged: u64,
}

impl Model {
    fn bytes(&self) -> u64 {
        self.lru.iter().map(|&(_, b)| b).sum()
    }

    fn evict(&mut self, at: usize) {
        let (_, bytes) = self.lru.remove(at);
        self.charged -= bytes;
        self.stats.evictions += 1;
    }

    fn get(&mut self, id: u64, ok: bool) -> Outcome {
        if let Some(at) = self.lru.iter().position(|&(i, _)| i == id) {
            let entry = self.lru.remove(at);
            self.lru.push(entry);
            self.stats.hits += 1;
            return Outcome::Hit;
        }
        self.stats.misses += 1;
        if !ok {
            self.stats.load_errors += 1;
            return Outcome::LoadError;
        }
        let bytes = elems(id) as u64 * 8;
        self.stats.bytes_read += bytes;
        self.charged += bytes;
        self.lru.push((id, bytes));
        // Back under the cache's own budget, sparing the newcomer.
        while self.bytes() > self.budget {
            let Some(at) = self.lru.iter().position(|&(i, _)| i != id) else { break };
            self.evict(at);
        }
        Outcome::Loaded
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cache_matches_reference_lru(
        budget in 8u64..160,
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let base = governor::bytes_in_use();
        let (mut cache, counted) = (ChunkCache::new(budget), stats::global());
        let mut model = Model { budget, lru: Vec::new(), stats: CacheStats::default(), charged: 0 };
        for Get { id, ok } in ops {
            let want = model.get(id, ok);
            let loader_ran = Cell::new(false);
            let got = cache.get_or_load(id, || {
                loader_ran.set(true);
                if ok {
                    Ok(ScalarBuf::F64(vec![id as f64; elems(id)]))
                } else {
                    Err(StoreError::io("injected"))
                }
            });
            let got = match got {
                Ok(buf) => {
                    prop_assert_eq!(&*buf, &ScalarBuf::F64(vec![id as f64; elems(id)]));
                    if loader_ran.get() { Outcome::Loaded } else { Outcome::Hit }
                }
                Err(_) => Outcome::LoadError,
            };
            prop_assert_eq!(got, want, "chunk {}", id);
            let ids: Vec<u64> = model.lru.iter().map(|&(i, _)| i).collect();
            prop_assert_eq!(cache.lru_order(), ids, "resident set and victim order");
            prop_assert_eq!(stats::global().delta_since(&counted), model.stats);
            prop_assert_eq!(cache.bytes_held(), model.bytes());
            prop_assert_eq!(cache.chunks_held(), model.lru.len());
            prop_assert_eq!(governor::bytes_in_use(), base + model.charged, "ledger balance");
        }
        drop(cache);
        prop_assert_eq!(governor::bytes_in_use(), base, "drop returns every governed byte");
    }
}
