//! One bounded, content-addressed memo for every cache of the workspace.
//!
//! A [`ContentMemo`] finds an entry by the 64-bit content hash its caller
//! computes (with [`ContentHasher`](crate::ContentHasher), say) and
//! confirms every hit by comparing the whole key, so a hash collision
//! costs a miss and never serves one key's value for another's. Each key
//! has one single-flight [`Slot`]: the first caller to miss claims it and
//! makes the value, later callers wait on the slot (up to a deadline if
//! they have one) and are all answered by that one computation. At its
//! bound the memo evicts the least recently used entry; an entry that
//! must not be kept is forgotten ([`ContentMemo::forget`]), or refused
//! by the `keep` test of a later lookup. Hits, misses and evictions are
//! counted ([`MemoStats`]).
//!
//! It is the assemble-once-then-reuse discipline of *Optimized Real-Time
//! Assembly in a RISC Simulator* (PAPERS.md) as one type: the service's
//! results and plans, the toolchain's builds and preludes and the
//! tuner's prices are all memos of this shape, each with its own bound.
//!
//! Keys need only `PartialEq`: the IR types are not `Eq` (a NaN literal
//! is unequal to itself), and a key unequal to itself is simply never
//! found — it is made again on every lookup, never served wrongly.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// A bounded memo from keys `K` to values `V`, found by content hash and
/// confirmed by `==`. All methods take `&self`; one mutex guards the
/// index, and no value is made while it is held.
pub struct ContentMemo<K, V> {
    bound: usize,
    state: Mutex<Index<K, V>>,
}

/// One entry per hash — a key that collides with another replaces it —
/// and the counters.
type Index<K, V> = (HashMap<u64, Held<K, V>>, MemoStats);

/// One entry the memo holds: its key, compared on every hit, and its slot.
struct Held<K, V> {
    key: K,
    slot: Slot<V>,
    /// The lookup that last found the entry, counted in hits and misses.
    used: u64,
}

/// What a memo's counters read at one moment. Every miss inserts an
/// entry, which is held, evicted or forgotten, so while nothing is
/// forgotten `evictions + len == misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that found the key's entry, made or being made.
    pub hits: u64,
    /// Lookups that claimed a new entry for the key.
    pub misses: u64,
    /// Entries removed to make room: the least recently used one at the
    /// bound, or one whose hash a different key now takes.
    pub evictions: u64,
    /// Entries held now, at most the bound.
    pub len: u64,
}

/// What [`ContentMemo::find`] found for a key.
pub enum Found<V> {
    /// The key's value, made already.
    Ready(Slot<V>),
    /// The key's value, being made by an earlier caller: wait on it.
    Pending(Slot<V>),
    /// No usable entry: the caller makes the value and fills the claim,
    /// and everyone who found the entry meanwhile waits for that.
    Claimed(Claim<V>),
}

/// The single-flight cell of one entry: empty while its value is being
/// made, then the value — or nothing, if its maker gave up. A clone is
/// another handle on the same cell, and outlives the entry's eviction.
#[derive(Clone)]
pub struct Slot<V>(Arc<Cell<V>>);

struct Cell<V> {
    /// `Some(value)` once filled, `None` once abandoned.
    value: OnceLock<Option<V>>,
    lock: Mutex<()>,
    done: Condvar,
}

/// The right, and the duty, to fill one entry's slot. Dropping a claim
/// unfilled — its maker failed by unwinding — abandons the slot: waiters
/// wake to nothing, and the next lookup of the key claims it afresh.
pub struct Claim<V>(Slot<V>);

/// Recovers a guard from a poisoned lock: every update under the memo's
/// locks leaves the state whole, so a panicking holder cannot leave it
/// torn.
fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl<V> Slot<V> {
    fn new() -> Self {
        Slot(Arc::new(Cell {
            value: OnceLock::new(),
            lock: Mutex::new(()),
            done: Condvar::new(),
        }))
    }

    /// Sets the cell, once, and wakes everyone waiting on it.
    fn resolve(&self, value: Option<V>) {
        if self.0.value.set(value).is_ok() {
            // Taken so that no waiter is between its check and its wait.
            let _guard = relock(&self.0.lock);
            self.0.done.notify_all();
        }
    }
}

impl<V: Clone> Slot<V> {
    /// The value if it has been made, without waiting.
    pub fn get(&self) -> Option<&V> {
        self.0.value.get().and_then(Option::as_ref)
    }

    /// Waits until the value is made and returns a copy of it; `None` if
    /// its maker gave up or `deadline` passed first (`None`: no deadline).
    pub fn wait(&self, deadline: Option<Instant>) -> Option<V> {
        if self.0.value.get().is_none() {
            let unfilled = |_: &mut ()| self.0.value.get().is_none();
            let guard = relock(&self.0.lock);
            // A poisoned lock guards nothing: the value is read below.
            match deadline {
                None => drop(self.0.done.wait_while(guard, unfilled)),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    drop(self.0.done.wait_timeout_while(guard, left, unfilled));
                }
            }
        }
        self.0.value.get().cloned().flatten()
    }
}

impl<V: Clone> Claim<V> {
    /// A handle on the slot this claim fills, for the maker's own waiters.
    pub fn slot(&self) -> Slot<V> {
        self.0.clone()
    }

    /// Fills the slot with `value` and wakes everyone waiting on it.
    pub fn fill(self, value: V) {
        self.0.resolve(Some(value));
    }
}

impl<V> Drop for Claim<V> {
    fn drop(&mut self) {
        // A no-op after `fill`: the cell is set once.
        self.0.resolve(None);
    }
}

impl<K: PartialEq + Clone, V: Clone> ContentMemo<K, V> {
    /// An empty memo holding at most `bound` entries (at least one).
    pub fn new(bound: usize) -> Self {
        ContentMemo {
            bound: bound.max(1),
            state: Mutex::default(),
        }
    }

    /// Finds `key`'s entry under its content `hash`. A made value that
    /// `keep` refuses (stale by its owner's policy) is forgotten, as is an
    /// abandoned slot, and the caller claims the entry afresh; so does
    /// the first caller for a key, evicting the least recently used entry
    /// when the memo is at its bound.
    pub fn find(&self, hash: u64, key: &K, keep: impl FnOnce(&V) -> bool) -> Found<V> {
        let (entries, stats) = &mut *relock(&self.state);
        let now = stats.hits + stats.misses;
        let full = entries.len() >= self.bound;
        match entries.get_mut(&hash) {
            Some(entry) if entry.key == *key => {
                let found = match entry.slot.0.value.get() {
                    None => Some(Found::Pending(entry.slot.clone())),
                    Some(Some(value)) if keep(value) => Some(Found::Ready(entry.slot.clone())),
                    Some(_) => None,
                };
                if let Some(found) = found {
                    entry.used = now;
                    stats.hits += 1;
                    return found;
                }
            }
            Some(_) => stats.evictions += 1,
            None if full => {
                let oldest = entries.iter().min_by_key(|(_, e)| e.used).map(|(h, _)| *h);
                if let Some(oldest) = oldest {
                    entries.remove(&oldest);
                    stats.evictions += 1;
                }
            }
            None => {}
        }
        stats.misses += 1;
        let slot = Slot::new();
        let entry = Held {
            key: key.clone(),
            slot: slot.clone(),
            used: now,
        };
        entries.insert(hash, entry);
        Found::Claimed(Claim(slot))
    }

    /// `key`'s value, made by `init` on a miss and by no one else in the
    /// meantime: concurrent callers wait for it. A value `keep` refuses
    /// is handed to those waiting and then forgotten, and a made value
    /// `keep` refuses later is made again. The flag says whether this
    /// call ran `init`. If the maker unwinds, its waiters look again.
    pub fn get_or_init(
        &self,
        hash: u64,
        key: &K,
        keep: impl Fn(&V) -> bool,
        init: impl FnOnce() -> V,
    ) -> (V, bool) {
        let claim = loop {
            match self.find(hash, key, &keep) {
                Found::Claimed(claim) => break claim,
                Found::Ready(slot) | Found::Pending(slot) => {
                    if let Some(value) = slot.wait(None) {
                        return (value, false);
                    }
                }
            }
        };
        let value = init();
        if !keep(&value) {
            self.forget(hash, key);
        }
        claim.fill(value.clone());
        (value, true)
    }

    /// Removes `key`'s entry, made or not; whoever holds its slot still
    /// gets what fills it, and the next lookup claims it afresh.
    pub fn forget(&self, hash: u64, key: &K) {
        let (entries, _) = &mut *relock(&self.state);
        if entries.get(&hash).is_some_and(|e| e.key == *key) {
            entries.remove(&hash);
        }
    }

    /// The counters, and how many entries are held now.
    pub fn stats(&self) -> MemoStats {
        let (entries, stats) = &*relock(&self.state);
        MemoStats {
            len: entries.len() as u64,
            ..*stats
        }
    }
}

impl<K: PartialEq + Clone, V: Clone> fmt::Debug for ContentMemo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentMemo(bound {}, {:?})", self.bound, self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    fn always<V>(_: &V) -> bool {
        true
    }

    #[test]
    fn a_bound_of_one_evicts_the_least_recently_used_entry() {
        let memo = ContentMemo::new(2);
        memo.get_or_init(1, &"a", always, || 1);
        memo.get_or_init(2, &"b", always, || 2);
        // `a` is used again, so `b` is the least recently used.
        assert_eq!(memo.get_or_init(1, &"a", always, || 0), (1, false));
        memo.get_or_init(3, &"c", always, || 3);
        assert_eq!(memo.get_or_init(1, &"a", always, || 0), (1, false));
        assert_eq!(memo.get_or_init(2, &"b", always, || 20), (20, true));

        let one = ContentMemo::new(1);
        one.get_or_init(1, &"a", always, || 1);
        one.get_or_init(2, &"b", always, || 2);
        assert_eq!(one.stats().len, 1);
        assert_eq!(one.get_or_init(2, &"b", always, || 0), (2, false));
        assert_eq!(one.get_or_init(1, &"a", always, || 10), (10, true));
        assert_eq!(one.stats().evictions, 2);
    }

    #[test]
    fn eight_threads_on_one_key_run_the_init_once() {
        let memo = ContentMemo::new(4);
        let runs = AtomicUsize::new(0);
        let seen: Vec<(u64, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_init(7, &"k", always, || {
                            runs.fetch_add(1, Ordering::Relaxed);
                            // Long enough that the others find it in flight.
                            std::thread::sleep(Duration::from_millis(50));
                            42u64
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert!(seen.iter().all(|(v, _)| *v == 42));
        assert_eq!(seen.iter().filter(|(_, made)| *made).count(), 1);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1));
    }

    #[test]
    fn a_forgotten_key_runs_its_init_again() {
        let memo = ContentMemo::new(4);
        assert_eq!(memo.get_or_init(5, &"k", always, || 1), (1, true));
        memo.forget(5, &"k");
        assert_eq!(memo.get_or_init(5, &"k", always, || 2), (2, true));
        // Another key under the hash is not forgotten in its place.
        memo.forget(5, &"other");
        assert_eq!(memo.get_or_init(5, &"k", always, || 3), (2, false));
        // A value `keep` refuses is handed back, then made again.
        let refused = |v: &i32| *v > 0;
        assert_eq!(memo.get_or_init(6, &"e", refused, || -1), (-1, true));
        assert_eq!(memo.get_or_init(6, &"e", refused, || 3), (3, true));
        assert_eq!(memo.get_or_init(6, &"e", refused, || 4), (3, false));
        assert_eq!((memo.stats().misses, memo.stats().len), (4, 2));
    }

    #[test]
    fn two_keys_on_one_hash_are_never_served_each_others_value() {
        let memo = ContentMemo::new(4);
        for round in 0..3 {
            assert_eq!(
                memo.get_or_init(9, &"a", always, || "A"),
                ("A", true),
                "{round}"
            );
            assert_eq!(
                memo.get_or_init(9, &"b", always, || "B"),
                ("B", true),
                "{round}"
            );
        }
        assert_eq!(memo.get_or_init(9, &"b", always, || "x"), ("B", false));
        assert_eq!(memo.stats().len, 1);
    }

    #[test]
    fn the_counters_add_up() {
        let memo = ContentMemo::new(3);
        let mut lookups = 0;
        for i in 0..40u64 {
            let key = i * 7 % 5;
            memo.get_or_init(key, &key, always, || key * 2);
            lookups += 1;
        }
        let stats = memo.stats();
        assert_eq!(stats.hits + stats.misses, lookups);
        // Every miss inserted an entry, and nothing was forgotten.
        assert_eq!(stats.evictions, stats.misses - stats.len);
        assert_eq!(stats.len, 3);
    }

    #[test]
    fn an_abandoned_claim_wakes_its_waiters_and_is_claimed_again() {
        let memo: ContentMemo<&str, u32> = ContentMemo::new(2);
        let Found::Claimed(claim) = memo.find(1, &"k", always) else {
            panic!("a first lookup claims")
        };
        let Found::Pending(waiting) = memo.find(1, &"k", always) else {
            panic!("a second lookup waits")
        };
        let deadline = Instant::now() + Duration::from_millis(20);
        assert_eq!(waiting.wait(Some(deadline)), None, "times out unfilled");
        drop(claim);
        assert_eq!(waiting.wait(None), None);
        assert!(matches!(memo.find(1, &"k", always), Found::Claimed(_)));
        assert_eq!((memo.stats().misses, memo.stats().len), (2, 1));
    }
}
