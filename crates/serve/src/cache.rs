//! Content-addressed result cache with single-flight deduplication and
//! TTL'd negative caching.
//!
//! Keys are [`crate::request_key`]: a 64-bit structural hash of the
//! request *content* — the kernel ([`exo_ir::Proc::content_hash`]: every
//! field `==` compares, the body's share read from the hash its shared
//! blocks cache), the schedule script's steps, the target and the
//! response-shaping options — so identical traffic hits the cache
//! regardless of which handle submitted it, and nothing is printed to
//! find that out. Two requests `==` tells apart get different keys short
//! of a 64-bit collision (about 2⁻⁶⁴ a pair over honest traffic, as with
//! the FNV-1a of printed text this replaces; neither withstands crafted
//! input). The printed text is *not* such an address: the printer drops
//! the grouping of right-nested `+` / `*` and omits instruction metadata.
//!
//! Three entry states:
//!
//! * **InFlight** — a worker is computing this key. Identical
//!   submissions attach themselves as waiters and are all answered by
//!   the one computation (single-flight: N concurrent identical
//!   requests perform exactly one compilation).
//! * **Ready** — a cached success, stored with a checksum over its
//!   payload. Every hit re-validates the checksum over the whole
//!   payload; a mismatch (bit rot, or the injected `cache-corruption`
//!   fault) quarantines the entry and recomputes instead of serving
//!   corrupt data.
//! * **Failed** — a cached failure with a timestamp. Within
//!   [`ResultCache::negative_ttl`] identical requests are answered from
//!   the cache (a bad request cannot stampede the compiler); after the
//!   TTL the entry expires and the next request retries for real.

use crate::types::{CacheStatus, Delivery, ServeError, ServeOk, ServeResult};
use exo_ir::ContentHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::mpsc::Sender;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Checksum a cached success payload. Validated on every hit; the
/// injected `cache-corruption` fault flips it to simulate bit rot.
pub(crate) fn payload_checksum(ok: &ServeOk) -> u64 {
    let mut h = ContentHasher::new();
    ok.kernel.hash(&mut h);
    ok.tier.hash(&mut h);
    ok.scheduled_ir.hash(&mut h);
    ok.diagnostics.hash(&mut h);
    h.write_usize(ok.degraded.len());
    for d in &ok.degraded {
        (d.from, d.to, d.reason).hash(&mut h);
    }
    ok.c_code.hash(&mut h);
    ok.exec.hash(&mut h);
    h.finish()
}

/// What `admit` decided for a submission.
pub(crate) enum Admission {
    /// Served from a validated cached success.
    Hit(std::sync::Arc<ServeOk>),
    /// Served from a TTL-fresh cached failure.
    NegativeHit(ServeError),
    /// Attached as a waiter to an identical in-flight computation.
    Joined,
    /// The caller must compute: the key is now in-flight with the
    /// caller's sender as its first (originating) waiter.
    Compute {
        /// A corrupt `Ready` entry was detected and quarantined on the
        /// way (the computation replaces it).
        recovered_corruption: bool,
    },
}

enum Entry {
    InFlight {
        /// Waiters with the cache status each should be delivered with:
        /// the first is the originating submission (`Miss`), later ones
        /// are coalesced (`Coalesced`).
        waiters: Vec<(Sender<Delivery>, CacheStatus)>,
    },
    Ready {
        value: std::sync::Arc<ServeOk>,
        checksum: u64,
    },
    Failed {
        error: ServeError,
        at: Instant,
    },
}

/// The service's result cache. All methods take `&self`; the map is
/// behind one mutex (entries are small: `Arc`s, senders, timestamps).
pub(crate) struct ResultCache {
    entries: Mutex<HashMap<u64, Entry>>,
    /// How long cached failures stay authoritative.
    pub(crate) negative_ttl: Duration,
}

impl ResultCache {
    pub(crate) fn new(negative_ttl: Duration) -> Self {
        ResultCache {
            entries: Mutex::new(HashMap::new()),
            negative_ttl,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        // A panicking worker cannot poison this lock into uselessness:
        // the map itself is always in a consistent state between
        // operations, so the poison flag is cleared by recovering the
        // guard.
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admits one submission for `key`: hit, negative hit, join, or
    /// compute (registering `tx` as the originating waiter).
    pub(crate) fn admit(&self, key: u64, tx: Sender<Delivery>) -> Admission {
        let mut map = self.lock();
        let mut recovered_corruption = false;
        match map.get_mut(&key) {
            Some(Entry::Ready { value, checksum }) => {
                if payload_checksum(value) == *checksum {
                    return Admission::Hit(value.clone());
                }
                // Corrupt payload: quarantine (drop the entry) and fall
                // through to a fresh computation.
                recovered_corruption = true;
                map.remove(&key);
            }
            Some(Entry::Failed { error, at }) => {
                if at.elapsed() < self.negative_ttl {
                    return Admission::NegativeHit(error.clone());
                }
                // TTL expired: the failure is no longer authoritative.
                map.remove(&key);
            }
            Some(Entry::InFlight { waiters }) => {
                waiters.push((tx, CacheStatus::Coalesced));
                return Admission::Joined;
            }
            None => {}
        }
        map.insert(
            key,
            Entry::InFlight {
                waiters: vec![(tx, CacheStatus::Miss)],
            },
        );
        Admission::Compute {
            recovered_corruption,
        }
    }

    /// Resolves an in-flight key with the computed result: delivers to
    /// every waiter and stores the entry (`Ready` for successes,
    /// `Failed` with the current time for failures). Returns how many
    /// waiters were notified.
    ///
    /// `corrupt_stored` flips the stored checksum *atomically with the
    /// store* (the `cache-corruption` fault): the waiters of this
    /// computation still receive the intact result, but every later hit
    /// sees the mismatch. Injecting at store time (rather than after)
    /// leaves no window in which a racing submission could be served the
    /// entry pre-corruption and defeat the test.
    pub(crate) fn resolve(&self, key: u64, result: ServeResult, corrupt_stored: bool) -> usize {
        let mut map = self.lock();
        let waiters = match map.remove(&key) {
            Some(Entry::InFlight { waiters }) => waiters,
            // Not in flight (already rejected, or never admitted):
            // nothing to deliver, nothing to store.
            Some(other) => {
                map.insert(key, other);
                return 0;
            }
            None => Vec::new(),
        };
        match &result {
            Ok(value) => {
                let checksum = payload_checksum(value)
                    ^ if corrupt_stored {
                        0xDEAD_BEEF_DEAD_BEEF
                    } else {
                        0
                    };
                map.insert(
                    key,
                    Entry::Ready {
                        value: value.clone(),
                        checksum,
                    },
                );
            }
            Err(error) => {
                map.insert(
                    key,
                    Entry::Failed {
                        error: error.clone(),
                        at: Instant::now(),
                    },
                );
            }
        }
        drop(map);
        let notified = waiters.len();
        for (tx, status) in waiters {
            let _ = tx.send(Delivery {
                result: result.clone(),
                cache: status,
            });
        }
        notified
    }

    /// Rejects an in-flight key *without* caching the error (used for
    /// transient conditions — load shedding, shutdown — that must not
    /// poison future identical requests). Delivers `error` to every
    /// waiter and removes the entry.
    pub(crate) fn reject(&self, key: u64, error: ServeError) {
        let waiters = {
            let mut map = self.lock();
            match map.remove(&key) {
                Some(Entry::InFlight { waiters }) => waiters,
                Some(other) => {
                    map.insert(key, other);
                    Vec::new()
                }
                None => Vec::new(),
            }
        };
        for (tx, status) in waiters {
            let _ = tx.send(Delivery {
                result: Err(error.clone()),
                cache: status,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Tier;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn ok_payload() -> Arc<ServeOk> {
        Arc::new(ServeOk {
            kernel: "k".into(),
            tier: Tier::VerifiedIr,
            degraded: vec![],
            diagnostics: vec![],
            c_code: None,
            exec: None,
            scheduled_ir: "proc k() {}".into(),
            trace: crate::types::RequestTrace::default(),
        })
    }

    #[test]
    fn single_flight_coalesces_waiters_and_resolves_all() {
        let cache = ResultCache::new(Duration::from_secs(1));
        let (tx1, rx1) = channel();
        let (tx2, rx2) = channel();
        let (tx3, rx3) = channel();
        assert!(matches!(cache.admit(7, tx1), Admission::Compute { .. }));
        assert!(matches!(cache.admit(7, tx2), Admission::Joined));
        assert!(matches!(cache.admit(7, tx3), Admission::Joined));
        let notified = cache.resolve(7, Ok(ok_payload()), false);
        assert_eq!(notified, 3);
        assert_eq!(rx1.recv().unwrap().cache, CacheStatus::Miss);
        assert_eq!(rx2.recv().unwrap().cache, CacheStatus::Coalesced);
        assert_eq!(rx3.recv().unwrap().cache, CacheStatus::Coalesced);
        // Next admission is a pure hit.
        let (tx4, rx4) = channel();
        assert!(matches!(cache.admit(7, tx4), Admission::Hit(_)));
        assert!(rx4.try_recv().is_err(), "hits are delivered by the caller");
    }

    #[test]
    fn negative_entries_expire_after_the_ttl() {
        let cache = ResultCache::new(Duration::from_millis(40));
        let (tx, _rx) = channel();
        assert!(matches!(cache.admit(1, tx), Admission::Compute { .. }));
        cache.resolve(1, Err(ServeError::Internal("boom".into())), false);
        let (tx, _rx) = channel();
        assert!(matches!(cache.admit(1, tx), Admission::NegativeHit(_)));
        std::thread::sleep(Duration::from_millis(60));
        let (tx, _rx) = channel();
        assert!(
            matches!(cache.admit(1, tx), Admission::Compute { .. }),
            "expired failure must be recomputed"
        );
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recomputed() {
        let cache = ResultCache::new(Duration::from_secs(1));
        let (tx, _rx) = channel();
        assert!(matches!(cache.admit(9, tx), Admission::Compute { .. }));
        cache.resolve(9, Ok(ok_payload()), true);
        let (tx, _rx) = channel();
        match cache.admit(9, tx) {
            Admission::Compute {
                recovered_corruption,
            } => assert!(recovered_corruption),
            _ => panic!("corrupt entry must force a recompute"),
        }
    }

    #[test]
    fn reject_delivers_without_caching() {
        let cache = ResultCache::new(Duration::from_secs(1));
        let (tx, rx) = channel();
        assert!(matches!(cache.admit(4, tx), Admission::Compute { .. }));
        cache.reject(4, ServeError::Canceled);
        assert!(matches!(
            rx.recv().unwrap().result,
            Err(ServeError::Canceled)
        ));
        let (tx, _rx) = channel();
        assert!(
            matches!(cache.admit(4, tx), Admission::Compute { .. }),
            "rejected keys must not be negatively cached"
        );
    }
}
