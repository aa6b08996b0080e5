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
//! Every hit is confirmed by comparing the whole request, so not even a
//! collision can answer one request with another's result.
//!
//! The cache is the service's [`ContentMemo`] of answers, at most
//! [`RESULT_CACHE_CAP`] of them, least recently used out first. Its
//! slots are the single-flight: the first submission of a key claims the
//! slot and a worker fills it, and identical submissions meanwhile hold
//! the same slot and are all answered by the one computation (N
//! concurrent identical requests perform exactly one compilation). Two
//! policies sit on top:
//!
//! * **checksummed successes** — a success is stored with a checksum over
//!   its payload, and every hit re-validates it over the whole payload; a
//!   mismatch (bit rot, or the injected `cache-corruption` fault) forgets
//!   the entry and recomputes instead of serving corrupt data;
//! * **TTL'd failures** — a failure is stored with a timestamp. Within
//!   the negative TTL identical requests are answered from the cache (a
//!   bad request cannot stampede the compiler); after it the entry is
//!   forgotten and the next request retries for real.
//!
//! Transient outcomes — load shedding, shutdown — reach everyone holding
//! the slot and are forgotten, never kept.

use crate::types::{ServeError, ServeOk, ServeRequest, ServeResult};
use exo_ir::memo::{Claim, ContentMemo};
use exo_ir::ContentHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Results a service keeps at most. A held result is its `ServeOk` —
/// names, degradations, the trace's steps; the plan's printed IR,
/// diagnostics and C are shared with the plan, not copied — and its
/// key's copy of the request: a one-worker service serving interp seeds
/// of the three records grew ≈ 1.7 kB of RSS per result held, so the cap
/// is ≈ 1.7 MB. `serve_mixed` cycles 48 hot keys, far below it; a client
/// cycling more distinct requests than this recomputes the least
/// recently used.
pub const RESULT_CACHE_CAP: usize = 1024;

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

/// One answer as the cache holds it: the result, the checksum of a
/// success's payload and the time a failure was stored.
#[derive(Clone)]
pub(crate) struct Stored {
    pub(crate) result: ServeResult,
    checksum: u64,
    at: Instant,
}

impl Stored {
    /// `result` as stored now. `corrupt` flips the checksum of a success
    /// *as it is stored* (the `cache-corruption` fault): the computation's
    /// own waiters still receive the intact result, but every later hit
    /// sees the mismatch. Injecting at store time (rather than after)
    /// leaves no window in which a racing submission could be served the
    /// entry pre-corruption and defeat the test.
    pub(crate) fn new(result: ServeResult, corrupt: bool) -> Self {
        let checksum = match &result {
            Ok(ok) if corrupt => payload_checksum(ok) ^ 0xDEAD_BEEF_DEAD_BEEF,
            Ok(ok) => payload_checksum(ok),
            Err(_) => 0,
        };
        Stored {
            result,
            checksum,
            at: Instant::now(),
        }
    }

    /// Whether the cache may still answer with this: a success whose
    /// payload still matches its checksum (`corrupt` says that it does
    /// not), or a failure stored less than `negative_ttl` ago. A lookup
    /// that finds it stale forgets it and computes afresh.
    pub(crate) fn fresh(&self, negative_ttl: Duration, corrupt: &mut bool) -> bool {
        match &self.result {
            Ok(ok) => {
                *corrupt = payload_checksum(ok) != self.checksum;
                !*corrupt
            }
            Err(_) => self.at.elapsed() < negative_ttl,
        }
    }
}

/// The service's result cache: answers by request, at most
/// [`RESULT_CACHE_CAP`] of them.
pub(crate) type ResultCache = ContentMemo<ServeRequest, Stored>;

/// Answers everyone holding `claim`'s slot with a transient `error`
/// (load shedding, shutdown) and keeps nothing: the next identical
/// request computes for real.
pub(crate) fn reject(
    cache: &ResultCache,
    key: u64,
    request: &ServeRequest,
    claim: Claim<Stored>,
    error: ServeError,
) {
    cache.forget(key, request);
    claim.fill(Stored::new(Err(error), false));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{RequestTrace, ServeOptions, Tier};
    use exo_ir::memo::Found;
    use exo_kernels::{scal, Precision};
    use exo_machine::MachineKind;
    use std::sync::Arc;

    fn request(input_seed: u64) -> ServeRequest {
        ServeRequest {
            proc: scal(Precision::Single),
            script: Default::default(),
            target: MachineKind::Scalar,
            options: ServeOptions {
                input_seed,
                ..ServeOptions::default()
            },
        }
    }

    fn ok_payload() -> Arc<ServeOk> {
        Arc::new(ServeOk {
            kernel: "k".into(),
            tier: Tier::VerifiedIr,
            degraded: vec![],
            diagnostics: Arc::new([]),
            c_code: None,
            exec: None,
            scheduled_ir: "proc k() {}".into(),
            trace: RequestTrace::default(),
        })
    }

    const TTL: Duration = Duration::from_millis(40);

    /// A lookup as the service makes it, and whether it found a corrupt
    /// success.
    fn find(cache: &ResultCache, key: u64, request: &ServeRequest) -> (Found<Stored>, bool) {
        let mut corrupt = false;
        let found = cache.find(key, request, |s| s.fresh(TTL, &mut corrupt));
        (found, corrupt)
    }

    fn claim(cache: &ResultCache, key: u64, request: &ServeRequest) -> Claim<Stored> {
        match find(cache, key, request) {
            (Found::Claimed(claim), _) => claim,
            _ => panic!("expected a miss"),
        }
    }

    #[test]
    fn single_flight_coalesces_waiters_and_resolves_all() {
        let cache = ResultCache::new(RESULT_CACHE_CAP);
        let req = request(1);
        let first = claim(&cache, 7, &req);
        let joined: Vec<_> = (0..2)
            .map(|_| match find(&cache, 7, &req) {
                (Found::Pending(slot), false) => slot,
                _ => panic!("an identical request joins the one in flight"),
            })
            .collect();
        let own = first.slot();
        first.fill(Stored::new(Ok(ok_payload()), false));
        for slot in joined.iter().chain([&own]) {
            assert!(slot.wait(None).is_some_and(|s| s.result.is_ok()));
        }
        assert!(matches!(find(&cache, 7, &req), (Found::Ready(_), false)));
        // Another request under the same key is not served that answer.
        assert!(matches!(
            find(&cache, 7, &request(2)),
            (Found::Claimed(_), false)
        ));
    }

    #[test]
    fn negative_entries_expire_after_the_ttl() {
        let cache = ResultCache::new(RESULT_CACHE_CAP);
        let req = request(1);
        claim(&cache, 1, &req).fill(Stored::new(Err(ServeError::Internal("boom".into())), false));
        assert!(matches!(find(&cache, 1, &req), (Found::Ready(_), false)));
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            matches!(find(&cache, 1, &req), (Found::Claimed(_), false)),
            "expired failure must be recomputed"
        );
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_recomputed() {
        let cache = ResultCache::new(RESULT_CACHE_CAP);
        let req = request(1);
        claim(&cache, 9, &req).fill(Stored::new(Ok(ok_payload()), true));
        assert!(
            matches!(find(&cache, 9, &req), (Found::Claimed(_), true)),
            "corrupt entry must force a recompute"
        );
    }

    #[test]
    fn reject_delivers_without_caching() {
        let cache = ResultCache::new(RESULT_CACHE_CAP);
        let req = request(1);
        let first = claim(&cache, 4, &req);
        let own = first.slot();
        reject(&cache, 4, &req, first, ServeError::Canceled);
        assert!(matches!(
            own.wait(None).map(|s| s.result),
            Some(Err(ServeError::Canceled))
        ));
        assert!(
            matches!(find(&cache, 4, &req), (Found::Claimed(_), false)),
            "rejected keys must not be negatively cached"
        );
    }
}
