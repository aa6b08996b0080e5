//! `serve_mixed`: reads between writes on the service's cache. One client
//! on a `KernelService` with one worker alternates a `Tier::Interp`
//! request with a fresh input seed (a miss: replay, verify, emit,
//! interpret; no `cc`) and a batch of requests cycling 48 pre-warmed keys
//! (every one a hit). One client, not a reader beside a writer: with two
//! busy threads on the two-thread host every time flipped between two
//! levels a factor 1.45 apart, for a share of the run that went from a
//! twentieth to nearly all of it (README.md).

use super::{
    avx2_records, counters_add_up, mix, one_worker_service, record_request, reference_outputs,
    summarize, Ctx, Round, StepTimes, Unavailable, Workload, RECORD_KERNELS,
};
use crate::report::Metrics;
use crate::stats::{median, percentile, Folded, Sample};
use exo_ir::Proc;
use exo_lib::ScheduleScript;
use exo_serve::{
    request_key, CacheStatus, ExecSummary, KernelService, ServeRequest, StatsSnapshot, Tier,
};
use std::time::{Duration, Instant};

const WARM_KEYS: usize = 48;
/// Length of a fixed round: short enough that a traced round's spans
/// (three records per hit) stay far below the collector's capacity.
const FIXED_ROUND: Duration = Duration::from_millis(400);

/// Hits between two misses, and per throughput sample: about 2 ms.
const READ_BATCH: usize = 256;

pub struct ServeMixed {
    service: KernelService,
    kernels: Vec<(Proc, ScheduleScript)>,
    /// The requests that hit, in the order they are cycled, with the
    /// summary each was warmed to.
    warm: Vec<(ServeRequest, ExecSummary)>,
    /// Input seeds of the misses never repeat within a run.
    next_seed: u64,
    /// Of the last round: every hit's latency, the misses' pipeline steps,
    /// and misses per second of the time spent on them.
    hits_ns: Vec<f64>,
    steps: StepTimes,
    miss_rate: f64,
}

fn request(kernel: &(Proc, ScheduleScript), input_seed: u64) -> ServeRequest {
    record_request(kernel, Tier::Interp, input_seed)
}

impl ServeMixed {
    pub fn setup(ctx: &Ctx) -> Result<Self, Unavailable> {
        let kernels = avx2_records(&RECORD_KERNELS)?;
        let service = one_worker_service(&ctx.caps);
        // Warm the keys that will hit, in an order the seed decides.
        let mut order: Vec<usize> = (0..WARM_KEYS).collect();
        order.sort_by_key(|i| mix(ctx.seed, 200 + *i as u64));
        let mut warm = Vec::with_capacity(WARM_KEYS);
        for i in order {
            let req = request(&kernels[i % kernels.len()], 1 + (i / kernels.len()) as u64);
            let summary = service
                .submit(req.clone())
                .wait()
                .and_then(|d| d.result.ok())
                .and_then(|ok| ok.exec.filter(|_| ok.tier == Tier::Interp))
                .ok_or_else(|| Unavailable(format!("cannot warm `{}`", req.proc.name())))?;
            warm.push((req, summary));
        }
        Ok(ServeMixed {
            service,
            kernels,
            warm,
            next_seed: 1000 + mix(ctx.seed, 4) % (1 << 32),
            hits_ns: Vec::new(),
            steps: StepTimes::default(),
            miss_rate: 0.0,
        })
    }
}

impl Workload for ServeMixed {
    fn round(&mut self, slice: Option<Duration>) -> Round {
        let slice = slice.unwrap_or(FIXED_ROUND);
        let before = self.service.stats();
        let mut round = Round::default();
        // Room for the hits of a round, so that no batch is timed over a
        // reallocation.
        let (mut hits_ns, mut steps) = (Vec::with_capacity(1 << 19), StepTimes::default());
        let mut miss_s = 0.0;
        let mut warm = self.warm.iter().cycle();
        let start = Instant::now();
        while start.elapsed() < slice {
            // One miss: the kernels in turn, an input seed never used before.
            let seed = self.next_seed;
            self.next_seed += 1;
            let class = (seed % self.kernels.len() as u64) as u32;
            let kernel = &self.kernels[class as usize];
            let t0 = Instant::now();
            let delivery = {
                let _span = exo_obs::span!("bench:serve.submit_wait", "miss");
                self.service.submit(request(kernel, seed)).wait()
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            miss_s += ms / 1e3;
            round.samples.push(Sample {
                class,
                units: 1.0,
                ms,
            });
            // The served summary is that of the *unscheduled* kernel on
            // the same inputs, interpreted here.
            let agrees = {
                let _check = exo_obs::span!("bench:client.check");
                let served = delivery.and_then(|d| {
                    let ok = d.result.ok()?;
                    (d.cache == CacheStatus::Miss
                        && ok.tier == Tier::Interp
                        && ok.degraded.is_empty())
                    .then_some(ok)
                });
                served.is_some_and(|ok| {
                    steps.record(&ok, "interp", ms * 1e6);
                    reference_outputs(&kernel.0, seed)
                        .map(|want| summarize(&want))
                        .ok()
                        == ok.exec
                })
            };
            round.failed += u64::from(!agrees);

            // One batch of hits on the warmed keys.
            let batch_start = Instant::now();
            for (req, summary) in warm.by_ref().take(READ_BATCH) {
                let t0 = Instant::now();
                let delivery = {
                    let _span = exo_obs::span!("bench:serve.submit_wait", "hit");
                    self.service.submit(req.clone()).wait()
                };
                hits_ns.push(t0.elapsed().as_nanos() as f64);
                let hit = delivery.is_some_and(|d| {
                    d.cache == CacheStatus::Hit
                        && d.result.is_ok_and(|ok| ok.exec == Some(*summary))
                });
                round.failed += u64::from(!hit);
            }
            round.rate_samples.push(Sample {
                class: 0,
                units: READ_BATCH as f64,
                ms: batch_start.elapsed().as_secs_f64() * 1e3,
            });
        }
        round.attempted = (round.samples.len() + hits_ns.len()) as u64;

        let s = self.service.stats();
        if !counters_add_up(&s) {
            eprintln!("serve_mixed: service counters do not add up: {s:?}");
            round.failed += 1;
        }
        round.counts = vec![
            ("serve.degradations", s.degradations - before.degradations),
            ("serve.overloaded", s.overloaded - before.overloaded),
        ];
        self.miss_rate = round.samples.len() as f64 / miss_s;
        self.hits_ns = hits_ns;
        self.steps = steps;
        round
    }

    fn layer_metrics(&mut self, _folded: &Folded, out: &mut Metrics) {
        let s: StatsSnapshot = self.service.stats();
        out.set("hit_latency_us_p50", median(&self.hits_ns) / 1e3);
        out.set(
            "serve.hit_latency_us_p99",
            percentile(&self.hits_ns, 0.99) / 1e3,
        );
        out.set(
            "serve.hit_latency_us_p999",
            percentile(&self.hits_ns, 0.999) / 1e3,
        );
        out.set("serve.miss_req_per_s", self.miss_rate);
        self.steps.report(out);
        out.set("serve.interp_us_p50", median(&self.steps.tier) / 1e3);
        out.set("interp.run_ms", self.steps.tier.iter().sum::<f64>() / 1e6);
        out.set("serve.cache_hits", s.cache_hits as f64);
        out.set("serve.coalesced", s.coalesced as f64);
        out.set("serve.computed", s.computed as f64);
        out.set(
            "serve.hit_ratio",
            s.cache_hits as f64 / s.submitted.max(1) as f64,
        );
        out.set("guard.timeouts", s.guard_timeouts as f64);
        // What a hit pays before the cache is even consulted: hashing the
        // request, most of it pretty-printing the proc.
        let t0 = Instant::now();
        for (req, _) in &self.warm {
            std::hint::black_box(request_key(req));
        }
        out.set(
            "serve.request_key_us",
            t0.elapsed().as_secs_f64() * 1e6 / self.warm.len() as f64,
        );
        let t0 = Instant::now();
        let printed: usize = self
            .warm
            .iter()
            .map(|(req, _)| req.proc.to_string().len())
            .sum();
        out.set(
            "ir.print_us",
            t0.elapsed().as_secs_f64() * 1e6 / self.warm.len() as f64,
        );
        out.set("ir.printed_bytes", (printed / self.warm.len()) as f64);
    }
}
