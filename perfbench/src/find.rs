//! `find_large`: cold Finds through `Session::handle_line`, and the
//! traced rebuild of one Find from the finder's public phase calls.

use std::path::Path;
use std::time::{Duration, Instant};

use gtl_api::{FindRequest, Request, Response};
use gtl_core::derive_stream;
use gtl_netlist::{CellId, Netlist};
use gtl_tangled::candidate::extract_candidate;
use gtl_tangled::prune::prune_overlapping_with;
use gtl_tangled::refine::{refine_candidate, RefineConfig};
use gtl_tangled::{
    match_gtls, Candidate, CandidateConfig, FinderConfig, GrowthConfig, LinearOrdering,
    OrderingGrower, PruneScratch,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::designs::{self, stream, Planted};
use crate::report::Report;
use crate::stats::{mean, median, timed};
use crate::trace::{ApiSample, Tracer};

/// Worker threads inside each timed Find.
const FIND_THREADS: usize = 2;
/// Distinct Finds per run; each round issues all of them once, so each
/// is timed many times and the median falls inside one request's
/// distribution rather than between two.
const DISTINCT_REQUESTS: u64 = 3;

/// The Find configuration of request `index`: 64 seeds, orderings of up
/// to 4000 cells, GTLs of at least 200 cells.
///
/// `rng_seed` depends on the request index only, not on the workload
/// seed (which varies the design). The finder's master stream draws the
/// seed cells, so a fixed `rng_seed` places the same number of them in
/// the planted blocks (the low cell ids) on every design; drawn from the
/// workload seed, that binomial count alone moved a Find between 0.36 s
/// and 0.68 s, which no run of a few Finds can average out.
pub fn config(index: u64, threads: usize) -> FinderConfig {
    FinderConfig {
        num_seeds: 64,
        max_order_len: 4_000,
        min_size: 200,
        threads,
        rng_seed: derive_stream(0, stream::FIND + index),
        ..FinderConfig::default()
    }
}

/// The request line for a Find under `config`.
pub fn request_line(config: FinderConfig) -> String {
    serde::json::to_string(&Request::Find(FindRequest::new(config)))
}

/// The GTL cell lists of a Find response line, or `None` for anything
/// but a Find response.
pub fn response_gtls(line: &str) -> Option<Vec<Vec<CellId>>> {
    match serde::json::from_str::<Response>(line) {
        Ok(Response::Find(resp)) => Some(resp.result.gtls.into_iter().map(|g| g.cells).collect()),
        _ => None,
    }
}

/// Planted blocks matched by a found GTL, over planted blocks.
pub fn recall(truth: &[Vec<CellId>], found: &[Vec<CellId>], universe: usize) -> f64 {
    let report = match_gtls(truth, found, universe);
    report.matches.len() as f64 / truth.len().max(1) as f64
}

/// One seed search of the rebuild: the interval of each phase, the
/// Phase I ordering length, and the refined candidate (if any).
pub struct Search {
    /// Start and end of Phase I (growth), II (extraction), III (refinement).
    pub phases: [(Instant, Instant); 3],
    /// Cells placed in the Phase I ordering.
    pub ordered_cells: usize,
    /// The search's candidate after refinement, cells sorted.
    pub candidate: Option<Candidate>,
}

impl Search {
    /// Seconds in phase `p`.
    pub fn phase_s(&self, p: usize) -> f64 {
        let (start, end) = self.phases[p];
        end.duration_since(start).as_secs_f64()
    }

    /// Seconds of the whole search.
    pub fn total_s(&self) -> f64 {
        self.phases[2].1.duration_since(self.phases[0].0).as_secs_f64()
    }
}

/// The three-phase pipeline rebuilt from public calls.
pub struct Rebuild {
    /// Per-seed searches, in seed order.
    pub searches: Vec<Search>,
    /// Start and end of the overlap pruning.
    pub prune: (Instant, Instant),
    /// Candidates before pruning.
    pub candidates: usize,
    /// Cell lists of the kept GTLs, best first.
    pub gtls: Vec<Vec<CellId>>,
}

/// Rebuilds a Find on one thread: seeds drawn from the master stream,
/// each search with its own `derive_stream` RNG, then the serial pruning
/// pass. Equals the finder's output for any thread count.
pub fn rebuild(netlist: &Netlist, config: &FinderConfig) -> Rebuild {
    let n = netlist.num_cells();
    let mut master = SmallRng::seed_from_u64(config.rng_seed);
    let seeds: Vec<CellId> =
        (0..config.num_seeds).map(|_| CellId::new(master.gen_range(0..n))).collect();
    let growth = GrowthConfig {
        max_len: config.max_order_len,
        lambda_threshold: config.lambda_threshold,
        criterion: config.criterion,
    };
    let candidate_config = CandidateConfig {
        metric: config.metric,
        min_size: config.min_size,
        accept_threshold: config.accept_threshold,
        prominence: config.prominence,
        max_size: ((n as f64 * config.max_fraction) as usize).max(config.min_size),
        rent_exponent: config.rent_exponent,
    };
    let refine_config = RefineConfig { extra_seeds: config.refine_seeds };
    let mut grower = OrderingGrower::new(netlist, growth);
    let mut ordering = LinearOrdering::new();
    let mut searches: Vec<Search> = seeds
        .iter()
        .enumerate()
        .map(|(index, &seed_cell)| {
            let mut rng = SmallRng::seed_from_u64(derive_stream(config.rng_seed, index as u64));
            let t0 = Instant::now();
            grower.grow_into(seed_cell, &mut ordering);
            let t1 = Instant::now();
            let candidate =
                extract_candidate(&ordering, netlist.avg_pins_per_cell(), &candidate_config);
            let t2 = Instant::now();
            let candidate = candidate.map(|cand| {
                let mut cand = if config.refine {
                    refine_candidate(
                        netlist,
                        &mut grower,
                        cand,
                        &candidate_config,
                        &refine_config,
                        &mut rng,
                    )
                } else {
                    cand
                };
                cand.cells.sort_unstable();
                cand
            });
            let t3 = Instant::now();
            Search {
                phases: [(t0, t1), (t1, t2), (t2, t3)],
                ordered_cells: ordering.len(),
                candidate,
            }
        })
        .collect();
    let candidates: Vec<Candidate> =
        searches.iter_mut().filter_map(|s| s.candidate.take()).collect();
    let num_candidates = candidates.len();
    let t0 = Instant::now();
    let kept = prune_overlapping_with(candidates, n, &mut PruneScratch::new(n));
    let t1 = Instant::now();
    Rebuild {
        searches,
        prune: (t0, t1),
        candidates: num_candidates,
        gtls: kept.into_iter().map(|c| c.cells).collect(),
    }
}

/// The 1-thread rebuild of request `index`, with a span per search phase
/// and around the pruning pass.
fn traced_rebuild(netlist: &Netlist, index: u64, rep: u64, tracer: &mut Tracer) -> Rebuild {
    let root = tracer.open(rep, "tangled.find", None);
    let rebuilt = rebuild(netlist, &config(index, 1));
    for search in &rebuilt.searches {
        let (start, _) = search.phases[0];
        let (_, end) = search.phases[2];
        let parent = tracer.record(rep, "tangled.search", Some(root), start, end);
        for (p, name) in ["tangled.phase1", "tangled.phase2", "tangled.phase3"].iter().enumerate() {
            let (s, e) = search.phases[p];
            tracer.record(rep, name, Some(parent), s, e);
        }
    }
    tracer.record(rep, "tangled.prune", Some(root), rebuilt.prune.0, rebuilt.prune.1);
    tracer.close(root);
    rebuilt
}

/// Sets the design up several times, then times rounds of cold Finds
/// over [`DISTINCT_REQUESTS`] distinct requests for `seconds`. Every
/// response must equal its request's first response, whose GTL cell
/// lists must equal a rebuild of the request.
pub fn run_untraced(seed: u64, seconds: Duration, dir: &Path) -> Result<Report, String> {
    let (design, setup_s) = designs::repeated_setup(|| designs::planted(seed, dir))?;
    let session = &design.session;
    let configs: Vec<FinderConfig> =
        (0..DISTINCT_REQUESTS).map(|i| config(i, FIND_THREADS)).collect();
    let lines: Vec<String> = configs.iter().map(|c| request_line(*c)).collect();
    let rounds = crate::trace::rounds(lines.len(), seconds, |k| session.handle_line(&lines[k]))?;
    let mut report = Report::default();
    rounds.count_checked(&mut report, |k, response| {
        let expected = rebuild(session.netlist(), &configs[k]).gtls;
        response_gtls(response).is_some_and(|found| found == expected)
    });
    crate::trace::end_to_end(
        &mut report,
        setup_s,
        &rounds.latencies_s,
        rounds.elapsed_s,
        rounds.peak_rss_mb,
    );
    Ok(report)
}

/// Per-layer numbers of one profiled Find.
struct FindSample {
    phases_s: [f64; 3],
    prune_s: f64,
    ordered_cells: f64,
    candidates: f64,
    empty_searches: f64,
    gtls: f64,
    seeds: f64,
    unattributed_s: f64,
    speedup: f64,
    efficiency: f64,
    straggler: f64,
    recall: f64,
    api: ApiSample,
}

/// Profiles Finds on the planted design for at least `budget` (at least
/// one), cycling through the untraced run's requests: the untraced
/// 2-thread request, the same request split into parse, dispatch and
/// encode spans, the 1-thread request, and the 1-thread rebuild with a
/// span per phase. Adds the `tangled.*` and `exec.*` metrics (timings as
/// medians, exact counts from the first request) and returns the `api`
/// sample.
pub fn profile(
    design: &Planted,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<ApiSample, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        samples.push(profile_one(design, samples.len() as u64, tracer, report));
        if start.elapsed() >= budget {
            break;
        }
    }
    let med = |f: &dyn Fn(&FindSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    for (p, name) in ["tangled.phase1_s", "tangled.phase2_s", "tangled.phase3_s"].iter().enumerate()
    {
        report.metric(name, med(&|s| s.phases_s[p]), "s");
    }
    report.metric("tangled.prune_s", med(&|s| s.prune_s), "s");
    report.metric(
        "tangled.phase1_ns_per_cell",
        med(&|s| s.phases_s[0] * 1e9 / s.ordered_cells.max(1.0)),
        "ns",
    );
    report.metric("tangled.unattributed_s", med(&|s| s.unattributed_s), "s");
    report.metric("exec.speedup", med(&|s| s.speedup), "ratio");
    report.metric("exec.efficiency", med(&|s| s.efficiency), "ratio");
    report.metric("exec.straggler_ratio", med(&|s| s.straggler), "ratio");
    let first = &samples[0];
    report.metric("tangled.ordered_cells", first.ordered_cells, "count");
    report.metric("tangled.candidates", first.candidates, "count");
    report.metric("tangled.empty_searches", first.empty_searches, "count");
    report.metric("tangled.gtls", first.gtls, "count");
    report.metric("tangled.candidate_yield", first.candidates / first.seeds, "ratio");
    report.metric("tangled.prune_keep_ratio", first.gtls / first.candidates.max(1.0), "ratio");
    report.metric("tangled.recall", first.recall, "ratio");
    Ok(ApiSample::summarize(&samples.iter().map(|s| s.api).collect::<Vec<_>>()))
}

/// Profiles repetition `rep` (also its span request id) of the cycle
/// through the run's distinct requests.
fn profile_one(design: &Planted, rep: u64, tracer: &mut Tracer, report: &mut Report) -> FindSample {
    let session = &design.session;
    let netlist = session.netlist();
    let index = rep % DISTINCT_REQUESTS;
    let line = request_line(config(index, FIND_THREADS));
    let line1 = request_line(config(index, 1));
    // Each pair (untraced and traced request; 1-thread request and
    // rebuild) runs back to back, in an order that alternates by
    // repetition, so drift in the machine's speed cancels in the medians
    // of the overhead and the residual.
    let swap = rep % 2 == 1;
    let traced = swap.then(|| crate::trace::traced_request(session, &line, rep, tracer));
    let (response, wall2) = timed(|| session.handle_line(&line));
    let traced =
        traced.unwrap_or_else(|| crate::trace::traced_request(session, &line, rep, tracer));
    let api = ApiSample::of(&traced, &response, wall2);
    let rebuilt = swap.then(|| traced_rebuild(netlist, index, rep, tracer));
    let (response1, wall1) = timed(|| session.handle_line(&line1));
    let rebuilt = rebuilt.unwrap_or_else(|| traced_rebuild(netlist, index, rep, tracer));

    let found = response_gtls(&response);
    // The 2-thread response, the 1-thread response and the traced
    // request agree byte for byte, and equal the rebuild.
    let ok = found.as_ref() == Some(&rebuilt.gtls) && response1 == response && api.matches;
    report.count(ok);

    let searches = &rebuilt.searches;
    let phases_s: [f64; 3] = std::array::from_fn(|p| searches.iter().map(|s| s.phase_s(p)).sum());
    let prune_s = rebuilt.prune.1.duration_since(rebuilt.prune.0).as_secs_f64();
    let search_s: Vec<f64> = searches.iter().map(Search::total_s).collect();
    let parts = phases_s.iter().sum::<f64>() + prune_s + api.encode_s;
    FindSample {
        phases_s,
        prune_s,
        ordered_cells: searches.iter().map(|s| s.ordered_cells).sum::<usize>() as f64,
        candidates: rebuilt.candidates as f64,
        empty_searches: (searches.len() - rebuilt.candidates) as f64,
        gtls: rebuilt.gtls.len() as f64,
        seeds: searches.len() as f64,
        unattributed_s: wall1 - parts,
        speedup: wall1 / wall2,
        efficiency: search_s.iter().sum::<f64>() / (FIND_THREADS as f64 * wall2),
        straggler: search_s.iter().cloned().fold(0.0, f64::max) / mean(&search_s),
        recall: recall(&design.truth, &rebuilt.gtls, netlist.num_cells()),
        api,
    }
}
