//! The designs the workloads run on, generated from the workload seed.

use std::path::Path;
use std::time::Instant;

use gtl_api::Session;
use gtl_core::derive_stream;
use gtl_netlist::{hgr, CellId, Netlist};
use gtl_synth::ispd_like::{self, IspdBenchmark, IspdLikeConfig};
use gtl_synth::planted::{self, PlantedConfig};

use crate::stats::{median, timed};

/// Set-ups per untraced run: at least this many, and more until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;
/// Shortest span of the set-ups, so a set-up of a few milliseconds is
/// still sampled over a second of the machine's varying speed.
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Cells of the planted design behind `find_large` and `serve_mixed`.
pub const PLANTED_CELLS: usize = 50_000;
/// Sizes of the blocks planted in it.
pub const PLANTED_BLOCKS: [usize; 3] = [1_500, 2_500, 4_000];
/// Scale of the ISPD-like adaptec1 design behind `place_large`.
pub const ADAPTEC_SCALE: f64 = 0.2;

/// Index spaces of `derive_stream(seed, ·)`, one per input kind, so no
/// two inputs of a run share a random stream.
pub mod stream {
    /// The design generator.
    pub const DESIGN: u64 = 0;
    /// `rng_seed` of `find_large`'s Finds (plus request index).
    pub const FIND: u64 = 1 << 32;
    /// `placer.seed` of `place_large`'s Places (plus request index).
    pub const PLACE: u64 = 2 << 32;
    /// `serve_mixed`'s request mix (plus connection index).
    pub const SERVE_MIX: u64 = 3 << 32;
    /// `rng_seed` of `serve_mixed`'s hot Finds (plus hot index).
    pub const SERVE_HOT: u64 = 4 << 32;
    /// `rng_seed` of `serve_mixed`'s distinct Finds (plus a counter).
    pub const SERVE_DISTINCT: u64 = 5 << 32;
}

/// A planted design loaded through `.hgr`, with its ground truth.
pub struct Planted {
    /// The session over the loaded netlist.
    pub session: Session,
    /// Cells of each planted block.
    pub truth: Vec<Vec<CellId>>,
    /// Start and end of `gtl_api::load_netlist`.
    pub parse: (Instant, Instant),
}

impl Planted {
    /// Seconds spent in `gtl_api::load_netlist`.
    pub fn parse_s(&self) -> f64 {
        self.parse.1.duration_since(self.parse.0).as_secs_f64()
    }
}

/// Generates the planted design, writes it to `.hgr` under `dir`, loads
/// it back with `gtl_api::load_netlist` and builds a session.
pub fn planted(seed: u64, dir: &Path) -> Result<Planted, String> {
    let generated = planted::generate(&PlantedConfig {
        num_cells: PLANTED_CELLS,
        blocks: PLANTED_BLOCKS.to_vec(),
        seed: derive_stream(seed, stream::DESIGN),
        ..PlantedConfig::default()
    });
    let path = dir.join(format!("planted-{seed}.hgr"));
    let (netlist, parse) = write_and_load(&generated.netlist, &path)?;
    let session = Session::builder().netlist(netlist).build().map_err(|e| e.to_string())?;
    Ok(Planted { session, truth: generated.truth, parse })
}

/// The ISPD-like adaptec1 design, built in memory: `.hgr` drops the
/// cell areas the placer needs.
pub fn adaptec(seed: u64) -> Result<Session, String> {
    let generated = ispd_like::generate(&IspdLikeConfig {
        seed: derive_stream(seed, stream::DESIGN),
        ..IspdLikeConfig::new(IspdBenchmark::Adaptec1, ADAPTEC_SCALE)
    });
    Session::builder().netlist(generated.netlist).build().map_err(|e| e.to_string())
}

/// Writes `netlist` as `.hgr` and loads it back with
/// `gtl_api::load_netlist`, returning the interval of the load.
pub fn write_and_load(
    netlist: &Netlist,
    path: &Path,
) -> Result<(Netlist, (Instant, Instant)), String> {
    hgr::write(netlist, path).map_err(|e| format!("write {}: {e}", path.display()))?;
    let path = path.to_str().ok_or("design path is not UTF-8")?;
    let start = Instant::now();
    let loaded = gtl_api::load_netlist(path).map_err(|e| e.to_string())?;
    Ok((loaded, (start, Instant::now())))
}

/// Runs `setup` [`SETUP_REPEATS`] times or for [`SETUP_MIN_SECONDS`],
/// whichever is longer, dropping each result before the next, and
/// returns the last result with the median seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    while seconds.len() < SETUP_REPEATS || seconds.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(last.take());
        let (value, s) = timed(&mut setup);
        last = Some(value?);
        seconds.push(s);
    }
    Ok((last.expect("SETUP_REPEATS is positive"), median(&seconds)))
}
