//! Property-based tests (proptest) on the core data structures and the
//! algorithmic invariants that the whole reproduction rests on.

use proptest::prelude::*;
use tangled_logic::netlist::{hgr, CellId, CellSet, Netlist, NetlistBuilder, SubsetStats};
use tangled_logic::tangled::candidate::{extract_candidate, CandidateConfig};
use tangled_logic::tangled::metrics::{self, DesignContext};
use tangled_logic::tangled::prune::prune_overlapping;
use tangled_logic::tangled::{GrowthConfig, OrderingGrower};

/// Strategy: a random netlist with up to `max_cells` cells and nets of
/// 2..=5 pins drawn from them.
fn arb_netlist(max_cells: usize, max_nets: usize) -> impl Strategy<Value = Netlist> {
    (2..max_cells, 1..max_nets).prop_flat_map(move |(cells, nets)| {
        proptest::collection::vec(proptest::collection::vec(0..cells, 2..=5usize), nets..=nets)
            .prop_map(move |net_pins| {
                let mut b = NetlistBuilder::new();
                b.add_anonymous_cells(cells);
                for pins in net_pins {
                    b.add_anonymous_net(pins.into_iter().map(CellId::new));
                }
                b.finish()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The two CSR directions always agree, pins are deduplicated, and the
    /// pin count is consistent.
    #[test]
    fn netlist_structure_is_consistent(nl in arb_netlist(40, 60)) {
        prop_assert!(nl.validate().is_ok());
        let by_cells: usize = nl.cells().map(|c| nl.cell_degree(c)).sum();
        let by_nets: usize = nl.nets().map(|n| nl.net_degree(n)).sum();
        prop_assert_eq!(by_cells, nl.num_pins());
        prop_assert_eq!(by_nets, nl.num_pins());
    }

    /// hgr serialization round-trips connectivity exactly.
    #[test]
    fn hgr_roundtrip(nl in arb_netlist(30, 40)) {
        let text = hgr::to_string(&nl);
        let again = hgr::parse_str(&text).unwrap();
        prop_assert_eq!(again.num_cells(), nl.num_cells());
        prop_assert_eq!(again.num_nets(), nl.num_nets());
        for net in nl.nets() {
            prop_assert_eq!(again.net_cells(net), nl.net_cells(net));
        }
    }

    /// CellSet algebra obeys the usual set laws.
    #[test]
    fn cellset_algebra(
        a in proptest::collection::hash_set(0usize..200, 0..40),
        b in proptest::collection::hash_set(0usize..200, 0..40),
    ) {
        let sa = CellSet::from_cells(200, a.iter().map(|&i| CellId::new(i)));
        let sb = CellSet::from_cells(200, b.iter().map(|&i| CellId::new(i)));
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        let diff = sa.difference(&sb);
        prop_assert_eq!(union.len(), a.union(&b).count());
        prop_assert_eq!(inter.len(), a.intersection(&b).count());
        prop_assert_eq!(diff.len(), a.difference(&b).count());
        // |A| + |B| = |A ∪ B| + |A ∩ B|
        prop_assert_eq!(sa.len() + sb.len(), union.len() + inter.len());
        // A \ B and B are disjoint; their union is A ∪ B.
        prop_assert!(diff.is_disjoint(&sb));
        prop_assert_eq!(diff.union(&sb).len(), union.len());
        prop_assert_eq!(sa.intersection_len(&sb), inter.len());
    }

    /// The incremental per-prefix profiles of a Phase I ordering equal an
    /// exact recomputation via SubsetStats — the key algorithmic invariant
    /// of the fast grower.
    #[test]
    fn ordering_profiles_match_exact_recomputation(nl in arb_netlist(30, 50)) {
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        let ordering = grower.grow(CellId::new(0));
        for k in 0..ordering.len() {
            let set = CellSet::from_cells(nl.num_cells(), ordering.cells()[..=k].iter().copied());
            let exact = SubsetStats::compute(&nl, &set);
            prop_assert_eq!(exact, ordering.stats_at(k), "prefix {}", k);
        }
    }

    /// Growth never repeats a cell, and every non-seed cell is connected
    /// to the prefix before it (frontier property).
    #[test]
    fn ordering_is_connected_and_duplicate_free(nl in arb_netlist(30, 50)) {
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        let ordering = grower.grow(CellId::new(1.min(nl.num_cells() - 1)));
        let mut seen = CellSet::new(nl.num_cells());
        for (k, &cell) in ordering.cells().iter().enumerate() {
            prop_assert!(seen.insert(cell), "cell repeated");
            if k > 0 {
                let connected = nl.cell_nets(cell).iter().any(|&net| {
                    nl.net_cells(net).iter().any(|&u| u != cell && seen.contains(u))
                });
                prop_assert!(connected, "cell {} not connected to prefix", cell);
            }
        }
    }

    /// Pruning returns score-sorted, pairwise-disjoint candidates, and
    /// never invents or duplicates cells.
    #[test]
    fn pruning_invariants(
        groups in proptest::collection::vec(
            (proptest::collection::hash_set(0usize..100, 1..20), 0.0f64..2.0),
            0..12,
        )
    ) {
        let candidates: Vec<_> = groups
            .iter()
            .map(|(cells, score)| {
                // `prune_overlapping` requires canonical (sorted) lists.
                let mut cells: Vec<CellId> = cells.iter().map(|&i| CellId::new(i)).collect();
                cells.sort_unstable();
                tangled_logic::tangled::Candidate {
                    cells,
                    stats: SubsetStats::default(),
                    score: *score,
                    rent_exponent: 0.6,
                    minimum_index: 0,
                }
            })
            .collect();
        let kept = prune_overlapping(candidates, 100);
        let mut covered = CellSet::new(100);
        let mut last = f64::NEG_INFINITY;
        for c in &kept {
            prop_assert!(c.score >= last);
            last = c.score;
            for &cell in &c.cells {
                prop_assert!(covered.insert(cell), "overlapping GTLs kept");
            }
        }
    }

    /// nGTL-S is scale-fair: multiplying size and Rent-consistent cut
    /// together leaves the score unchanged (up to rounding).
    #[test]
    fn ngtl_score_is_size_fair(
        size in 50usize..5_000,
        factor in 2usize..8,
        p in 0.4f64..0.8,
    ) {
        let ctx = DesignContext { avg_pins_per_cell: 4.0, rent_exponent: p };
        let cut_small = 4.0 * (size as f64).powf(p);
        let cut_large = 4.0 * ((size * factor) as f64).powf(p);
        let s_small = metrics::ngtl_score(cut_small.round() as usize, size, &ctx);
        let s_large = metrics::ngtl_score(cut_large.round() as usize, size * factor, &ctx);
        prop_assert!((s_small - s_large).abs() < 0.05, "{} vs {}", s_small, s_large);
    }

    /// Bookshelf write/read round-trips connectivity and areas for any
    /// generated netlist.
    #[test]
    fn bookshelf_roundtrip(nl in arb_netlist(25, 30), case in 0u64..1_000_000) {
        use tangled_logic::netlist::bookshelf::{self, BookshelfDesign};
        let n = nl.num_cells();
        let design = BookshelfDesign {
            widths: (0..n).map(|i| 1.0 + (i % 5) as f64).collect(),
            heights: vec![1.0; n],
            fixed: (0..n).map(|i| i % 7 == 0).collect(),
            positions: Some((0..n).map(|i| (i as f64, (i * 2) as f64)).collect()),
            rows: Vec::new(),
            netlist: {
                // Rebuild with areas = width × height so the parser's
                // area reconstruction can be checked exactly.
                let mut b = NetlistBuilder::new();
                for i in 0..n {
                    b.add_cell(format!("cell_{i}"), 1.0 + (i % 5) as f64);
                }
                for net in nl.nets() {
                    b.add_net(format!("net_{}", net.index()), nl.net_cells(net).iter().copied());
                }
                b.finish()
            },
        };
        let dir = tangled_logic::core::testdir::test_dir("gtl_prop_bookshelf", &case.to_string());
        bookshelf::write_design(&design, &dir, "prop").unwrap();
        let loaded = bookshelf::read_aux(dir.join("prop.aux")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(loaded.netlist.num_cells(), n);
        prop_assert_eq!(loaded.netlist.num_nets(), nl.num_nets());
        prop_assert_eq!(loaded.netlist.num_pins(), nl.num_pins());
        for i in 0..n {
            let c = CellId::new(i);
            prop_assert!((loaded.netlist.cell_area(c) - design.netlist.cell_area(c)).abs() < 1e-9);
            prop_assert_eq!(loaded.fixed[i], i % 7 == 0);
        }
    }

    /// Verilog writer round-trips per-cell degrees for any netlist whose
    /// nets are non-empty.
    #[test]
    fn verilog_writer_roundtrip(nl in arb_netlist(20, 25)) {
        use tangled_logic::netlist::verilog;
        let text = verilog::to_module_string(&nl, "prop", None);
        let again = verilog::parse_str(&text).unwrap();
        prop_assert_eq!(again.netlist.num_cells(), nl.num_cells());
        prop_assert_eq!(again.netlist.num_pins(), nl.num_pins());
        for c in nl.cells() {
            prop_assert_eq!(again.netlist.cell_degree(c), nl.cell_degree(c));
        }
    }

    /// Candidate extraction never returns a group outside its configured
    /// size window or above the acceptance threshold.
    #[test]
    fn candidate_respects_config(nl in arb_netlist(40, 80)) {
        let mut grower = OrderingGrower::new(&nl, GrowthConfig::default());
        let ordering = grower.grow(CellId::new(0));
        let config = CandidateConfig {
            min_size: 3,
            max_size: 20,
            accept_threshold: 0.8,
            ..CandidateConfig::default()
        };
        if let Some(c) = extract_candidate(&ordering, nl.avg_pins_per_cell(), &config) {
            prop_assert!(c.cells.len() >= 3 && c.cells.len() <= 20);
            prop_assert!(c.score < 0.8);
            prop_assert!(c.stats.cut > 0);
        }
    }
}
