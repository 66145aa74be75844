//! Differential testing of the currency-preservation algorithms: the
//! PTIME SP algorithm of Theorem 6.4 against the exact extension
//! enumeration over a pinned seed range (10k seeds at 2 and 3 entities
//! and 500 at 4 in release, 64 at 2 and 3 under debug), plus end-to-end
//! BCP/ECP properties.

use data_currency::datagen::random::{pinned_seeds, random_spec, RandomSpecConfig};
use data_currency::model::RelId;
use data_currency::query::SpQuery;
use data_currency::reason::{
    bcp, bcp_sp, cpp, cpp_sp, cps, ecp, maximum_extension, Options, PreservationProblem,
    ReasonError,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const T: RelId = RelId(0);
const SRC: RelId = RelId(1);

fn config(seed: u64) -> RandomSpecConfig {
    RandomSpecConfig {
        entities: 2,
        tuples_per_entity: (1, 3),
        attrs: 1,
        value_pool: 2,
        order_density: 0.3,
        monotone_constraints: 0,
        correlated_constraints: 0,
        with_copy: true,
        seed,
    }
}

/// The Theorem 6.4 sweep: (entities, debug seeds, release seeds).
const SWEEP: [(usize, u64, u64); 3] = [(2, 64, 10_000), (3, 64, 10_000), (4, 0, 500)];

/// (entities, seed) pairs on which `cpp_sp` or `bcp_sp` once answered
/// "preserving" where an extension of three actions on one source
/// entity changes the answers; run under every profile.
const REGRESSIONS: [(usize, u64); 10] = [
    (3, 20_261_209),
    (3, 20_263_660),
    (3, 20_264_142),
    (3, 20_266_761),
    (3, 20_267_413),
    (3, 20_267_784),
    (3, 20_269_538),
    (3, 20_269_702),
    (3, 20_269_753),
    (4, 20_260_926),
];

/// Run `agrees` on the identity query of every [`REGRESSIONS`] seed and
/// every pinned seed at every entity count of [`SWEEP`].  A seed whose
/// exact path is refused with [`ReasonError::BudgetExceeded`] is skipped
/// and counted.
fn sweep(
    what: &str,
    agrees: impl Fn(&PreservationProblem<'_>, &SpQuery, &str) -> Result<(), ReasonError>,
) {
    let sources: BTreeSet<RelId> = [SRC].into();
    let sp = SpQuery::identity(T, 1);
    let query = sp.to_query(1);
    let regressions = REGRESSIONS
        .iter()
        .map(|&(entities, seed)| (entities, seed..seed + 1));
    let pinned = SWEEP.map(|(entities, debug, release)| (entities, pinned_seeds(debug, release)));
    // (compared, refused) per entity count.
    let mut counts: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for (entities, seeds) in regressions.chain(pinned) {
        for seed in seeds {
            let spec = random_spec(&RandomSpecConfig {
                entities,
                ..config(seed)
            });
            let problem = PreservationProblem {
                spec: &spec,
                sources: &sources,
                query: &query,
            };
            let (compared, refused) = counts.entry(entities).or_default();
            match agrees(&problem, &sp, &format!("seed {seed}, {entities} entities")) {
                Ok(()) => *compared += 1,
                Err(ReasonError::BudgetExceeded { .. }) => *refused += 1,
                Err(e) => panic!("{what} failed on seed {seed}, {entities} entities: {e}"),
            }
        }
    }
    for (entities, (compared, refused)) in counts {
        eprintln!("{what}, {entities} entities: {compared} seeds compared, {refused} refused");
        assert!(
            refused * 10 <= compared,
            "{what}: the exact path refused too many seeds"
        );
    }
}

/// Theorem 6.4: the PTIME SP algorithm decides CPP exactly.
#[test]
fn cpp_sp_agrees_with_exact_cpp() {
    sweep("cpp", |problem, sp, at| {
        let exact = cpp(problem, &Options::default())?;
        let fast = cpp_sp(problem.spec, problem.sources, sp).expect("PTIME path");
        assert_eq!(fast, exact, "{at}");
        Ok(())
    });
}

/// Theorem 6.4: the PTIME SP algorithm decides BCP exactly, k ≤ 2.
#[test]
fn bcp_sp_agrees_with_exact_bcp() {
    sweep("bcp", |problem, sp, at| {
        for k in 0..3 {
            let exact = bcp(problem, k, &Options::default())?;
            let opts = Options::default();
            let fast = bcp_sp(problem.spec, problem.sources, sp, k, &opts).expect("PTIME path");
            assert_eq!(fast, exact, "{at}, k {k}");
        }
        Ok(())
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn maximum_extension_is_always_currency_preserving(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed));
        if !cps(&spec).unwrap() {
            return Ok(());
        }
        let sources: BTreeSet<RelId> = [SRC].into();
        let maxed = maximum_extension(&spec, &sources).unwrap();
        prop_assert!(cps(&maxed).unwrap());
        let sp = SpQuery::identity(T, 1);
        let query = sp.to_query(1);
        let problem = PreservationProblem {
            spec: &maxed,
            sources: &sources,
            query: &query,
        };
        // Proposition 5.2: the greedy maximum extension is currency
        // preserving for *every* query; check it for the identity query.
        prop_assert!(cpp(&problem, &Options::default()).unwrap(), "seed {}", seed);
    }

    #[test]
    fn ecp_equals_consistency(seed in 0u64..10_000) {
        let spec = random_spec(&config(seed));
        let sources: BTreeSet<RelId> = [SRC].into();
        let sp = SpQuery::identity(T, 1);
        let query = sp.to_query(1);
        let problem = PreservationProblem {
            spec: &spec,
            sources: &sources,
            query: &query,
        };
        prop_assert_eq!(ecp(&problem).unwrap(), cps(&spec).unwrap());
    }

    #[test]
    fn bcp_is_monotone_in_k(seed in 0u64..5_000) {
        let spec = random_spec(&config(seed));
        let sources: BTreeSet<RelId> = [SRC].into();
        let sp = SpQuery::identity(T, 1);
        let query = sp.to_query(1);
        let problem = PreservationProblem {
            spec: &spec,
            sources: &sources,
            query: &query,
        };
        let mut prev = false;
        for k in 0..3 {
            let now = bcp(&problem, k, &Options::default()).unwrap();
            prop_assert!(!prev || now, "BCP answer must be monotone in k (seed {})", seed);
            prev = now;
        }
    }
}
