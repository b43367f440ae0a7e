//! An incremental analysis engine over the logrel passes: content-hashed
//! queries with red-green invalidation and refinement-based reuse.
//!
//! The paper's refinement relation (§3, Proposition 2) exists so that a
//! local edit does not force global re-analysis. This crate makes that
//! operational:
//!
//! * [`logrel_lang::subspec`] splits a spec into content-hashed units
//!   (communicator core/LRCs, per-module, per-task metrics and mappings,
//!   architecture topology/probabilities, bindings);
//! * [`db`] keys each analysis pass — elaboration header, lints, E-code
//!   verification, translation validation, SRG computation,
//!   schedulability — on a **dependency digest** over exactly the units
//!   that pass may read (red-green invalidation, rust-lang RFC
//!   2547-style);
//! * [`engine`] evaluates the queries demand-driven: green entries are
//!   reused verbatim, a dirty schedulability query first attempts
//!   **refinement reuse** (the edited spec refines the cached parent ⇒
//!   Lemma 1 transfers schedulability), and only then is the dirtied
//!   cone recomputed;
//! * [`cache`] persists the database as a versioned, checksummed
//!   `.logrel-cache` file whose reads fail closed.
//!
//! The engine's contract is **differential**: warm output is
//! byte-identical to cold output for any prior database — caches change
//! cost, never results.
//!
//! # Example
//!
//! ```
//! use logrel_query::{analyze_source, QueryDb};
//! use logrel_obs::NoopSink;
//!
//! let source = r#"
//! program demo {
//!     communicator s : float period 10 sensor;
//!     communicator u : float period 10 lrc 0.9;
//!     module m {
//!         start mode main period 10 {
//!             invoke ctrl reads s[0] writes u[1];
//!         }
//!     }
//!     architecture {
//!         host h1 reliability 0.99;
//!         sensor sn reliability 0.999;
//!         wcet ctrl on h1 2;
//!         wctt ctrl on h1 1;
//!     }
//!     map {
//!         ctrl -> h1;
//!         bind s -> sn;
//!     }
//! }
//! "#;
//! let cold = analyze_source(source, "demo.htl", None, &mut NoopSink);
//! let warm = analyze_source(source, "demo.htl", cold.db.as_ref(), &mut NoopSink);
//! assert_eq!(cold.stdout, warm.stdout);       // byte-identical
//! assert_eq!(warm.stats.hits, warm.stats.queries); // fully green
//! ```

pub mod cache;
pub mod db;
pub mod engine;
pub mod payload;
pub mod shared;

pub use cache::{load, save, LoadOutcome};
pub use db::{dep_digest, CacheStats, QueryDb, QueryEntry, ENGINE_VERSION};
pub use engine::{analyze_source, cached_report, default_cache_path, AnalysisOutcome, Report};
pub use payload::{Payload, StoredDiag};
pub use shared::SharedDb;

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_obs::NoopSink;

    const SRC: &str = r#"
program demo {
    communicator s : float period 10 sensor;
    communicator u : float period 10 lrc 0.9;
    module m {
        start mode main period 10 {
            invoke ctrl reads s[0] writes u[1];
        }
    }
    architecture {
        host h1 reliability 0.99;
        sensor sn reliability 0.999;
        wcet ctrl on h1 2;
        wctt ctrl on h1 1;
    }
    map {
        ctrl -> h1;
        bind s -> sn;
    }
}
"#;

    #[test]
    fn cold_and_warm_agree_and_warm_is_fully_green() {
        let cold = analyze_source(SRC, "a.htl", None, &mut NoopSink);
        assert_eq!(cold.errors, 0, "{}", cold.stderr);
        assert!(cold.stdout.contains("verdict: VALID"), "{}", cold.stdout);
        assert_eq!(cold.stats.hits, 0);
        let db = cold.db.clone().unwrap();
        let warm = analyze_source(SRC, "a.htl", Some(&db), &mut NoopSink);
        assert_eq!(warm.stdout, cold.stdout);
        assert_eq!(warm.stderr, cold.stderr);
        assert_eq!(warm.stats.hits, warm.stats.queries);
        assert_eq!(warm.stats.recomputes, 0);
    }

    #[test]
    fn outcome_carries_the_system_it_elaborated() {
        // `ElaboratedSystem` has no `PartialEq`; its derived `Debug`
        // rendering covers every field.
        let expected = format!("{:?}", logrel_lang::compile(SRC).unwrap());
        let cold = analyze_source(SRC, "a.htl", None, &mut NoopSink);
        let sys = cold.sys.as_ref().expect("a cold run elaborates");
        assert_eq!(format!("{sys:?}"), expected);
        // A digest-identical, fully green rerun never elaborates.
        let warm = analyze_source(SRC, "a.htl", cold.db.as_ref(), &mut NoopSink);
        assert_eq!(warm.stats.hits, warm.stats.queries);
        assert!(warm.sys.is_none());
        // A source that fails to elaborate carries no system.
        let broken = SRC.replace("ctrl -> h1;", "ctrl -> nowhere;");
        let failed = analyze_source(&broken, "a.htl", None, &mut NoopSink);
        assert!(failed.errors > 0);
        assert!(failed.sys.is_none());
    }

    #[test]
    fn wcet_decrease_reuses_by_refinement_and_stays_byte_identical() {
        let cold = analyze_source(SRC, "a.htl", None, &mut NoopSink);
        let db = cold.db.unwrap();
        let edited = SRC.replace("wcet ctrl on h1 2;", "wcet ctrl on h1 1;");
        let warm = analyze_source(&edited, "a.htl", Some(&db), &mut NoopSink);
        let fresh = analyze_source(&edited, "a.htl", None, &mut NoopSink);
        assert_eq!(warm.stdout, fresh.stdout);
        assert_eq!(warm.stderr, fresh.stderr);
        // The WCET edit dirties only sched (no lint pass reads metrics,
        // and the same-width edit moves nothing); sched is answered by
        // refinement reuse (a WCET decrease refines the parent).
        assert_eq!(warm.stats.refine_reuses, 1);
        assert!(warm.stats.hits > 0);
        assert!(warm.stats.recomputes < warm.stats.queries);
    }

    #[test]
    fn wcet_increase_fails_refinement_reuse_and_recomputes() {
        let cold = analyze_source(SRC, "a.htl", None, &mut NoopSink);
        let db = cold.db.unwrap();
        let edited = SRC.replace("wcet ctrl on h1 2;", "wcet ctrl on h1 4;");
        let warm = analyze_source(&edited, "a.htl", Some(&db), &mut NoopSink);
        let fresh = analyze_source(&edited, "a.htl", None, &mut NoopSink);
        assert_eq!(warm.stdout, fresh.stdout);
        assert_eq!(warm.stderr, fresh.stderr);
        // Constraint (b2) is violated: no reuse, the sched cone recomputes.
        assert_eq!(warm.stats.refine_reuses, 0);
        assert!(warm.stats.recomputes >= 1);
        assert!(warm.stats.hits > 0);
    }

    #[test]
    fn frontend_failures_render_identically_cold_and_warm() {
        let broken = SRC.replace("map {", "mapp {");
        let cold = analyze_source(&broken, "a.htl", None, &mut NoopSink);
        assert_eq!(cold.errors, 1);
        let good = analyze_source(SRC, "a.htl", None, &mut NoopSink);
        let warm = analyze_source(&broken, "a.htl", good.db.as_ref(), &mut NoopSink);
        assert_eq!(cold.stderr, warm.stderr);
        assert_eq!(cold.stdout, warm.stdout);
    }

    #[test]
    fn cached_report_hits_only_when_unchanged() {
        let mut calls = 0;
        let fresh = |calls: &mut usize| {
            *calls += 1;
            Report { errors: 0, stdout: "out\n".into(), stderr: String::new() }
        };
        let (r1, db, hit1) =
            cached_report(SRC, "check_report", None, &mut NoopSink, || fresh(&mut calls));
        assert!(!hit1);
        let db = db.unwrap();
        let (r2, db2, hit2) =
            cached_report(SRC, "check_report", Some(&db), &mut NoopSink, || fresh(&mut calls));
        assert!(hit2);
        assert!(db2.is_none());
        assert_eq!(r1, r2);
        assert_eq!(calls, 1);
        let edited = SRC.replace("lrc 0.9", "lrc 0.8");
        let (_r3, db3, hit3) = cached_report(&edited, "check_report", Some(&db), &mut NoopSink, || {
            fresh(&mut calls)
        });
        assert!(!hit3);
        assert!(db3.is_some());
        assert_eq!(calls, 2);
    }
}
