//! Component importance measures.
//!
//! Given the RBD of a communicator's SRG, *which* host or sensor should be
//! improved (or replicated) first? Classical reliability engineering
//! answers with importance measures over the structure function:
//!
//! * **Birnbaum importance** `I_B(x) = R(system | x works) − R(system | x
//!   failed)` — the sensitivity of system reliability to component `x`;
//! * **improvement potential** `I_P(x) = R(system | x works) − R(system)` —
//!   the gain from making `x` perfect.
//!
//! Both treat all units with the same *name* as one physical component
//! (pinned together), which matches diagrams where a component appears on
//! several paths.

use crate::error::ReliabilityError;
use crate::rbd::Block;
use crate::srg::communicator_block;
use logrel_core::{Architecture, CommunicatorId, Implementation, Specification};
use std::collections::{BTreeMap, BTreeSet};

/// Importance scores of one named component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentImportance {
    /// The component's name (as labelled in the diagram).
    pub name: String,
    /// Birnbaum importance `∂R/∂p`.
    pub birnbaum: f64,
    /// Improvement potential `R(x perfect) − R`.
    pub improvement: f64,
}

fn collect_names<'b>(block: &'b Block, out: &mut BTreeSet<&'b str>) {
    match block {
        Block::Unit { name, .. } => {
            if let Some(n) = name.as_deref() {
                out.insert(n);
            }
        }
        Block::Series(cs) | Block::Parallel(cs) | Block::KOfN { children: cs, .. } => {
            for c in cs {
                collect_names(c, out);
            }
        }
    }
}

/// Computes Birnbaum importance and improvement potential for every named
/// unit of `block`, sorted by descending Birnbaum importance.
///
/// # Example
///
/// ```
/// use logrel_core::Reliability;
/// use logrel_reliability::{importance::block_importance, Block};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A weak sensor in series with two replicated hosts.
/// let block = Block::series(vec![
///     Block::named_unit("sensor", Reliability::new(0.95)?),
///     Block::parallel(vec![
///         Block::named_unit("h1", Reliability::new(0.99)?),
///         Block::named_unit("h2", Reliability::new(0.99)?),
///     ])?,
/// ]);
/// let ranking = block_importance(&block);
/// // The series sensor dominates.
/// assert_eq!(ranking[0].name, "sensor");
/// # Ok(())
/// # }
/// ```
pub fn block_importance(block: &Block) -> Vec<ComponentImportance> {
    let mut names = BTreeSet::new();
    collect_names(block, &mut names);
    let base = block.probability();
    let mut out: Vec<ComponentImportance> = names
        .into_iter()
        .map(|name| {
            let mut up = BTreeMap::new();
            up.insert(name, 1.0);
            let mut down = BTreeMap::new();
            down.insert(name, 0.0);
            let r_up = block.probability_with(&up);
            let r_down = block.probability_with(&down);
            ComponentImportance {
                name: name.to_owned(),
                birnbaum: r_up - r_down,
                improvement: r_up - base,
            }
        })
        .collect();
    out.sort_by(|a, b| b.birnbaum.total_cmp(&a.birnbaum).then(a.name.cmp(&b.name)));
    out
}

/// Ranks the architecture components (hosts, sensors) by their Birnbaum
/// importance for communicator `comm`'s SRG under `imp` — the components
/// whose improvement (or replication) pays off most.
///
/// # Errors
///
/// Same conditions as [`communicator_block`].
pub fn architecture_importance(
    spec: &Specification,
    arch: &Architecture,
    imp: &Implementation,
    comm: CommunicatorId,
) -> Result<Vec<ComponentImportance>, ReliabilityError> {
    let block = communicator_block(spec, arch, imp, comm)?;
    Ok(block_importance(&block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use logrel_core::{
        CommunicatorDecl, HostDecl, Reliability, SensorDecl, TaskDecl, ValueType,
    };

    fn r(v: f64) -> Reliability {
        Reliability::new(v).unwrap()
    }

    #[test]
    fn series_unit_has_full_birnbaum_in_isolation() {
        let b = Block::named_unit("only", r(0.7));
        let imp = block_importance(&b);
        assert_eq!(imp.len(), 1);
        assert!((imp[0].birnbaum - 1.0).abs() < 1e-12);
        assert!((imp[0].improvement - 0.3).abs() < 1e-12);
    }

    #[test]
    fn redundant_components_matter_less() {
        let block = Block::series(vec![
            Block::named_unit("sensor", r(0.95)),
            Block::parallel(vec![
                Block::named_unit("h1", r(0.9)),
                Block::named_unit("h2", r(0.9)),
            ])
            .unwrap(),
        ]);
        let ranking = block_importance(&block);
        assert_eq!(ranking[0].name, "sensor");
        // I_B(sensor) = R(par) = 0.99; I_B(h1) = 0.95 * (1 - 0.9) = 0.095.
        assert!((ranking[0].birnbaum - 0.99).abs() < 1e-12);
        let h1 = ranking.iter().find(|c| c.name == "h1").unwrap();
        assert!((h1.birnbaum - 0.095).abs() < 1e-12);
    }

    #[test]
    fn repeated_names_are_pinned_together() {
        // The same physical host on two paths: pinning both at once makes
        // its Birnbaum importance 1 (it is a single point of failure).
        let block = Block::parallel(vec![
            Block::series(vec![
                Block::named_unit("shared", r(0.9)),
                Block::named_unit("a", r(0.8)),
            ]),
            Block::series(vec![
                Block::named_unit("shared", r(0.9)),
                Block::named_unit("b", r(0.8)),
            ]),
        ])
        .unwrap();
        let ranking = block_importance(&block);
        let shared = ranking.iter().find(|c| c.name == "shared").unwrap();
        // With shared failed the system fails: R_down = 0. With it perfect:
        // 1 - 0.2^2 = 0.96.
        assert!((shared.birnbaum - 0.96).abs() < 1e-12);
        assert_eq!(ranking[0].name, "shared");
    }

    #[test]
    fn k_of_n_importance() {
        let block = Block::k_of_n(
            2,
            vec![
                Block::named_unit("x", r(0.9)),
                Block::named_unit("y", r(0.9)),
                Block::named_unit("z", r(0.9)),
            ],
        )
        .unwrap();
        let ranking = block_importance(&block);
        // Symmetric: all equal; I_B = P(exactly one of the others works)
        // = 2 * 0.9 * 0.1 = 0.18.
        for c in &ranking {
            assert!((c.birnbaum - 0.18).abs() < 1e-12, "{c:?}");
        }
    }

    #[test]
    fn architecture_ranking_of_a_pipeline() {
        let mut sb = Specification::builder();
        let s = sb
            .communicator(
                CommunicatorDecl::new("s", ValueType::Float, 10)
                    .unwrap()
                    .from_sensor(),
            )
            .unwrap();
        let u = sb
            .communicator(CommunicatorDecl::new("u", ValueType::Float, 10).unwrap())
            .unwrap();
        let t = sb.task(TaskDecl::new("ctrl").reads(s, 0).writes(u, 1)).unwrap();
        let spec = sb.build().unwrap();
        let mut ab = logrel_core::Architecture::builder();
        let h1 = ab.host(HostDecl::new("h1", r(0.99))).unwrap();
        let h2 = ab.host(HostDecl::new("h2", r(0.99))).unwrap();
        let sen = ab.sensor(SensorDecl::new("weak-sensor", r(0.9))).unwrap();
        ab.wcet_all(t, 1).unwrap();
        ab.wctt_all(t, 1).unwrap();
        let arch = ab.build();
        let imp = Implementation::builder()
            .assign(t, [h1, h2])
            .bind_sensor(s, sen)
            .build(&spec, &arch)
            .unwrap();
        let ranking = architecture_importance(&spec, &arch, &imp, u).unwrap();
        // The unreplicated weak sensor dominates the replicated hosts.
        assert_eq!(ranking[0].name, "weak-sensor");
        assert!(ranking.iter().any(|c| c.name.contains("ctrl@h1")));
    }
}
