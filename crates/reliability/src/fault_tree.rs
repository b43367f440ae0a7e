//! Fault trees with AND/OR/voting gates and minimal cut sets.
//!
//! A fault tree (the paper's reference \[12\], Kececioglu's *Reliability
//! Engineering Handbook*) describes how component *failures* combine into a
//! system failure — the dual of a reliability block diagram. [`Gate`]
//! evaluates the top-event probability under independence and enumerates
//! minimal cut sets (minimal sets of basic events that together cause the
//! top event).

use crate::error::ReliabilityError;
use crate::rbd::{at_least, Block};
use std::collections::BTreeSet;
use std::fmt;

/// A fault-tree node. Leaves are basic failure events; internal gates
/// combine child failures.
///
/// # Example
///
/// ```
/// use logrel_reliability::Gate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // System fails if the sensor fails OR both hosts fail.
/// let tree = Gate::or(vec![
///     Gate::basic("sensor", 0.01),
///     Gate::and(vec![Gate::basic("h1", 0.2), Gate::basic("h2", 0.2)]),
/// ]);
/// let p = tree.probability();
/// assert!((p - (1.0 - 0.99 * (1.0 - 0.04))).abs() < 1e-12);
/// let cuts = tree.minimal_cut_sets();
/// assert_eq!(cuts.len(), 2); // {sensor}, {h1, h2}
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// A basic failure event with a failure probability in `[0, 1]`.
    Basic {
        /// The event's name.
        name: String,
        /// Probability that the event occurs.
        failure_probability: f64,
    },
    /// Fires iff every child fires.
    And(Vec<Gate>),
    /// Fires iff at least one child fires.
    Or(Vec<Gate>),
    /// Fires iff at least `k` children fire.
    Vote {
        /// Threshold of firing children.
        k: usize,
        /// The voted children.
        children: Vec<Gate>,
    },
}

impl Gate {
    /// A basic event. `failure_probability` is clamped to `[0, 1]`.
    pub fn basic(name: impl Into<String>, failure_probability: f64) -> Gate {
        Gate::Basic {
            name: name.into(),
            failure_probability: failure_probability.clamp(0.0, 1.0),
        }
    }

    /// An AND gate.
    pub fn and(children: Vec<Gate>) -> Gate {
        Gate::And(children)
    }

    /// An OR gate.
    pub fn or(children: Vec<Gate>) -> Gate {
        Gate::Or(children)
    }

    /// A k-of-n voting gate.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::Structure`] if `k > children.len()`.
    pub fn vote(k: usize, children: Vec<Gate>) -> Result<Gate, ReliabilityError> {
        if k > children.len() {
            return Err(ReliabilityError::Structure {
                detail: format!("{k}-of-{} voting gate", children.len()),
            });
        }
        Ok(Gate::Vote { k, children })
    }

    /// Probability of the top event, assuming independent basic events.
    pub fn probability(&self) -> f64 {
        match self {
            Gate::Basic {
                failure_probability,
                ..
            } => *failure_probability,
            Gate::And(children) => children.iter().map(Gate::probability).product(),
            Gate::Or(children) => {
                1.0 - children
                    .iter()
                    .map(|c| 1.0 - c.probability())
                    .product::<f64>()
            }
            Gate::Vote { k, children } => at_least(*k, children.iter().map(Gate::probability)),
        }
    }

    /// Enumerates the minimal cut sets by MOCUS-style expansion followed by
    /// absorption (removing supersets).
    ///
    /// Each cut set is a set of basic-event names whose joint occurrence
    /// causes the top event. Voting gates expand into the OR of all
    /// k-subsets.
    pub fn minimal_cut_sets(&self) -> Vec<BTreeSet<String>> {
        let mut cuts = self.cut_sets();
        // Absorption: drop any set that is a superset of another.
        cuts.sort_by_key(BTreeSet::len);
        let mut minimal: Vec<BTreeSet<String>> = Vec::new();
        for c in cuts {
            if !minimal.iter().any(|m| m.is_subset(&c)) {
                minimal.push(c);
            }
        }
        minimal
    }

    fn cut_sets(&self) -> Vec<BTreeSet<String>> {
        match self {
            Gate::Basic { name, .. } => {
                vec![std::iter::once(name.clone()).collect()]
            }
            Gate::Or(children) => children.iter().flat_map(Gate::cut_sets).collect(),
            Gate::And(children) => {
                let mut acc: Vec<BTreeSet<String>> = vec![BTreeSet::new()];
                for c in children {
                    let child_cuts = c.cut_sets();
                    let mut next = Vec::with_capacity(acc.len() * child_cuts.len());
                    for a in &acc {
                        for cc in &child_cuts {
                            let mut merged = a.clone();
                            merged.extend(cc.iter().cloned());
                            next.push(merged);
                        }
                    }
                    acc = next;
                }
                acc
            }
            Gate::Vote { k, children } => {
                // OR over AND of each k-subset.
                let n = children.len();
                let mut out = Vec::new();
                let mut indices: Vec<usize> = (0..*k).collect();
                if *k == 0 {
                    return vec![BTreeSet::new()];
                }
                loop {
                    let subset = Gate::And(indices.iter().map(|&i| children[i].clone()).collect());
                    out.extend(subset.cut_sets());
                    // Next combination.
                    let mut i = *k;
                    loop {
                        if i == 0 {
                            return out;
                        }
                        i -= 1;
                        if indices[i] != i + n - *k {
                            break;
                        }
                    }
                    if indices[i] == i + n - *k {
                        return out;
                    }
                    indices[i] += 1;
                    for j in i + 1..*k {
                        indices[j] = indices[j - 1] + 1;
                    }
                }
            }
        }
    }

    /// Converts the fault tree into the dual reliability block diagram:
    /// basic failure `p` becomes a unit of reliability `1 − p`, AND failure
    /// becomes an OR (parallel) junction and vice versa.
    ///
    /// # Errors
    ///
    /// Returns [`ReliabilityError::Structure`] for gates whose dual is
    /// ill-formed (e.g. an empty AND gate, or a basic event with failure
    /// probability 1, whose dual reliability 0 is not representable).
    pub fn to_block(&self) -> Result<Block, ReliabilityError> {
        match self {
            Gate::Basic {
                name,
                failure_probability,
            } => {
                let r = logrel_core::Reliability::new(1.0 - failure_probability)?;
                Ok(Block::named_unit(name.clone(), r))
            }
            Gate::And(children) => Block::parallel(
                children
                    .iter()
                    .map(Gate::to_block)
                    .collect::<Result<_, _>>()?,
            ),
            Gate::Or(children) => Ok(Block::series(
                children
                    .iter()
                    .map(Gate::to_block)
                    .collect::<Result<_, _>>()?,
            )),
            Gate::Vote { k, children } => {
                // System fails iff >= k children fail, i.e. works iff
                // >= n-k+1 children work.
                let n = children.len();
                Block::k_of_n(
                    n - k + 1,
                    children
                        .iter()
                        .map(Gate::to_block)
                        .collect::<Result<_, _>>()?,
                )
            }
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::Basic {
                name,
                failure_probability,
            } => write!(f, "{name}({failure_probability})"),
            Gate::And(cs) => {
                write!(f, "AND(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Gate::Or(cs) => {
                write!(f, "OR(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            Gate::Vote { k, children } => {
                write!(f, "VOTE{k}/{}(", children.len())?;
                for (i, c) in children.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn and_or_probabilities() {
        let and = Gate::and(vec![Gate::basic("a", 0.5), Gate::basic("b", 0.5)]);
        assert!((and.probability() - 0.25).abs() < 1e-12);
        let or = Gate::or(vec![Gate::basic("a", 0.5), Gate::basic("b", 0.5)]);
        assert!((or.probability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn vote_gate_probability() {
        // 2-of-3 failures at p=0.1: 3*0.01*0.9 + 0.001 = 0.028.
        let g = Gate::vote(2, vec![Gate::basic("x", 0.1); 3]).unwrap();
        assert!((g.probability() - 0.028).abs() < 1e-12);
        assert!(Gate::vote(4, vec![Gate::basic("x", 0.1); 3]).is_err());
    }

    #[test]
    fn minimal_cut_sets_with_absorption() {
        // OR(a, AND(a, b)) -> minimal cut sets {a} only.
        let g = Gate::or(vec![
            Gate::basic("a", 0.1),
            Gate::and(vec![Gate::basic("a", 0.1), Gate::basic("b", 0.1)]),
        ]);
        let cuts = g.minimal_cut_sets();
        assert_eq!(cuts.len(), 1);
        assert!(cuts[0].contains("a"));
    }

    #[test]
    fn vote_cut_sets_are_k_subsets() {
        let g = Gate::vote(
            2,
            vec![
                Gate::basic("a", 0.1),
                Gate::basic("b", 0.1),
                Gate::basic("c", 0.1),
            ],
        )
        .unwrap();
        let cuts = g.minimal_cut_sets();
        assert_eq!(cuts.len(), 3); // {a,b}, {a,c}, {b,c}
        for c in &cuts {
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn dual_block_reliability_is_complement() {
        let g = Gate::or(vec![
            Gate::basic("sensor", 0.01),
            Gate::and(vec![Gate::basic("h1", 0.2), Gate::basic("h2", 0.2)]),
        ]);
        let block = g.to_block().unwrap();
        assert!((block.probability() - (1.0 - g.probability())).abs() < 1e-12);
    }

    #[test]
    fn dual_of_vote_gate() {
        let g = Gate::vote(2, vec![Gate::basic("x", 0.1); 3]).unwrap();
        let block = g.to_block().unwrap();
        assert!((block.probability() - (1.0 - g.probability())).abs() < 1e-12);
    }

    #[test]
    fn display_nests() {
        let g = Gate::or(vec![
            Gate::basic("a", 0.1),
            Gate::vote(1, vec![Gate::basic("b", 0.2)]).unwrap(),
        ]);
        let s = g.to_string();
        assert!(s.contains("OR") && s.contains("VOTE1/1") && s.contains("a(0.1)"));
    }

    #[test]
    fn clamping_of_basic_probability() {
        assert_eq!(Gate::basic("x", 2.0).probability(), 1.0);
        assert_eq!(Gate::basic("x", -1.0).probability(), 0.0);
    }

    proptest! {
        #[test]
        fn dual_identity_random_trees(
            pa in 0.0f64..0.99, pb in 0.0f64..0.99, pc in 0.0f64..0.99
        ) {
            let g = Gate::or(vec![
                Gate::and(vec![Gate::basic("a", pa), Gate::basic("b", pb)]),
                Gate::basic("c", pc),
            ]);
            let block = g.to_block().unwrap();
            prop_assert!((block.probability() - (1.0 - g.probability())).abs() < 1e-10);
        }
    }
}
