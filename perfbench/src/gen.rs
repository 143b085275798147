//! Seeded `PAR` instances and the answer oracle.
//!
//! Every expected answer is computed here, from the generated edge lists, by
//! plain loops over the edges: nothing in this module calls the engine under
//! test.  The invention-dependent questions (parity, perfect squares) use the
//! repository's reference functions, which are arithmetic, not evaluation.

use crate::rng::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// A parent→child edge list over named atoms.
#[derive(Debug, Clone)]
pub struct Graph {
    pub edges: Vec<(String, String)>,
}

/// `n` distinct atom names `{prefix}{k}` with seeded suffixes.
pub fn names(rng: &mut Rng, prefix: &str, n: usize) -> Vec<String> {
    let mut ids: Vec<usize> = (0..n.max(1) * 10).collect();
    rng.shuffle(&mut ids);
    ids.truncate(n);
    ids.into_iter().map(|k| format!("{prefix}{k}")).collect()
}

impl Graph {
    pub fn chain(nodes: &[String]) -> Graph {
        Graph {
            edges: nodes
                .windows(2)
                .map(|w| (w[0].clone(), w[1].clone()))
                .collect(),
        }
    }

    /// A complete `arity`-ary tree: node `i` hangs below node `(i - 1) / arity`.
    pub fn heap(nodes: &[String], arity: usize) -> Graph {
        Graph {
            edges: (1..nodes.len())
                .map(|i| (nodes[(i - 1) / arity].clone(), nodes[i].clone()))
                .collect(),
        }
    }

    /// `trees` complete `arity`-ary trees over (near) equal shares of the
    /// nodes.
    pub fn forest(nodes: &[String], trees: usize, arity: usize) -> Graph {
        let cut = |t: usize| t * nodes.len() / trees;
        Graph {
            edges: (0..trees)
                .flat_map(|t| Graph::heap(&nodes[cut(t)..cut(t + 1)], arity).edges)
                .collect(),
        }
    }

    /// The same relation with its tuples in a seeded order.  The program
    /// numbers atoms in order of first appearance, and its quantifiers
    /// enumerate in that order, so this varies where searches stop early.
    pub fn shuffled(mut self, rng: &mut Rng) -> Graph {
        rng.shuffle(&mut self.edges);
        self
    }

    /// The relation literal `{[p, c], …}` in the surface syntax.
    pub fn literal(&self) -> String {
        let pairs: Vec<String> = self.edges.iter().map(|(a, b)| pair(a, b)).collect();
        format!("{{{}}}", pairs.join(", "))
    }

    pub fn atoms(&self) -> BTreeSet<String> {
        self.edges
            .iter()
            .flat_map(|(a, b)| [a.clone(), b.clone()])
            .collect()
    }

    pub fn contains(&self, a: &str, b: &str) -> bool {
        self.edges.iter().any(|(x, y)| x == a && y == b)
    }

    fn children(&self) -> BTreeMap<&str, Vec<&str>> {
        let mut out: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (a, b) in &self.edges {
            out.entry(a.as_str()).or_default().push(b.as_str());
        }
        out
    }

    /// `{[a, c] | PAR(a, b) ∧ PAR(b, c)}`.
    pub fn grandparents(&self) -> BTreeSet<(String, String)> {
        let children = self.children();
        let mut out = BTreeSet::new();
        for (a, b) in &self.edges {
            for c in children.get(b.as_str()).into_iter().flatten() {
                out.insert((a.clone(), c.to_string()));
            }
        }
        out
    }

    /// `{[b, c] | PAR(a, b) ∧ PAR(a, c) ∧ b ≠ c}`.
    pub fn siblings(&self) -> BTreeSet<(String, String)> {
        let mut out = BTreeSet::new();
        for kids in self.children().values() {
            for b in kids {
                for c in kids {
                    if b != c {
                        out.insert((b.to_string(), c.to_string()));
                    }
                }
            }
        }
        out
    }

    /// Parents of at least one leaf: `{a | PAR(a, b) ∧ ¬∃c PAR(b, c)}`.
    pub fn leaf_parents(&self) -> BTreeSet<String> {
        let children = self.children();
        self.edges
            .iter()
            .filter(|(_, b)| !children.contains_key(b.as_str()))
            .map(|(a, _)| a.clone())
            .collect()
    }

    /// The transitive closure (Example 3.1's answer), by reachability.
    pub fn closure(&self) -> BTreeSet<(String, String)> {
        let children = self.children();
        let mut out = BTreeSet::new();
        for start in self.atoms() {
            let mut stack: Vec<&str> = children.get(start.as_str()).cloned().unwrap_or_default();
            let mut seen = BTreeSet::new();
            while let Some(node) = stack.pop() {
                if seen.insert(node) {
                    out.insert((start.clone(), node.to_string()));
                    stack.extend(children.get(node).into_iter().flatten());
                }
            }
        }
        out
    }
}

pub fn pair(a: &str, b: &str) -> String {
    format!("[{a}, {b}]")
}

/// Answer lines as the session prints them (two-space indent), sorted.
pub fn pair_rows(set: &BTreeSet<(String, String)>) -> Vec<String> {
    sorted(set.iter().map(|(a, b)| format!("  {}", pair(a, b))))
}

pub fn atom_rows<'a>(atoms: impl IntoIterator<Item = &'a String>) -> Vec<String> {
    sorted(atoms.into_iter().map(|a| format!("  {a}")))
}

pub fn sorted(rows: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut rows: Vec<String> = rows.into_iter().collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(edges: &[(&str, &str)]) -> Graph {
        Graph {
            edges: edges
                .iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    #[test]
    fn closed_forms_on_small_graphs() {
        let chain = g(&[("a", "b"), ("b", "c"), ("c", "d")]);
        assert_eq!(chain.grandparents().len(), 2);
        assert!(chain.siblings().is_empty());
        assert_eq!(chain.leaf_parents().into_iter().collect::<Vec<_>>(), ["c"]);
        assert_eq!(chain.closure().len(), 6);
        let fork = g(&[("a", "b"), ("a", "c"), ("b", "d")]);
        assert_eq!(fork.siblings().len(), 2);
        assert_eq!(fork.leaf_parents().len(), 2);
    }

    #[test]
    fn shapes_are_fixed_and_orders_seeded() {
        let nodes = names(&mut Rng::new(1), "p", 11);
        let forest = Graph::forest(&nodes, 2, 2);
        assert_eq!(forest.edges.len(), 11 - 2);
        assert_eq!(forest.atoms().len(), 11);
        let a = forest.clone().shuffled(&mut Rng::new(7));
        let b = forest.clone().shuffled(&mut Rng::new(7));
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.grandparents(), forest.grandparents());
        assert_eq!(Graph::heap(&nodes[..5], 2).siblings().len(), 4);
    }
}
