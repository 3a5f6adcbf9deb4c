//! The benchmark's own correctness oracle. Everything here is computed
//! apart from the library: an adjacency copy of the edge set, breadth-first
//! distances over that copy, and the closed-form size of a full table. The
//! pipeline calls these checks outside every timed region.

use std::collections::VecDeque;

/// Distance marker for a node a search did not reach.
pub const UNREACHED: u32 = u32::MAX;

/// The benchmark's own copy of an undirected simple graph: sorted
/// neighbour lists, updated event by event alongside the library's graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topo {
    adj: Vec<Vec<u32>>,
}

impl Topo {
    /// Copies an edge list over `n` nodes.
    #[must_use]
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Topo {
        let mut adj = vec![Vec::new(); n];
        for (u, v) in edges {
            adj[u].push(v as u32);
            adj[v].push(u as u32);
        }
        for row in &mut adj {
            row.sort_unstable();
            row.dedup();
        }
        Topo { adj }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Whether `{u, v}` is an edge.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.adj.len() && self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// Adds the edge `{u, v}`; false if it was already there.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        match self.adj[u].binary_search(&(v as u32)) {
            Ok(_) => false,
            Err(i) => {
                self.adj[u].insert(i, v as u32);
                let j = self.adj[v].binary_search(&(u as u32)).unwrap_err();
                self.adj[v].insert(j, u as u32);
                true
            }
        }
    }

    /// Removes the edge `{u, v}`; false if it was not there.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        match self.adj[u].binary_search(&(v as u32)) {
            Err(_) => false,
            Ok(i) => {
                self.adj[u].remove(i);
                let j = self.adj[v]
                    .binary_search(&(u as u32))
                    .expect("edge stored both ways");
                self.adj[v].remove(j);
                true
            }
        }
    }

    /// Hop distances from `src` to every node ([`UNREACHED`] if none).
    #[must_use]
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![UNREACHED; self.adj.len()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                let v = v as usize;
                if dist[v] == UNREACHED {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Total bits of a full routing table over this graph:
    /// `Σ_u (n−1)·⌈log₂ deg u⌉`.
    #[must_use]
    pub fn full_table_bits(&self) -> u64 {
        let n = self.adj.len() as u64;
        self.adj
            .iter()
            .map(|row| (n - 1) * ceil_log2(row.len() as u64))
            .sum()
    }
}

/// `⌈log₂ d⌉`, with 0 for `d ≤ 1` (a node with one port needs no bits).
#[must_use]
pub fn ceil_log2(d: u64) -> u64 {
    let mut bits = 0;
    while (1u64 << bits) < d {
        bits += 1;
    }
    bits
}

/// Checks a routed path from `s` to `t`: it starts at `s`, ends at `t`,
/// steps only along edges of `topo`, and has at most `max_hops` hops and at
/// least `dist` (the true distance). Returns its hop count.
///
/// # Errors
///
/// A one-line description of the first violation.
pub fn check_path(
    topo: &Topo,
    s: usize,
    t: usize,
    path: &[usize],
    dist: u32,
    max_hops: u32,
) -> Result<u32, String> {
    let (Some(&first), Some(&last)) = (path.first(), path.last()) else {
        return Err(format!("route {s}->{t}: empty path"));
    };
    if first != s || last != t {
        return Err(format!("route {s}->{t}: path runs {first}->{last}"));
    }
    if let Some(w) = path.windows(2).find(|w| !topo.has_edge(w[0], w[1])) {
        return Err(format!(
            "route {s}->{t}: step {}->{} is not an edge",
            w[0], w[1]
        ));
    }
    let hops = (path.len() - 1) as u32;
    if hops < dist || hops > max_hops {
        return Err(format!(
            "route {s}->{t}: {hops} hops, true distance {dist}, allowed at most {max_hops}"
        ));
    }
    Ok(hops)
}

/// Checks a full table's reported size against [`Topo::full_table_bits`].
///
/// # Errors
///
/// Names both counts when they differ.
pub fn check_full_table_bits(topo: &Topo, reported: u64) -> Result<(), String> {
    let expected = topo.full_table_bits();
    if reported == expected {
        Ok(())
    } else {
        Err(format!(
            "full-table reports {reported} bits, Σ(n−1)⌈log₂ deg⌉ = {expected}"
        ))
    }
}

/// Checks the Theorem 1 space bound: every node stores at most `6n` bits.
///
/// # Errors
///
/// Names the first node over the bound.
pub fn check_six_n(n: usize, node_bits: impl IntoIterator<Item = usize>) -> Result<(), String> {
    match node_bits.into_iter().enumerate().find(|&(_, b)| b > 6 * n) {
        Some((u, b)) => Err(format!(
            "theorem1 node {u} stores {b} bits > 6n = {}",
            6 * n
        )),
        None => Ok(()),
    }
}

/// SplitMix64: the benchmark's seeded source of inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, separated from other streams by `stream`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_port_widths() {
        let got: Vec<u64> = [0, 1, 2, 3, 4, 5, 512, 513]
            .iter()
            .map(|&d| ceil_log2(d))
            .collect();
        assert_eq!(got, [0, 0, 1, 2, 2, 3, 9, 10]);
    }

    #[test]
    fn edits_keep_both_directions() {
        let mut t = Topo::from_edges(4, [(0, 1), (1, 2)]);
        assert!(t.add_edge(3, 0));
        assert!(!t.add_edge(0, 3));
        assert!(t.remove_edge(1, 0));
        assert_eq!(t, Topo::from_edges(4, [(1, 2), (0, 3)]));
        assert_eq!(t.bfs(3), [1, UNREACHED, UNREACHED, 0]);
    }
}
