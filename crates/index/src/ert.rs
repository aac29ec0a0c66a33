//! Enumerated radix trees (ERT index, paper §2.2 and Fig. 3a).
//!
//! The ERT index maps each k-mer present in the reference to the root of a
//! radix tree enumerating the continuations of that k-mer. Forward SMEM
//! extension walks the tree one base at a time; each visited node is a DRAM
//! fetch in the ASIC-ERT cost model (the index lives in a dedicated DRAM —
//! 62.1 GB for GRCh38 — which is exactly the bandwidth/power liability the
//! CASA paper targets).
//!
//! We store roots sparsely (only k-mers that occur), so the model scales to
//! the paper's k = 15 without a 4^15-entry dense table; the *modelled*
//! footprint reported by [`ErtIndex::footprint_bytes`] still charges the
//! dense index table, as the real ERT does.

use std::collections::HashMap;

use casa_genome::PackedSeq;

/// DRAM fetch granularity in bytes (one DDR4 burst).
pub const DRAM_FETCH_BYTES: usize = 64;

/// How many positions a node may hold before it must branch.
const LEAF_FANOUT: usize = 4;

#[derive(Clone, Debug)]
enum Node {
    /// Internal node: child per next base, plus positions whose suffix ends
    /// exactly here (reference ran out).
    Branch {
        children: [Option<u32>; 4],
        ended: Vec<u32>,
        /// Number of reference positions below this node (including
        /// `ended`), i.e. the hit count of the path so far.
        count: u32,
    },
    /// Leaf holding few positions; further matching compares directly
    /// against the reference (the real ERT stores a reference pointer).
    Leaf { positions: Vec<u32> },
}

/// Result of one forward walk through an ERT tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErtWalk {
    /// Total matched length including the k-mer itself.
    pub matched_len: usize,
    /// Reference start positions of the longest match, ascending.
    pub positions: Vec<u32>,
    /// Read offsets (relative to the walk start) where the hit count
    /// changed — the left extension points (LEPs) of the paper's Fig. 1a.
    pub lep_offsets: Vec<usize>,
    /// Number of DRAM fetches performed (index root + nodes + reference
    /// chunks at leaves).
    pub dram_fetches: u64,
}

/// An enumerated-radix-tree index over a reference.
///
/// ```
/// use casa_genome::PackedSeq;
/// use casa_index::ErtIndex;
///
/// let reference = PackedSeq::from_ascii(b"ACGTACGAACGT")?;
/// let ert = ErtIndex::build(&reference, 3);
/// let read = PackedSeq::from_ascii(b"ACGTAC")?;
/// let walk = ert.walk(&read, 0).expect("ACG occurs");
/// assert_eq!(walk.matched_len, 6);
/// assert_eq!(walk.positions, vec![0]);
/// # Ok::<(), casa_genome::ParseBaseError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ErtIndex {
    k: usize,
    roots: HashMap<u64, u32>,
    nodes: Vec<Node>,
    reference: PackedSeq,
}

impl ErtIndex {
    /// Builds the index for all k-mers of `reference`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=32`.
    pub fn build(reference: &PackedSeq, k: usize) -> ErtIndex {
        assert!((1..=32).contains(&k), "k must be in 1..=32, got {k}");
        let mut groups: HashMap<u64, Vec<u32>> = HashMap::new();
        for (pos, code) in reference.kmers(k) {
            groups.entry(code).or_default().push(pos as u32);
        }
        let mut index = ErtIndex {
            k,
            roots: HashMap::with_capacity(groups.len()),
            nodes: Vec::new(),
            reference: reference.clone(),
        };
        let mut codes: Vec<u64> = groups.keys().copied().collect();
        codes.sort_unstable();
        for code in codes {
            let positions = groups.remove(&code).expect("key exists");
            let root = index.build_node(positions, k);
            index.roots.insert(code, root);
        }
        index
    }

    fn build_node(&mut self, positions: Vec<u32>, depth: usize) -> u32 {
        if positions.len() <= LEAF_FANOUT {
            let id = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { positions });
            return id;
        }
        let count = positions.len() as u32;
        let mut by_base: [Vec<u32>; 4] = Default::default();
        let mut ended = Vec::new();
        for p in positions {
            match self.reference.get(p as usize + depth) {
                Some(b) => by_base[b.code() as usize].push(p),
                None => ended.push(p),
            }
        }
        // Reserve our slot first so children get higher ids.
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Leaf {
            positions: Vec::new(),
        }); // placeholder
        let mut children = [None; 4];
        for (c, group) in by_base.into_iter().enumerate() {
            if !group.is_empty() {
                children[c] = Some(self.build_node(group, depth + 1));
            }
        }
        self.nodes[id as usize] = Node::Branch {
            children,
            ended,
            count,
        };
        id
    }

    /// The k-mer size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Whether the k-mer starting at `read[from..from+k]` exists in the
    /// index (one index-table fetch).
    pub fn contains_kmer(&self, read: &PackedSeq, from: usize) -> bool {
        read.kmer_code(from, self.k)
            .is_some_and(|code| self.roots.contains_key(&code))
    }

    /// Forward walk: the longest exact right-extension of the k-mer at
    /// `read[from..]`, with hit positions, LEPs, and DRAM fetch count.
    ///
    /// Returns `None` when the k-mer is absent (this still costs one index
    /// fetch, which the caller accounts).
    pub fn walk(&self, read: &PackedSeq, from: usize) -> Option<ErtWalk> {
        let code = read.kmer_code(from, self.k)?;
        let root = *self.roots.get(&code)?;
        let mut fetches: u64 = 1; // index-table root fetch
        let mut leps = Vec::new();
        let mut node_id = root;
        let mut depth = self.k; // matched bases so far
        let mut last_count = u32::MAX;
        loop {
            fetches += 1; // node fetch
            match &self.nodes[node_id as usize] {
                Node::Branch {
                    children,
                    ended,
                    count,
                } => {
                    if *count != last_count {
                        if last_count != u32::MAX {
                            leps.push(depth);
                        }
                        last_count = *count;
                    }
                    let next = read
                        .get(from + depth)
                        .and_then(|b| children[b.code() as usize]);
                    match next {
                        Some(child) => {
                            node_id = child;
                            depth += 1;
                        }
                        None => {
                            // No continuation in the tree: the match ends
                            // here; hits are every position below this node.
                            let mut positions = ended.clone();
                            self.collect_positions(node_id, &mut positions);
                            positions.sort_unstable();
                            positions.dedup();
                            return Some(ErtWalk {
                                matched_len: depth,
                                positions,
                                lep_offsets: leps,
                                dram_fetches: fetches,
                            });
                        }
                    }
                }
                Node::Leaf { positions } => {
                    // Compare directly against the reference from here on.
                    let mut best = 0usize;
                    let mut best_positions = Vec::new();
                    for &p in positions {
                        let already = depth; // includes path matched so far
                        let more = self.reference.common_prefix_len(
                            p as usize + already,
                            read,
                            from + already,
                        );
                        // Reference fetches for the comparison, one burst
                        // per 256 bases (64 B of 2-bit codes).
                        fetches += 1 + (more / (DRAM_FETCH_BYTES * 4)) as u64;
                        let total = already + more;
                        if total > best {
                            if best != 0 {
                                leps.push(best);
                            }
                            best = total;
                            best_positions.clear();
                        }
                        if total == best {
                            best_positions.push(p);
                        }
                    }
                    best_positions.sort_unstable();
                    return Some(ErtWalk {
                        matched_len: best,
                        positions: best_positions,
                        lep_offsets: leps,
                        dram_fetches: fetches,
                    });
                }
            }
        }
    }

    fn collect_positions(&self, node_id: u32, out: &mut Vec<u32>) {
        match &self.nodes[node_id as usize] {
            Node::Leaf { positions } => out.extend_from_slice(positions),
            Node::Branch {
                children, ended, ..
            } => {
                out.extend_from_slice(ended);
                for child in children.iter().flatten() {
                    self.collect_positions(*child, out);
                }
            }
        }
    }

    /// Modelled DRAM footprint in bytes: a dense 4^k-entry index table of
    /// 8 B pointers plus 16 B per tree node (pointer-compressed children or
    /// leaf positions). For k = 15 on a 3.1 Gbp genome this lands in the
    /// tens of gigabytes, matching the paper's 62.1 GB figure in spirit.
    pub fn footprint_bytes(&self) -> u128 {
        (1u128 << (2 * self.k as u32)) * 8 + self.nodes.len() as u128 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuffixArray;

    fn seq(s: &str) -> PackedSeq {
        PackedSeq::from_ascii(s.as_bytes()).unwrap()
    }

    #[test]
    fn walk_matches_suffix_array_longest_match() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let reference: PackedSeq = (0..600)
            .map(|_| casa_genome::Base::from_code(rng.gen_range(0..4)))
            .collect();
        let k = 4;
        let ert = ErtIndex::build(&reference, k);
        let sa = SuffixArray::build(&reference);
        for _ in 0..200 {
            // Half reference-derived reads, half random.
            let read: PackedSeq = if rng.gen_bool(0.5) {
                let s = rng.gen_range(0..reference.len() - 40);
                reference.subseq(s, 40)
            } else {
                (0..40)
                    .map(|_| casa_genome::Base::from_code(rng.gen_range(0..4)))
                    .collect()
            };
            let from = rng.gen_range(0..read.len() - k);
            let (sa_len, sa_iv) = sa.longest_match(&read, from);
            match ert.walk(&read, from) {
                None => assert!(sa_len < k, "ERT missed a k-mer that exists"),
                Some(walk) => {
                    assert_eq!(walk.matched_len, sa_len);
                    let mut sa_hits: Vec<u32> = sa.positions(sa_iv).map(|p| p as u32).collect();
                    sa_hits.sort_unstable();
                    assert_eq!(walk.positions, sa_hits);
                    assert!(walk.dram_fetches >= 2);
                }
            }
        }
    }

    #[test]
    fn absent_kmer_returns_none() {
        let ert = ErtIndex::build(&seq("AAAACCCC"), 3);
        assert!(ert.walk(&seq("GGGG"), 0).is_none());
        assert!(!ert.contains_kmer(&seq("GGGG"), 0));
        assert!(ert.contains_kmer(&seq("AAAA"), 0));
    }

    #[test]
    fn repetitive_reference_has_multi_hits() {
        let reference = seq(&"GATTACA".repeat(10));
        let ert = ErtIndex::build(&reference, 3);
        let walk = ert.walk(&seq("GATTACAGATTACA"), 0).unwrap();
        assert_eq!(walk.matched_len, 14);
        // matches at starts 0, 7, ..., 56 (need 14 bases => up to 56)
        assert_eq!(walk.positions.len(), 9);
    }

    #[test]
    fn lep_offsets_are_recorded_where_counts_drop() {
        // Reference: "ACGT" x4 then "ACGG". Walking "ACGTACGG...":
        // count drops as the extension disambiguates.
        let reference = seq("ACGTACGTACGTACGTACGG");
        let ert = ErtIndex::build(&reference, 2);
        let walk = ert.walk(&seq("ACGTACGG"), 0).unwrap();
        assert_eq!(walk.matched_len, 8);
        assert!(!walk.lep_offsets.is_empty());
        assert!(walk.lep_offsets.iter().all(|&o| (2..8).contains(&o)));
    }

    #[test]
    fn footprint_has_exponential_index_term() {
        let r = seq(&"ACGT".repeat(50));
        let f4 = ErtIndex::build(&r, 4).footprint_bytes();
        let f8 = ErtIndex::build(&r, 8).footprint_bytes();
        // The dense 4^k index-table term dominates: +4 in k is a 256x
        // larger table, though tree nodes soften the total ratio.
        assert!(f8 > f4 * 20, "f4={f4} f8={f8}");
        assert!(f8 >= (1u128 << 16) * 8);
    }

    #[test]
    fn walk_to_reference_end() {
        let reference = seq("ACGTACGT");
        let ert = ErtIndex::build(&reference, 2);
        // Read extends past the reference end.
        let walk = ert.walk(&seq("ACGTACGTAA"), 0).unwrap();
        assert_eq!(walk.matched_len, 8);
        assert_eq!(walk.positions, vec![0]);
    }
}
