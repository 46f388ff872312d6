//! Light-tree and light-hierarchy construction under sparse splitting.
//!
//! A multicast session on a graph of WDM nodes occupies one wavelength
//! on every fiber it crosses and is shaped by who may split light:
//!
//! * an **MC** (multicast-capable) node replicates an incoming signal
//!   onto any number of outgoing fibers;
//! * an **MI** (multicast-incapable) node forwards each incoming signal
//!   to at most **one** outgoing fiber. Its local drop is a passive tap,
//!   so drop-and-continue is allowed.
//!
//! A **light-tree** crosses every node at most once, so the structure is
//! a directed tree and MI nodes limit it to out-degree 1. A
//! **light-hierarchy** relaxes that: a node may be crossed several
//! times, each crossing pairing one unused incoming link with at most
//! one (MI) or many (MC) unused outgoing links. The classic rescue: an
//! MI hub `c` between source `s` and leaves `d1`, `d2` cannot host a
//! branching tree, but the hierarchy `s→c→d1` then `d1→c→d2` re-crosses
//! `c` through a second disjoint link pair and delivers both.
//!
//! [`build_structure`] grows the structure greedily — repeated
//! multi-source BFS from the current attach points to the nearest
//! unreached destination — and [`validate_structure`] independently
//! re-checks any link set against the flow and splitting rules (used by
//! the consistency oracle and the exhaustive infeasibility proofs in the
//! tests).

use crate::topology::Topology;
use std::collections::BTreeSet;
#[cfg(test)]
use std::collections::VecDeque;
use wdm_core::bitset::{clear_bit, set_bit, test_bit, words_for};

/// Which structures admission may build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Splitting {
    /// Pure light-trees: every node crossed at most once.
    TreeOnly,
    /// Light-hierarchies: nodes may be re-crossed through distinct link
    /// pairs when a pure tree is infeasible.
    Hierarchy,
}

impl Splitting {
    /// CLI-facing name ("tree", "hierarchy").
    pub fn label(&self) -> &'static str {
        match self {
            Splitting::TreeOnly => "tree",
            Splitting::Hierarchy => "hierarchy",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Splitting> {
        match s {
            "tree" | "tree-only" => Some(Splitting::TreeOnly),
            "hierarchy" | "light-hierarchy" => Some(Splitting::Hierarchy),
            _ => None,
        }
    }
}

/// Grow a light structure from `src_node` to every node in `dests` on
/// one wavelength, returning the directed links used (empty when every
/// destination is local to the source node). `link_free` reports
/// whether a link is usable (wavelength free, not faulted); dead nodes
/// are expressed by their links being un-free.
///
/// Deterministic: attach points are scanned in ascending node order,
/// links in ascending id order, so identical state yields an identical
/// structure — the property the serial-oracle conformance sweeps rely
/// on.
pub fn build_structure(
    topo: &Topology,
    src_node: u32,
    dests: &BTreeSet<u32>,
    splitting: Splitting,
    link_free: impl Fn(u32) -> bool,
) -> Option<Vec<u32>> {
    let mut free = vec![0u64; words_for(topo.num_links())];
    for l in (0..topo.num_links()).filter(|&l| link_free(l)) {
        set_bit(&mut free, l);
    }
    let dests: Vec<u32> = dests.iter().copied().collect();
    Search::new(topo, splitting)
        .grow(topo, src_node, &dests, free)
        .map(<[u32]>::to_vec)
}

/// Necessary condition for any structure on the free-link mask `free`:
/// light must enter every remote destination node by a free fiber and,
/// when there is one, leave the source node by a free fiber. Sound by
/// construction, so skipping a wavelength that fails it changes no
/// verdict and no route.
fn cut_feasible(topo: &Topology, free: &[u64], src_node: u32, dests: &[u32]) -> bool {
    let any_free = |links: &[u32]| links.iter().any(|&l| test_bit(free, l));
    let mut remote = dests.iter().filter(|&&d| d != src_node).peekable();
    remote.peek().is_none()
        || (any_free(topo.out_links(src_node)) && remote.all(|&d| any_free(topo.in_links(d))))
}

/// `parent` entry of a node the current BFS has not entered.
const NO_PARENT: u32 = u32::MAX;

/// The greedy growth and its working memory, sized once per topology and
/// reused, so a search touches words and allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Search {
    splitting: Splitting,
    /// Usable links: the caller's mask minus what the structure took.
    free: Vec<u64>,
    in_structure: Vec<bool>,
    /// Crossings that may still open one outgoing link: the source's own
    /// add port, plus every path terminal. Only consulted for MI nodes —
    /// an MC node in the structure can always branch further.
    open_taps: Vec<u32>,
    unreached: Vec<bool>,
    remaining: usize,
    parent: Vec<u32>,
    seeded: Vec<bool>,
    queue: Vec<u32>,
    links: Vec<u32>,
}

impl Search {
    pub(crate) fn new(topo: &Topology, splitting: Splitting) -> Search {
        let n = topo.nodes() as usize;
        Search {
            splitting,
            free: vec![0; words_for(topo.num_links())],
            in_structure: vec![false; n],
            open_taps: vec![0; n],
            unreached: vec![false; n],
            remaining: 0,
            parent: vec![NO_PARENT; n],
            seeded: vec![false; n],
            queue: Vec::new(),
            links: Vec::new(),
        }
    }

    /// [`build_structure`] over `free`, one word per 64 link ids (bits
    /// past the last link clear), in the order the structure grew.
    pub(crate) fn grow(
        &mut self,
        topo: &Topology,
        src_node: u32,
        dests: &[u32],
        free: impl IntoIterator<Item = u64>,
    ) -> Option<&[u32]> {
        for (slot, word) in self.free.iter_mut().zip(free) {
            *slot = word;
        }
        self.unreached.fill(false);
        self.remaining = 0;
        for &d in dests.iter().filter(|&&d| d != src_node) {
            // A node the topology does not have is never reached.
            let unreached = self.unreached.get_mut(d as usize)?;
            self.remaining += usize::from(!*unreached);
            *unreached = true;
        }
        if !cut_feasible(topo, &self.free, src_node, dests) {
            return None;
        }
        self.links.clear();
        self.in_structure.fill(false);
        self.open_taps.fill(0);
        self.in_structure[src_node as usize] = true;
        self.open_taps[src_node as usize] = 1;

        while self.remaining > 0 {
            // Multi-source BFS from every attach-capable node to the
            // nearest unreached destination.
            self.parent.fill(NO_PARENT);
            self.seeded.fill(false);
            self.queue.clear();
            for v in 0..topo.nodes() {
                let attachable = self.in_structure[v as usize]
                    && (topo.is_mc(v) || self.open_taps[v as usize] > 0);
                if attachable {
                    self.seeded[v as usize] = true;
                    self.queue.push(v);
                }
            }
            let mut found: Option<u32> = None;
            let mut head = 0;
            'bfs: while let Some(&u) = self.queue.get(head) {
                head += 1;
                for &l in topo.out_links(u) {
                    if !test_bit(&self.free, l) {
                        continue;
                    }
                    let (_, v) = topo.link(l);
                    if self.seeded[v as usize] || self.parent[v as usize] != NO_PARENT {
                        continue;
                    }
                    if self.splitting == Splitting::TreeOnly && self.in_structure[v as usize] {
                        // A tree crosses each node once; re-entry is the
                        // hierarchy's privilege.
                        continue;
                    }
                    self.parent[v as usize] = l;
                    if self.unreached[v as usize] {
                        found = Some(v);
                        break 'bfs;
                    }
                    self.queue.push(v);
                }
            }
            let target = found?;

            // Walk the path back to its attach point and commit it.
            let grown = self.links.len();
            let mut attach = target;
            while !self.seeded[attach as usize] {
                let l = self.parent[attach as usize];
                self.links.push(l);
                attach = topo.link(l).0;
            }
            self.links[grown..].reverse();
            if !topo.is_mc(attach) && self.open_taps[attach as usize] > 0 {
                // The MI attach point spends its one outgoing slot.
                self.open_taps[attach as usize] -= 1;
            }
            for &l in &self.links[grown..] {
                clear_bit(&mut self.free, l);
                let (_, w) = topo.link(l);
                self.in_structure[w as usize] = true;
                // Drop-and-continue: every structure node taps locally.
                self.remaining -= usize::from(self.unreached[w as usize]);
                self.unreached[w as usize] = false;
            }
            // Intermediate crossings forward on (out-degree 1, legal at
            // MI); the terminal crossing keeps its outgoing slot open.
            self.open_taps[target as usize] += 1;
        }
        Some(&self.links)
    }
}

/// The closure-probing search [`Search::grow`] replaced, body verbatim:
/// the reference the differential sweeps compare the mask-driven core
/// against, link order included.
#[cfg(test)]
pub(crate) fn reference_build_structure(
    topo: &Topology,
    src_node: u32,
    dests: &BTreeSet<u32>,
    splitting: Splitting,
    link_free: impl Fn(u32) -> bool,
) -> Option<Vec<u32>> {
    let n = topo.nodes() as usize;
    let mut used: BTreeSet<u32> = BTreeSet::new();
    let mut links_in_order: Vec<u32> = Vec::new();
    let mut in_structure = vec![false; n];
    // Crossings that may still open one outgoing link: the source's own
    // add port, plus every path terminal. Only consulted for MI nodes —
    // an MC node in the structure can always branch further.
    let mut open_taps = vec![0u32; n];
    in_structure[src_node as usize] = true;
    open_taps[src_node as usize] = 1;

    let mut unreached: BTreeSet<u32> = dests.iter().copied().filter(|&d| d != src_node).collect();

    while !unreached.is_empty() {
        // Multi-source BFS from every attach-capable node to the nearest
        // unreached destination.
        let mut parent: Vec<Option<u32>> = vec![None; n];
        let mut seeded = vec![false; n];
        let mut queue = VecDeque::new();
        for v in 0..topo.nodes() {
            let attachable =
                in_structure[v as usize] && (topo.is_mc(v) || open_taps[v as usize] > 0);
            if attachable {
                seeded[v as usize] = true;
                queue.push_back(v);
            }
        }
        let mut found: Option<u32> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &l in topo.out_links(u) {
                if used.contains(&l) || !link_free(l) {
                    continue;
                }
                let (_, v) = topo.link(l);
                if seeded[v as usize] || parent[v as usize].is_some() {
                    continue;
                }
                if splitting == Splitting::TreeOnly && in_structure[v as usize] {
                    // A tree crosses each node once; re-entry is the
                    // hierarchy's privilege.
                    continue;
                }
                parent[v as usize] = Some(l);
                if unreached.contains(&v) {
                    found = Some(v);
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
        let target = found?;

        // Walk the path back to its attach point and commit it.
        let mut path = Vec::new();
        let mut v = target;
        while let Some(l) = parent[v as usize] {
            path.push(l);
            v = topo.link(l).0;
            if seeded[v as usize] {
                break;
            }
        }
        let attach = v;
        if !topo.is_mc(attach) && open_taps[attach as usize] > 0 {
            // The MI attach point spends its one outgoing slot.
            open_taps[attach as usize] -= 1;
        }
        path.reverse();
        for (i, &l) in path.iter().enumerate() {
            used.insert(l);
            links_in_order.push(l);
            let (_, w) = topo.link(l);
            in_structure[w as usize] = true;
            // Intermediate crossings forward on (out-degree 1, legal at
            // MI); the terminal crossing keeps its outgoing slot open.
            if i + 1 == path.len() {
                open_taps[w as usize] += 1;
            }
            // Drop-and-continue: every structure node taps locally.
            unreached.remove(&w);
        }
    }
    Some(links_in_order)
}

/// Independently re-check a link set against the flow and splitting
/// rules: every link must be fed from the source, MI nodes may not
/// branch beyond their crossings, trees may not re-cross a node, and
/// every destination must be covered. Returns the first problem found.
pub fn validate_structure(
    topo: &Topology,
    src_node: u32,
    dests: &BTreeSet<u32>,
    links: &BTreeSet<u32>,
    splitting: Splitting,
) -> Result<(), String> {
    let n = topo.nodes() as usize;
    let mut indeg = vec![0u32; n];
    let mut outdeg = vec![0u32; n];
    for &l in links {
        if l >= topo.num_links() {
            return Err(format!("link id {l} out of range"));
        }
        let (u, v) = topo.link(l);
        outdeg[u as usize] += 1;
        indeg[v as usize] += 1;
    }

    // Flow: light enters the network at the source only. Fixpoint the
    // set of lit nodes; every used link must leave a lit node.
    let mut lit = vec![false; n];
    lit[src_node as usize] = true;
    loop {
        let mut grew = false;
        for &l in links {
            let (u, v) = topo.link(l);
            if lit[u as usize] && !lit[v as usize] {
                lit[v as usize] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    for &l in links {
        let (u, v) = topo.link(l);
        if !lit[u as usize] {
            return Err(format!("link {u}→{v} carries no light from the source"));
        }
    }

    // Splitting: an MI node owns one outgoing slot per crossing (each
    // incoming link, plus the source's add port).
    for v in 0..topo.nodes() {
        let crossings = indeg[v as usize] + u32::from(v == src_node);
        if !topo.is_mc(v) && outdeg[v as usize] > crossings {
            return Err(format!(
                "MI node {v} branches: out-degree {} over {} crossing(s)",
                outdeg[v as usize], crossings
            ));
        }
        if splitting == Splitting::TreeOnly {
            if indeg[v as usize] > 1 {
                return Err(format!("tree re-crosses node {v}"));
            }
            if v == src_node && indeg[v as usize] > 0 {
                return Err(format!("tree re-enters its source node {v}"));
            }
        }
    }

    for &d in dests {
        if !lit[d as usize] {
            return Err(format!("destination node {d} is not covered"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::GraphTopology;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dests(nodes: &[u32]) -> BTreeSet<u32> {
        nodes.iter().copied().collect()
    }

    fn all_free(_: u32) -> bool {
        true
    }

    /// Hub = node 0 with leaves 1, 2, 3.
    fn spider() -> Topology {
        Topology::from_links(4, [(0, 1), (1, 0), (0, 2), (2, 0), (0, 3), (3, 0)]).unwrap()
    }

    /// One mask through the reused core, the `build_structure` wrapper
    /// and the reference: equal verdicts, equal links, equal order — and
    /// whatever the cut pre-check rules out, the reference finds
    /// infeasible. Returns whether the pre-check ruled the mask out.
    fn assert_agree(
        search: &mut Search,
        t: &Topology,
        src: u32,
        dests: &BTreeSet<u32>,
        free: &[u64],
    ) -> bool {
        let splitting = search.splitting;
        let context = || format!("{splitting:?} {src}→{dests:?} free {free:x?} on {t:?}");
        let reference = reference_build_structure(t, src, dests, splitting, |l| test_bit(free, l));
        let list: Vec<u32> = dests.iter().copied().collect();
        let core = search
            .grow(t, src, &list, free.iter().copied())
            .map(<[u32]>::to_vec);
        assert_eq!(core, reference, "reused core: {}", context());
        let wrapped = build_structure(t, src, dests, splitting, |l| test_bit(free, l));
        assert_eq!(wrapped, reference, "wrapper: {}", context());
        let ruled_out = !cut_feasible(t, free, src, &list);
        assert!(
            !ruled_out || reference.is_none(),
            "pre-check is unsound: {}",
            context()
        );
        ruled_out
    }

    /// Every mask × source × non-empty destination set × splitting on a
    /// topology of at most 64 links; returns how many the pre-check cut.
    fn exhaustive(t: &Topology) -> u32 {
        let mut ruled_out = 0;
        for splitting in [Splitting::TreeOnly, Splitting::Hierarchy] {
            let mut search = Search::new(t, splitting);
            for mask in 0..1u64 << t.num_links() {
                for src in 0..t.nodes() {
                    for dest_bits in 1..1u32 << t.nodes() {
                        let d: BTreeSet<u32> = (0..t.nodes())
                            .filter(|v| dest_bits & (1 << v) != 0)
                            .collect();
                        ruled_out += u32::from(assert_agree(&mut search, t, src, &d, &[mask]));
                    }
                }
            }
        }
        ruled_out
    }

    #[test]
    fn mask_core_equals_the_reference_on_every_spider_and_ring4_mask() {
        for mc_every in 0..=3 {
            for t in [spider(), GraphTopology::Ring { nodes: 4 }.build()] {
                let cut = exhaustive(&t.with_mc_every(mc_every));
                assert!(cut > 0, "the pre-check never fired: the test is vacuous");
            }
        }
    }

    #[test]
    fn mask_core_equals_the_reference_on_seeded_masks() {
        let mut topologies: Vec<Topology> = (2..=16)
            .map(|nodes| GraphTopology::Ring { nodes }.build())
            .collect();
        topologies.extend([
            GraphTopology::Grid { rows: 3, cols: 4 }.build(),
            GraphTopology::Torus { rows: 3, cols: 3 }.build(),
            GraphTopology::Torus { rows: 4, cols: 4 }.build(),
            // 100 links: the only mask here wider than one word.
            GraphTopology::Torus { rows: 5, cols: 5 }.build(),
            spider(),
        ]);
        let mut rng = StdRng::seed_from_u64(0x11E7_5EED);
        let mut cut = 0;
        for base in topologies {
            for mc_every in 0..=3 {
                let t = base.clone().with_mc_every(mc_every);
                for splitting in [Splitting::TreeOnly, Splitting::Hierarchy] {
                    // One core reused, as `GraphNetwork` holds it: a search
                    // must not see what the previous one left behind.
                    let mut search = Search::new(&t, splitting);
                    for _ in 0..200 {
                        let density = f64::from(rng.gen_range(20..=100u32)) / 100.0;
                        let mut free = vec![0u64; words_for(t.num_links())];
                        for l in 0..t.num_links() {
                            if rng.gen_bool(density) {
                                set_bit(&mut free, l);
                            }
                        }
                        let src = rng.gen_range(0..t.nodes());
                        let d: BTreeSet<u32> = (0..rng.gen_range(1..=5))
                            .map(|_| rng.gen_range(0..t.nodes()))
                            .collect();
                        cut += u32::from(assert_agree(&mut search, &t, src, &d, &free));
                    }
                }
            }
        }
        assert!(cut > 0, "no seeded mask exercised the pre-check");
    }

    #[test]
    fn a_destination_the_topology_lacks_is_infeasible_not_a_panic() {
        let t = GraphTopology::Ring { nodes: 4 }.build();
        let d = dests(&[1, 9]);
        assert_eq!(
            build_structure(&t, 0, &d, Splitting::Hierarchy, all_free),
            None
        );
        assert_eq!(
            reference_build_structure(&t, 0, &d, Splitting::Hierarchy, all_free),
            None
        );
    }

    #[test]
    fn ring_broadcast_builds_and_validates() {
        let t = GraphTopology::Ring { nodes: 6 }.build();
        let d = dests(&[1, 2, 3, 4, 5]);
        for splitting in [Splitting::TreeOnly, Splitting::Hierarchy] {
            let links = build_structure(&t, 0, &d, splitting, all_free).unwrap();
            let set: BTreeSet<u32> = links.iter().copied().collect();
            assert_eq!(set.len(), links.len(), "no link reused");
            validate_structure(&t, 0, &d, &set, splitting).unwrap();
        }
    }

    #[test]
    fn local_destinations_need_no_links() {
        let t = GraphTopology::Ring { nodes: 4 }.build();
        let links = build_structure(&t, 2, &dests(&[2]), Splitting::TreeOnly, all_free).unwrap();
        assert!(links.is_empty());
    }

    #[test]
    fn mi_ring_routes_as_a_path() {
        // An all-MI ring still multicasts: a single path covers any
        // destination set without ever splitting.
        let t = GraphTopology::Ring { nodes: 6 }.build().with_mc_every(0);
        let d = dests(&[1, 2, 3, 4, 5]);
        for splitting in [Splitting::TreeOnly, Splitting::Hierarchy] {
            let links = build_structure(&t, 0, &d, splitting, all_free).unwrap();
            let set: BTreeSet<u32> = links.iter().copied().collect();
            validate_structure(&t, 0, &d, &set, splitting).unwrap();
        }
    }

    #[test]
    fn busy_links_are_avoided() {
        let t = GraphTopology::Ring { nodes: 4 }.build();
        // Kill the clockwise direction entirely; the structure must go
        // counterclockwise.
        let clockwise: BTreeSet<u32> = (0..4).map(|v| t.link_id(v, (v + 1) % 4).unwrap()).collect();
        let links = build_structure(&t, 0, &dests(&[1]), Splitting::TreeOnly, |l| {
            !clockwise.contains(&l)
        })
        .unwrap();
        assert_eq!(
            links,
            vec![
                t.link_id(0, 3).unwrap(),
                t.link_id(3, 2).unwrap(),
                t.link_id(2, 1).unwrap()
            ]
        );
    }

    #[test]
    fn saturated_graph_reports_infeasible() {
        let t = GraphTopology::Ring { nodes: 4 }.build();
        assert!(build_structure(&t, 0, &dests(&[2]), Splitting::Hierarchy, |_| false).is_none());
    }

    #[test]
    fn mi_spider_tree_blocks_hierarchy_succeeds() {
        // The canonical sparse-splitting witness: an MI hub c (node 0)
        // with leaves s=1, d1=2, d2=3. A tree needs out-degree 2 at the
        // hub; the hierarchy re-crosses it: s→c→d1 then d1→c→d2.
        let mut t = spider().with_mc_every(0);
        let d = dests(&[2, 3]);
        assert!(
            build_structure(&t, 1, &d, Splitting::TreeOnly, all_free).is_none(),
            "a pure light-tree cannot branch at the MI hub"
        );
        let links = build_structure(&t, 1, &d, Splitting::Hierarchy, all_free).unwrap();
        let set: BTreeSet<u32> = links.iter().copied().collect();
        validate_structure(&t, 1, &d, &set, Splitting::Hierarchy).unwrap();
        assert_eq!(links.len(), 4, "two two-hop passes through the hub");
        // An MC hub fixes the tree case.
        t.set_mc(0, true);
        let tree = build_structure(&t, 1, &d, Splitting::TreeOnly, all_free).unwrap();
        validate_structure(
            &t,
            1,
            &d,
            &tree.iter().copied().collect(),
            Splitting::TreeOnly,
        )
        .unwrap();
    }

    #[test]
    fn determinism_same_state_same_structure() {
        let t = GraphTopology::Torus { rows: 3, cols: 3 }
            .build()
            .with_mc_every(2);
        let d = dests(&[2, 4, 7, 8]);
        let a = build_structure(&t, 0, &d, Splitting::Hierarchy, all_free).unwrap();
        let b = build_structure(&t, 0, &d, Splitting::Hierarchy, all_free).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validator_rejects_unfed_links_and_mi_branches() {
        let t = GraphTopology::Ring { nodes: 4 }.build().with_mc_every(0);
        // A link nowhere near the source carries no light.
        let stray = [t.link_id(2, 3).unwrap()].into_iter().collect();
        assert!(validate_structure(&t, 0, &dests(&[]), &stray, Splitting::Hierarchy).is_err());
        // MI branching: node 1 fans out both ways off one crossing.
        let branch: BTreeSet<u32> = [
            t.link_id(0, 1).unwrap(),
            t.link_id(1, 2).unwrap(),
            t.link_id(1, 0).unwrap(),
        ]
        .into_iter()
        .collect();
        assert!(validate_structure(&t, 0, &dests(&[2]), &branch, Splitting::Hierarchy).is_err());
    }
}
