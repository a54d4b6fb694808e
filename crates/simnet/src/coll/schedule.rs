//! Collective schedule trees.
//!
//! Every collective algorithm in [`crate::coll`] is a communication
//! schedule over a rooted spanning tree of the ranks. This module builds
//! the three tree shapes:
//!
//! * **linear** — a star: every member is a direct child of the root
//!   (the paper's root-mediated baseline),
//! * **binomial** — recursive halving over contiguous virtual-rank
//!   ranges: the root hands off the far half of its range, then the far
//!   half of what remains, and so on (`⌈log₂ P⌉` depth),
//! * **segment-hierarchical** — two levels matched to the paper's §3.1
//!   network: the lowest rank of each remote segment is a *leader* and
//!   the only rank whose transfer crosses the serial inter-segment link;
//!   leaders fan out to their segment mates over the switched network.
//!
//! Children are stored twice: in *broadcast order* (deepest/remote
//! subtree first, so long dependency chains start earliest) and in
//! *gather order* (ascending rank, which both fixes the receive order
//! and makes tree reduces regroup — not reorder — the linear fold; see
//! `docs/COMMS.md`).
//!
//! Every builder spans an explicit **member set** (the survivors of a
//! [`crate::coll::Membership`] view; every rank for an all-alive view).
//! Survivor trees are what lets the epoch protocol route *around*
//! known-dead interior relays instead of cascading `PeerLost` down their
//! subtrees. [`build`] is the one builder; it has two callers. The
//! executors reach it through the run's [`ScheduleMemo`], which builds a
//! tree once per `(algorithm, root, alive set)` per run and hands every
//! rank the same `Arc<Tree>`; the cost model calls it directly, because
//! a prediction has no run to share with.

use super::{CollAlgorithm, Membership};
use crate::platform::Platform;
use std::sync::{Arc, Mutex};

/// A rooted spanning tree over a subset of ranks `0..p` (all of them for
/// an all-alive view), with children kept in both broadcast (send)
/// order and gather (receive/fold) order. Vectors are always indexed by
/// *real* rank; non-member ranks simply have no parent, no children and
/// a subtree of themselves only.
#[derive(Debug, Clone)]
pub struct Tree {
    /// The root rank, stored explicitly: in a survivor tree, non-member
    /// ranks also have `parent == None`, so the root is not derivable
    /// from the parent vector alone.
    root: usize,
    parent: Vec<Option<usize>>,
    /// Children in broadcast send order: deepest/remote subtree first.
    bcast: Vec<Vec<usize>>,
    /// Children in ascending-rank order, for gathers and reduces.
    gather: Vec<Vec<usize>>,
    /// Number of nodes in each rank's subtree (itself included).
    subtree: Vec<usize>,
}

impl Tree {
    fn from_parts(
        p: usize,
        root: usize,
        parent: Vec<Option<usize>>,
        bcast: Vec<Vec<usize>>,
    ) -> Self {
        let gather: Vec<Vec<usize>> = bcast
            .iter()
            .map(|cs| {
                let mut cs = cs.clone();
                cs.sort_unstable();
                cs
            })
            .collect();
        let mut subtree = vec![1usize; p];
        // Accumulate sizes bottom-up: process ranks in reverse BFS order.
        for &r in Self::bfs_order(root, &bcast).iter().rev() {
            if let Some(q) = parent[r] {
                subtree[q] += subtree[r];
            }
        }
        Tree {
            root,
            parent,
            bcast,
            gather,
            subtree,
        }
    }

    fn bfs_order(root: usize, bcast: &[Vec<usize>]) -> Vec<usize> {
        let mut order = Vec::with_capacity(bcast.len());
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(r) = queue.pop_front() {
            order.push(r);
            queue.extend(bcast[r].iter().copied());
        }
        order
    }

    /// The root rank of this schedule.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The parent of `rank` (`None` for the root and for non-members).
    pub fn parent(&self, rank: usize) -> Option<usize> {
        self.parent[rank]
    }

    /// Children of `rank` in broadcast send order.
    pub fn children_bcast(&self, rank: usize) -> &[usize] {
        &self.bcast[rank]
    }

    /// Children of `rank` in ascending-rank (gather/fold) order.
    pub(crate) fn children_gather(&self, rank: usize) -> &[usize] {
        &self.gather[rank]
    }

    /// Number of ranks in `rank`'s subtree, itself included.
    pub(crate) fn subtree_size(&self, rank: usize) -> usize {
        self.subtree[rank]
    }

    /// `true` when `rank` forwards to nobody — the ranks whose chunk
    /// receives can interleave with compute without delaying anyone
    /// (see `coll::broadcast_overlap`).
    pub(crate) fn is_leaf(&self, rank: usize) -> bool {
        self.bcast[rank].is_empty()
    }

    /// The ranks of `node`'s subtree in the exact order a gather relays
    /// them upward: `node` first, then each gather-order child's subtree
    /// recursively. Every rank knows this order from the shared tree, so
    /// the root can reassemble rank-indexed output without any metadata
    /// on the wire.
    pub(crate) fn subtree_order(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.subtree[node]);
        let mut stack = vec![node];
        while let Some(r) = stack.pop() {
            out.push(r);
            // Push gather-order children reversed so they pop in order.
            stack.extend(self.gather[r].iter().rev().copied());
        }
        out
    }

    /// All member ranks, parents before children, following broadcast
    /// order.
    pub(crate) fn preorder_bcast(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(r) = stack.pop() {
            out.push(r);
            stack.extend(self.bcast[r].iter().rev().copied());
        }
        out
    }

    /// All member ranks, children before parents, following gather
    /// order.
    pub(crate) fn postorder_gather(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(r) = stack.pop() {
            out.push(r);
            stack.extend(self.gather[r].iter().copied());
        }
        out.reverse();
        out
    }
}

/// The concrete schedule [`Tree`] of `algorithm` over `members`
/// (ascending, containing `root`). [`CollAlgorithm::PipelinedChunked`]
/// shares the segment-hierarchical tree.
///
/// # Panics
/// On [`CollAlgorithm::Auto`], which names no tree: selection
/// (`coll::resolve_over`) resolves it to a concrete algorithm first.
pub(super) fn build(
    algorithm: CollAlgorithm,
    root: usize,
    platform: &Platform,
    members: &[usize],
) -> Tree {
    let p = platform.num_procs();
    match algorithm {
        CollAlgorithm::Linear => linear_over(root, members, p),
        CollAlgorithm::BinomialTree => binomial_over(root, members, p),
        CollAlgorithm::SegmentHierarchical | CollAlgorithm::PipelinedChunked => {
            segment_hierarchical_over(root, platform, members)
        }
        CollAlgorithm::Auto => unreachable!("selection resolved before building"),
    }
}

/// One run's schedules, keyed by `(algorithm, root, alive set)`. A
/// schedule is a pure function of its key and the run's platform, so a
/// tree built by whichever rank asks first is the tree every other rank
/// would have built: P ranks planning the same collective share one.
#[derive(Debug, Default)]
pub(crate) struct ScheduleMemo {
    /// Few keys per run (one per algorithm in use per membership epoch),
    /// so a scan beats hashing the alive set on every call.
    built: Mutex<Vec<Memoized>>,
}

#[derive(Debug)]
struct Memoized {
    algorithm: CollAlgorithm,
    root: usize,
    alive: Vec<bool>,
    tree: Arc<Tree>,
}

impl ScheduleMemo {
    /// The schedule of `algorithm` rooted at `root` over `view`'s
    /// survivors, built on the first request for that key. Building
    /// happens under the lock, so concurrent first requests still build
    /// exactly one tree.
    pub(crate) fn get(
        &self,
        algorithm: CollAlgorithm,
        root: usize,
        platform: &Platform,
        view: &Membership,
    ) -> Arc<Tree> {
        let mut built = crate::lock_unpoisoned(&self.built);
        if let Some(hit) = built
            .iter()
            .find(|m| m.algorithm == algorithm && m.root == root && m.alive == view.alive())
        {
            return Arc::clone(&hit.tree);
        }
        let tree = Arc::new(build(algorithm, root, platform, &view.survivors()));
        built.push(Memoized {
            algorithm,
            root,
            alive: view.alive().to_vec(),
            tree: Arc::clone(&tree),
        });
        tree
    }

    /// Number of schedules built so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        crate::lock_unpoisoned(&self.built).len()
    }
}

/// The star schedule over `members` (ascending, containing `root`):
/// every member is a direct child of `root`, in ascending rank order.
fn linear_over(root: usize, members: &[usize], p: usize) -> Tree {
    debug_assert!(members.contains(&root), "linear_over: root is a member");
    let mut parent = vec![None; p];
    let mut bcast = vec![Vec::new(); p];
    for &r in members {
        if r != root {
            parent[r] = Some(root);
            bcast[root].push(r);
        }
    }
    Tree::from_parts(p, root, parent, bcast)
}

/// The binomial schedule over `members` (ascending, containing `root`)
/// by recursive halving over *virtual indices* into the member list,
/// rotated so index 0 is the root: the owner of a contiguous index range
/// `[lo, hi)` hands the range starting at `lo + h` — `h` the largest
/// power of two below the range size — to a child, keeps `[lo, lo + h)`,
/// and repeats. With the full member set the virtual index of rank `r`
/// is `(r − root) mod p`; with survivors removed the halving runs over
/// the compacted survivor list, so the tree never routes through a dead
/// rank. Subtrees are contiguous index blocks, which is what lets a
/// binomial reduce *regroup* (not reorder) the linear left-fold when the
/// root is rank 0.
fn binomial_over(root: usize, members: &[usize], p: usize) -> Tree {
    let m = members.len();
    let k = members
        .iter()
        .position(|&r| r == root)
        .expect("binomial_over: root is a member");
    let to_rank = |v: usize| members[(v + k) % m];
    let mut parent = vec![None; p];
    let mut bcast = vec![Vec::new(); p];
    let mut stack = vec![(0usize, m)];
    while let Some((lo, mut hi)) = stack.pop() {
        while hi - lo > 1 {
            let span = hi - lo;
            // Largest power of two strictly below `span`.
            let h = 1usize << (usize::BITS - 1 - (span - 1).leading_zeros());
            let child = lo + h;
            parent[to_rank(child)] = Some(to_rank(lo));
            bcast[to_rank(lo)].push(to_rank(child));
            stack.push((child, hi));
            hi = child;
        }
    }
    Tree::from_parts(p, root, parent, bcast)
}

/// The two-level schedule matched to the platform's segment map, over
/// `members` (ascending, containing `root`): the root reaches one
/// *leader* per remote segment — one serial-link crossing per segment —
/// plus its own segment mates; each leader fans out to the rest of its
/// segment over the switched intra-segment network. The leader of a
/// segment is its **lowest surviving member**, so a segment whose
/// original leader died simply promotes the next rank instead of
/// stranding the whole segment. Broadcast order puts leaders first so the
/// slow serial-link transfers start as early as possible. On a
/// single-segment platform this degenerates to [`linear_over`].
fn segment_hierarchical_over(root: usize, platform: &Platform, members: &[usize]) -> Tree {
    debug_assert!(
        members.contains(&root),
        "segment_hierarchical_over: root is a member"
    );
    let p = platform.num_procs();
    let root_seg = platform.segment_of(root);
    let mut parent = vec![None; p];
    let mut bcast = vec![Vec::new(); p];
    // Segment id → ascending member ranks.
    let mut segments: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for &r in members {
        segments.entry(platform.segment_of(r)).or_default().push(r);
    }
    let mut own_segment_mates = Vec::new();
    for (seg, seg_members) in &segments {
        if *seg == root_seg {
            own_segment_mates.extend(seg_members.iter().copied().filter(|&r| r != root));
        } else {
            let leader = seg_members[0];
            parent[leader] = Some(root);
            bcast[root].push(leader);
            for &r in &seg_members[1..] {
                parent[r] = Some(leader);
                bcast[leader].push(r);
            }
        }
    }
    // Leaders (pushed above) come first; then the root's own segment.
    for r in own_segment_mates {
        parent[r] = Some(root);
        bcast[root].push(r);
    }
    Tree::from_parts(p, root, parent, bcast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::ProcessorSpec;

    fn spec(seg: usize) -> ProcessorSpec {
        ProcessorSpec {
            name: format!("p{seg}"),
            arch: "x",
            cycle_time: 0.01,
            memory_mb: 64,
            cache_kb: 0,
            segment: seg,
            device: None,
        }
    }

    fn platform_with_segments(segs: &[usize]) -> Platform {
        let n = segs.len();
        let links = vec![vec![1.0; n]; n]
            .into_iter()
            .enumerate()
            .map(|(i, mut row)| {
                row[i] = 0.0;
                row
            })
            .collect();
        Platform::new("segs", segs.iter().map(|&s| spec(s)).collect(), links)
    }

    /// The full member list — what an all-alive view hands the builders.
    fn all(p: usize) -> Vec<usize> {
        (0..p).collect()
    }

    fn assert_spanning(tree: &Tree, root: usize, p: usize) {
        assert_eq!(tree.parent(root), None);
        let order = tree.subtree_order(root);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..p).collect::<Vec<_>>(),
            "tree must span all ranks"
        );
        assert_eq!(tree.subtree_size(root), p);
        for r in 0..p {
            if r != root {
                let q = tree.parent(r).expect("non-root has a parent");
                assert!(tree.children_bcast(q).contains(&r));
                assert!(tree.children_gather(q).contains(&r));
            }
        }
    }

    #[test]
    fn linear_is_a_star_in_rank_order() {
        let t = linear_over(0, &all(5), 5);
        assert_eq!(t.children_bcast(0), &[1, 2, 3, 4]);
        assert_eq!(t.children_gather(0), &[1, 2, 3, 4]);
        for r in 1..5 {
            assert!(t.children_bcast(r).is_empty());
            assert_eq!(t.subtree_size(r), 1);
        }
        assert_spanning(&t, 0, 5);
    }

    #[test]
    fn binomial_recursive_halving_shape() {
        // p = 8, root 0: children of 0 are 4, 2, 1 (broadcast order).
        let t = binomial_over(0, &all(8), 8);
        assert_eq!(t.children_bcast(0), &[4, 2, 1]);
        assert_eq!(t.children_gather(0), &[1, 2, 4]);
        assert_eq!(t.children_bcast(4), &[6, 5]);
        assert_eq!(t.children_bcast(2), &[3]);
        assert_eq!(t.subtree_size(4), 4);
        assert_eq!(t.subtree_size(2), 2);
        assert_spanning(&t, 0, 8);
    }

    #[test]
    fn binomial_subtrees_are_contiguous_rank_blocks() {
        for p in [2usize, 3, 5, 8, 13, 16, 17] {
            let t = binomial_over(0, &all(p), p);
            for r in 0..p {
                let mut sub = t.subtree_order(r);
                sub.sort_unstable();
                let expect: Vec<usize> = (sub[0]..sub[0] + sub.len()).collect();
                assert_eq!(sub, expect, "p={p} rank={r}: contiguous block");
            }
        }
    }

    #[test]
    fn binomial_depth_is_logarithmic() {
        for p in [2usize, 5, 16, 17, 64] {
            let t = binomial_over(0, &all(p), p);
            let mut max_depth = 0;
            for mut r in 0..p {
                let mut d = 0;
                while let Some(q) = t.parent(r) {
                    r = q;
                    d += 1;
                }
                max_depth = max_depth.max(d);
            }
            let bound = usize::BITS - (p - 1).leading_zeros(); // ⌈log₂ p⌉
            assert!(
                max_depth <= bound as usize,
                "p={p}: depth {max_depth} > ⌈log₂ p⌉ = {bound}"
            );
        }
    }

    #[test]
    fn binomial_nonzero_root_spans_via_vranks() {
        let t = binomial_over(3, &all(8), 8);
        assert_spanning(&t, 3, 8);
        // Child offsets in vrank space map back mod p: 3+4=7, 3+2=5, 3+1=4.
        assert_eq!(t.children_bcast(3), &[7, 5, 4]);
    }

    #[test]
    fn hierarchical_one_leader_per_remote_segment() {
        // Segments: 0 0 1 1 1 2 2 — root 0 in segment 0.
        let p = platform_with_segments(&[0, 0, 1, 1, 1, 2, 2]);
        let t = segment_hierarchical_over(0, &p, &all(p.num_procs()));
        // Leaders 2 and 5 first (broadcast order), then segment mate 1.
        assert_eq!(t.children_bcast(0), &[2, 5, 1]);
        assert_eq!(t.children_gather(0), &[1, 2, 5]);
        assert_eq!(t.children_bcast(2), &[3, 4]);
        assert_eq!(t.children_bcast(5), &[6]);
        assert_eq!(t.subtree_size(2), 3);
        assert_spanning(&t, 0, 7);
    }

    #[test]
    fn hierarchical_single_segment_degenerates_to_linear() {
        let p = platform_with_segments(&[0, 0, 0, 0]);
        let t = segment_hierarchical_over(0, &p, &all(p.num_procs()));
        let l = linear_over(0, &all(4), 4);
        for r in 0..4 {
            assert_eq!(t.children_bcast(r), l.children_bcast(r));
            assert_eq!(t.parent(r), l.parent(r));
        }
    }

    #[test]
    fn subtree_order_matches_relay_protocol() {
        let t = binomial_over(0, &all(8), 8);
        // Rank 4's subtree: itself, then gather-order children's subtrees.
        assert_eq!(t.subtree_order(4), vec![4, 5, 6, 7]);
        assert_eq!(t.subtree_order(2), vec![2, 3]);
    }

    fn assert_spanning_over(tree: &Tree, root: usize, members: &[usize]) {
        assert_eq!(tree.root(), root);
        assert_eq!(tree.parent(root), None);
        let mut order = tree.subtree_order(root);
        order.sort_unstable();
        assert_eq!(order, members, "tree must span exactly the members");
        assert_eq!(tree.subtree_size(root), members.len());
        for &r in members {
            if r != root {
                let q = tree.parent(r).expect("non-root member has a parent");
                assert!(members.contains(&q), "parents are members");
                assert!(tree.children_bcast(q).contains(&r));
            }
        }
    }

    #[test]
    fn linear_over_spans_only_members() {
        let t = linear_over(0, &[0, 1, 3, 4], 5);
        assert_eq!(t.children_bcast(0), &[1, 3, 4]);
        assert_eq!(t.parent(2), None);
        assert!(t.children_bcast(2).is_empty());
        assert_spanning_over(&t, 0, &[0, 1, 3, 4]);
    }

    #[test]
    fn binomial_over_routes_around_dead_relay() {
        // In binomial_over(0, &all(8), 8), rank 4 relays to subtree {4,5,6,7}. Remove
        // it: the survivor tree must span the other 7 without touching 4.
        let members = vec![0, 1, 2, 3, 5, 6, 7];
        let t = binomial_over(0, &members, 8);
        assert_spanning_over(&t, 0, &members);
        for &r in &members {
            assert!(!t.children_bcast(r).contains(&4), "dead rank never a child");
            assert_ne!(t.parent(r), Some(4), "dead rank never a parent");
        }
        // Halving over the 7 survivors: children of virtual 0 at virtual
        // offsets 4, 2, 1 → ranks 5, 2, 1.
        assert_eq!(t.children_bcast(0), &[5, 2, 1]);
    }

    #[test]
    fn binomial_over_nonzero_root_rotates_member_list() {
        let members = vec![1, 2, 3, 5, 7];
        let t = binomial_over(3, &members, 8);
        assert_spanning_over(&t, 3, &members);
    }

    #[test]
    fn hierarchical_over_promotes_next_surviving_leader() {
        // Segments: 0 0 1 1 1 2 2. Killing rank 2 (segment 1's leader)
        // must promote rank 3, not strand ranks 3 and 4.
        let plat = platform_with_segments(&[0, 0, 1, 1, 1, 2, 2]);
        let members = vec![0, 1, 3, 4, 5, 6];
        let t = segment_hierarchical_over(0, &plat, &members);
        assert_eq!(t.children_bcast(0), &[3, 5, 1]);
        assert_eq!(t.children_bcast(3), &[4]);
        assert_spanning_over(&t, 0, &members);
    }

    #[test]
    fn orders_cover_all_ranks() {
        for p in [1usize, 2, 7, 16] {
            let t = binomial_over(0, &all(p), p);
            let pre = t.preorder_bcast();
            let post = t.postorder_gather();
            assert_eq!(pre.len(), p);
            assert_eq!(post.len(), p);
            for r in 0..p {
                assert!(pre.contains(&r));
                assert!(post.contains(&r));
                if let Some(q) = t.parent(r) {
                    let pi = pre.iter().position(|&x| x == r).expect("in preorder");
                    let qi = pre.iter().position(|&x| x == q).expect("in preorder");
                    assert!(qi < pi, "preorder: parent before child");
                    let pi = post.iter().position(|&x| x == r).expect("in postorder");
                    let qi = post.iter().position(|&x| x == q).expect("in postorder");
                    assert!(qi > pi, "postorder: child before parent");
                }
            }
        }
    }
}
