//! Benes rearrangeable permutation routing (the looping algorithm) and
//! exact bipartite round decomposition for multistage interconnects.
//!
//! A Benes network on `N = 2^k` ports has `2k − 1` stages of `N/2`
//! two-by-two switches. Stage `s` (0-based) exchanges the wire pairs that
//! differ in bit `B[s] = min(s, 2k − 2 − s)` — the bit sequence
//! `0, 1, …, k−2, k−1, k−2, …, 1, 0`. After stage 0 the remaining middle
//! stages never touch bit 0 again until the final stage, so they split
//! into two independent `N/2`-port Benes subnetworks (the even and odd
//! wire classes): the classic recursive structure that makes the network
//! **rearrangeable** — every (partial) permutation of the ports admits a
//! routing in which no two flows share a stage wire (Beneš 1964; see also
//! Kannan's KR-Benes construction, cs/0309006).
//!
//! [`BenesNetwork::route`] computes such a routing with the **looping
//! algorithm**: 2-color the flows so that flows sharing an entry or exit
//! switch take different subnetworks (the conflict graph has maximum
//! degree 2 and only even cycles, so greedy chain propagation 2-colors
//! it), set the first/last stage switches from the colors, and recurse.
//! `O(N log N)` per routing.
//!
//! [`BenesNetwork::route_rounds`] extends routing to arbitrary flow
//! multisets (several flows per port, as arise from replicated or
//! processor-sharing mappings): the flows are first decomposed into
//! `Δ` partial permutations by **exact bipartite edge coloring**
//! (alternating-path recoloring, König's theorem), then each round is
//! routed contention-free. The round count *is* the contention factor of
//! a time-multiplexed fabric. We deliberately do not peel rounds with
//! repeated maximum-cardinality matchings: removing a maximum matching
//! from a bipartite multigraph can strand low-degree edges and exceed `Δ`
//! rounds (e.g. `{a–c, a–d, b–c, e–d}` has `Δ = 2` but a bad maximum
//! matching `{a–c, e–d}` forces 3 rounds), while edge coloring is
//! optimal by König.

/// A Benes network on `ports = 2^k ≥ 2` ports.
#[derive(Debug, Clone)]
pub struct BenesNetwork {
    ports: usize,
    levels: u32,
    /// `bits[s]` = the wire bit exchanged by stage `s`.
    bits: Vec<usize>,
}

/// A computed routing: per-stage switch settings plus the wire path of
/// every routed source.
#[derive(Debug, Clone)]
pub struct BenesRouting {
    ports: usize,
    /// `settings[s][i] == true` — switch `i` of stage `s` crosses.
    pub settings: Vec<Vec<bool>>,
    /// `paths[src]` = the wire occupied after each stage (length
    /// `stages`), for routed sources; `None` for idle ports.
    pub paths: Vec<Option<Vec<usize>>>,
}

impl BenesNetwork {
    /// Build the network for a given power-of-two port count (≥ 2).
    ///
    /// Panics if `ports` is not a power of two or is below 2.
    pub fn new(ports: usize) -> Self {
        assert!(ports >= 2 && ports.is_power_of_two(), "Benes needs 2^k >= 2 ports");
        let levels = ports.trailing_zeros();
        let stages = 2 * levels as usize - 1;
        let bits = (0..stages).map(|s| s.min(stages - 1 - s)).collect();
        BenesNetwork { ports, levels, bits }
    }

    /// Smallest network that can host `p` endpoints (`2^⌈log₂ max(p,2)⌉`
    /// ports).
    pub fn with_capacity_for(p: usize) -> Self {
        BenesNetwork::new(p.max(2).next_power_of_two())
    }

    /// Number of ports `N`.
    #[inline]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Number of switch stages `2·log₂N − 1`.
    #[inline]
    pub fn stages(&self) -> usize {
        self.bits.len()
    }

    /// The switch index handling wire `w` at stage `s` (the wire index
    /// with the exchanged bit removed).
    #[inline]
    fn switch_of(&self, s: usize, w: usize) -> usize {
        let b = self.bits[s];
        ((w >> (b + 1)) << b) | (w & ((1 << b) - 1))
    }

    /// Route the partial permutation `dest` (`dest[src] = Some(dst)`)
    /// through the network.
    ///
    /// Panics if `dest.len() != ports`, a destination is out of range, or
    /// two sources share a destination — callers route *partial
    /// permutations* only; use [`BenesNetwork::route_rounds`] for general
    /// flow multisets.
    pub fn route(&self, dest: &[Option<usize>]) -> BenesRouting {
        assert_eq!(dest.len(), self.ports, "one entry per port");
        let mut seen = vec![false; self.ports];
        for d in dest.iter().flatten() {
            assert!(*d < self.ports, "destination out of range");
            assert!(!seen[*d], "duplicate destination: not a partial permutation");
            seen[*d] = true;
        }
        let stages = self.stages();
        let mut settings: Vec<Vec<bool>> = (0..stages).map(|_| vec![false; self.ports / 2]).collect();
        self.route_rec(0, 0, dest, &mut settings);
        let paths = (0..self.ports)
            .map(|src| dest[src].map(|_| self.walk(src, &settings)))
            .collect();
        BenesRouting { ports: self.ports, settings, paths }
    }

    /// Recursive looping step on the depth-`d` subnetwork whose wires
    /// share the low `d` bits `base`. `dest` is in local port
    /// coordinates (local port `i` ↔ global wire `(i << d) | base`).
    fn route_rec(&self, d: usize, base: usize, dest: &[Option<usize>], settings: &mut [Vec<bool>]) {
        let n = dest.len();
        debug_assert_eq!(n, self.ports >> d);
        if n == 2 {
            // Single middle-stage switch (global stage k − 1).
            let s = self.levels as usize - 1;
            let cross = dest[0] == Some(1) || dest[1] == Some(0);
            let sw = self.switch_of(s, base);
            settings[s][sw] = cross;
            return;
        }
        // 2-color the flows: color = subnetwork, flows sharing an entry
        // switch (src >> 1) or exit switch (dst >> 1) must differ. The
        // conflict graph has degree ≤ 2 and only even cycles (edges
        // alternate entry- and exit-switch constraints), so propagating
        // alternate colors along every chain/cycle always succeeds.
        let mut src_of = vec![usize::MAX; n]; // inverse of dest
        for (i, d) in dest.iter().enumerate() {
            if let Some(j) = d {
                src_of[*j] = i;
            }
        }
        let mut color: Vec<Option<u8>> = vec![None; n];
        let mut stack: Vec<usize> = Vec::new();
        for start in 0..n {
            if dest[start].is_none() || color[start].is_some() {
                continue;
            }
            color[start] = Some(0);
            stack.push(start);
            while let Some(i) = stack.pop() {
                let c = color[i].expect("pushed with a color");
                // Entry-switch partner.
                let mate = i ^ 1;
                if dest[mate].is_some() && color[mate].is_none() {
                    color[mate] = Some(1 - c);
                    stack.push(mate);
                }
                // Exit-switch partner.
                let j = dest[i].expect("flows only");
                let other = src_of[j ^ 1];
                if other != usize::MAX && color[other].is_none() {
                    color[other] = Some(1 - c);
                    stack.push(other);
                }
            }
        }
        // Entry stage (global stage d): local ports 2t / 2t+1 → the
        // straight output feeds subnetwork 0, the crossed one subnetwork
        // 1, so port 2t colored c needs cross = (c == 1) and port 2t+1
        // colored c needs cross = (c == 0). The coloring guarantees both
        // constraints agree when the switch carries two flows.
        let entry = d;
        let exit = self.stages() - 1 - d;
        for t in 0..n / 2 {
            let cross = match (color[2 * t], color[2 * t + 1]) {
                (Some(c), _) => c == 1,
                (None, Some(c)) => c == 0,
                (None, None) => false,
            };
            let sw = self.switch_of(entry, ((2 * t) << d) | base);
            settings[entry][sw] = cross;
        }
        // Exit stage: a flow colored c arrives on the bit-0 = c side of
        // the switch serving its destination pair.
        for t in 0..n / 2 {
            let c0 = dest.iter().position(|&x| x == Some(2 * t)).and_then(|i| color[i]);
            let c1 = dest.iter().position(|&x| x == Some(2 * t + 1)).and_then(|i| color[i]);
            let cross = match (c0, c1) {
                (Some(c), _) => c == 1,
                (None, Some(c)) => c == 0,
                (None, None) => false,
            };
            let sw = self.switch_of(exit, ((2 * t) << d) | base);
            settings[exit][sw] = cross;
        }
        // Recurse into the two subnetworks.
        let mut sub = [vec![None; n / 2], vec![None; n / 2]];
        for i in 0..n {
            if let (Some(j), Some(c)) = (dest[i], color[i]) {
                sub[c as usize][i >> 1] = Some(j >> 1);
            }
        }
        for (c, sub_dest) in sub.iter().enumerate() {
            self.route_rec(d + 1, (c << d) | base, sub_dest, settings);
        }
    }

    /// Wire occupied after each stage when `src` enters a configured
    /// network.
    fn walk(&self, src: usize, settings: &[Vec<bool>]) -> Vec<usize> {
        let mut w = src;
        let mut path = Vec::with_capacity(self.stages());
        for s in 0..self.stages() {
            if settings[s][self.switch_of(s, w)] {
                w ^= 1 << self.bits[s];
            }
            path.push(w);
        }
        path
    }

    /// Route an arbitrary flow multiset `(src, dst)` as a sequence of
    /// contention-free rounds (one routing per round). The number of
    /// rounds equals the maximum port degree `Δ` — optimal by König —
    /// and is the contention factor of a time-multiplexed fabric.
    pub fn route_rounds(&self, flows: &[(usize, usize)]) -> Vec<BenesRouting> {
        decompose_rounds(flows, self.ports)
            .into_iter()
            .map(|round| {
                let mut dest = vec![None; self.ports];
                for (s, t) in round {
                    dest[s] = Some(t);
                }
                self.route(&dest)
            })
            .collect()
    }
}

impl BenesRouting {
    /// Number of ports of the routed network.
    #[inline]
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// `occupation[s][w]` = number of flows leaving stage `s` on wire
    /// `w`. A valid rearrangeable routing has every entry ≤ 1.
    pub fn occupation(&self) -> Vec<Vec<u32>> {
        let stages = self.settings.len();
        let mut occ = vec![vec![0u32; self.ports]; stages];
        for path in self.paths.iter().flatten() {
            for (s, &w) in path.iter().enumerate() {
                occ[s][w] += 1;
            }
        }
        occ
    }

    /// The worst per-wire load across all stages (0 when nothing is
    /// routed, 1 for a contention-free routing).
    pub fn max_occupation(&self) -> u32 {
        self.occupation().iter().flatten().copied().max().unwrap_or(0)
    }

    /// Check the routing realizes `dest` with stage-edge-disjoint paths:
    /// every routed source exits on its destination wire and no stage
    /// wire carries two flows.
    pub fn verify(&self, dest: &[Option<usize>]) -> bool {
        if dest.len() != self.ports {
            return false;
        }
        for (src, d) in dest.iter().enumerate() {
            match (d, &self.paths[src]) {
                (Some(t), Some(path)) => {
                    if path.last() != Some(t) {
                        return false;
                    }
                }
                (None, None) => {}
                _ => return false,
            }
        }
        self.max_occupation() <= 1
    }
}

/// Decompose a bipartite flow multiset into `Δ` rounds, each using every
/// source and destination port at most once, by alternating-path edge
/// coloring (König's theorem: a bipartite multigraph is `Δ`-edge-
/// colorable).
pub fn decompose_rounds(flows: &[(usize, usize)], ports: usize) -> Vec<Vec<(usize, usize)>> {
    if flows.is_empty() {
        return Vec::new();
    }
    let mut deg_s = vec![0usize; ports];
    let mut deg_d = vec![0usize; ports];
    for &(s, t) in flows {
        assert!(s < ports && t < ports, "flow endpoint out of range");
        deg_s[s] += 1;
        deg_d[t] += 1;
    }
    let delta = deg_s.iter().chain(&deg_d).copied().max().expect("non-empty");
    const NIL: usize = usize::MAX;
    // at_src[u][c] / at_dst[v][c] = flow index colored c at that port.
    let mut at_src = vec![vec![NIL; delta]; ports];
    let mut at_dst = vec![vec![NIL; delta]; ports];
    let mut color = vec![NIL; flows.len()];
    for (e, &(u, v)) in flows.iter().enumerate() {
        let cu = (0..delta).find(|&c| at_src[u][c] == NIL).expect("degree <= delta");
        let cv = (0..delta).find(|&c| at_dst[v][c] == NIL).expect("degree <= delta");
        let c = if cu == cv {
            cu
        } else {
            // Flip the (cu, cv)-alternating path starting at v. It never
            // reaches u: entering u would need a cu edge, and cu is free
            // at u (bipartite — the classic König argument).
            let mut path = Vec::new();
            let mut at_right = true;
            let mut vertex = v;
            let mut want = cu;
            loop {
                let slot =
                    if at_right { at_dst[vertex][want] } else { at_src[vertex][want] };
                if slot == NIL {
                    break;
                }
                path.push(slot);
                let (ue, ve) = flows[slot];
                vertex = if at_right { ue } else { ve };
                at_right = !at_right;
                want = if want == cu { cv } else { cu };
            }
            // Two passes so shared endpoints along the path stay sound.
            for &ei in &path {
                let (ue, ve) = flows[ei];
                at_src[ue][color[ei]] = NIL;
                at_dst[ve][color[ei]] = NIL;
            }
            for &ei in &path {
                let (ue, ve) = flows[ei];
                let nc = if color[ei] == cu { cv } else { cu };
                color[ei] = nc;
                at_src[ue][nc] = ei;
                at_dst[ve][nc] = ei;
            }
            cu
        };
        color[e] = c;
        at_src[u][c] = e;
        at_dst[v][c] = e;
    }
    let mut rounds: Vec<Vec<(usize, usize)>> = vec![Vec::new(); delta];
    for (e, &(u, v)) in flows.iter().enumerate() {
        rounds[color[e]].push((u, v));
    }
    rounds.retain(|r| !r.is_empty());
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_perm(net: &BenesNetwork, perm: &[usize]) -> Vec<Option<usize>> {
        let mut dest = vec![None; net.ports()];
        for (s, &t) in perm.iter().enumerate() {
            dest[s] = Some(t);
        }
        dest
    }

    #[test]
    fn network_shape() {
        let net = BenesNetwork::new(8);
        assert_eq!(net.ports(), 8);
        assert_eq!(net.stages(), 5);
        assert_eq!(net.bits, vec![0, 1, 2, 1, 0]);
        assert_eq!(BenesNetwork::with_capacity_for(5).ports(), 8);
        assert_eq!(BenesNetwork::with_capacity_for(1).ports(), 2);
    }

    #[test]
    fn identity_and_reversal_route_on_two_ports() {
        let net = BenesNetwork::new(2);
        let id = net.route(&full_perm(&net, &[0, 1]));
        assert!(id.verify(&full_perm(&net, &[0, 1])));
        let rev = net.route(&full_perm(&net, &[1, 0]));
        assert!(rev.verify(&full_perm(&net, &[1, 0])));
        assert_eq!(rev.max_occupation(), 1);
    }

    #[test]
    fn all_permutations_of_four_ports_route_contention_free() {
        let net = BenesNetwork::new(4);
        // All 4! = 24 permutations, exhaustively.
        let mut perm = [0usize, 1, 2, 3];
        let mut count = 0;
        permute(&mut perm, 0, &mut |p| {
            let dest = full_perm(&net, p);
            let routing = net.route(&dest);
            assert!(routing.verify(&dest), "failed on {p:?}");
            count += 1;
        });
        assert_eq!(count, 24);
    }

    fn permute(arr: &mut [usize; 4], i: usize, f: &mut impl FnMut(&[usize])) {
        if i == arr.len() {
            f(arr);
            return;
        }
        for j in i..arr.len() {
            arr.swap(i, j);
            permute(arr, i + 1, f);
            arr.swap(i, j);
        }
    }

    #[test]
    fn partial_permutations_route() {
        let net = BenesNetwork::new(8);
        let mut dest = vec![None; 8];
        dest[1] = Some(6);
        dest[4] = Some(0);
        dest[7] = Some(7);
        let routing = net.route(&dest);
        assert!(routing.verify(&dest));
        assert_eq!(routing.max_occupation(), 1);
        assert!(routing.paths[0].is_none());
        assert_eq!(routing.paths[1].as_ref().unwrap().last(), Some(&6));
    }

    #[test]
    fn empty_routing_is_trivially_valid() {
        let net = BenesNetwork::new(4);
        let dest = vec![None; 4];
        let routing = net.route(&dest);
        assert!(routing.verify(&dest));
        assert_eq!(routing.max_occupation(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn duplicate_destinations_rejected() {
        let net = BenesNetwork::new(4);
        let mut dest = vec![None; 4];
        dest[0] = Some(2);
        dest[1] = Some(2);
        let _ = net.route(&dest);
    }

    #[test]
    fn round_decomposition_is_delta_optimal() {
        // The repeated-max-matching counterexample from the module docs:
        // Δ = 2 but a bad matching peel needs 3 rounds.
        let flows = [(0, 2), (0, 3), (1, 2), (4, 3)];
        let rounds = decompose_rounds(&flows, 8);
        assert_eq!(rounds.len(), 2);
        let total: usize = rounds.iter().map(Vec::len).sum();
        assert_eq!(total, flows.len());
        for round in &rounds {
            let mut src_seen = [false; 8];
            let mut dst_seen = [false; 8];
            for &(s, t) in round {
                assert!(!src_seen[s] && !dst_seen[t]);
                src_seen[s] = true;
                dst_seen[t] = true;
            }
        }
    }

    #[test]
    fn route_rounds_covers_every_flow() {
        let net = BenesNetwork::new(8);
        let flows = [(0, 1), (0, 2), (0, 3), (5, 1), (5, 2), (6, 6)];
        let routings = net.route_rounds(&flows);
        assert_eq!(routings.len(), 3); // Δ = deg(0) = 3
        let mut routed = 0;
        for r in &routings {
            assert!(r.max_occupation() <= 1);
            routed += r.paths.iter().flatten().count();
        }
        assert_eq!(routed, flows.len());
    }
}
