//! An independent reference model of [`rv_net::Network`], for the
//! equivalence properties.
//!
//! It is built only from public pieces — [`Link`]s and a
//! [`TopologyPrototype`]'s routes — and schedules the simplest way there
//! is: every packet that finishes a link goes into one global in-flight
//! queue keyed by `(arrival, push sequence)`, and `poll` drains every link
//! and every due arrival, round after round, until a round moves nothing.
//! No delay lines, no eager minima, no due pre-checks: whatever `Network`
//! does to be fast, it must stay observationally identical to this.
//!
//! The routing rules are the ones `Network` documents: a send without a
//! route counts `unroutable` and returns `false`; every route install
//! issues a fresh route version, and a packet whose version is no longer
//! the installed one counts `misrouted` wherever it is next handled (when
//! it finishes a link, or when it arrives at the link's far end).

use std::collections::{BTreeMap, VecDeque};

use rv_net::{HostId, Link, LinkId, LinkParams, LinkStats, NodeId, Packet, TopologyPrototype};
use rv_sim::{OutagePolicy, SimRng, SimTime};

/// The reference network. Link ids and host ids mean what they mean in
/// the `Network` built from the same declarations.
pub struct ReferenceNet {
    links: Vec<Link<u32>>,
    num_hosts: usize,
    /// Per ordered host pair (`src * num_hosts + dst`): the installed
    /// route and its version.
    routes: Vec<Option<(Vec<LinkId>, u64)>>,
    next_version: u64,
    /// Packets between links by `(arrival, push sequence)`, each with its
    /// tag: the route version it was sent on (high 32 bits) and the hop
    /// it has just traversed (low 32 bits).
    in_flight: BTreeMap<(SimTime, u64), (Packet<u32>, u64)>,
    next_seq: u64,
    inboxes: Vec<VecDeque<Packet<u32>>>,
    /// Packets delivered end to end.
    pub delivered: u64,
    /// Packets stranded by a route change.
    pub misrouted: u64,
    /// Sends that found no route.
    pub unroutable: u64,
}

impl ReferenceNet {
    /// Builds the reference for a topology whose nodes are numbered in
    /// declaration order, whose first `num_hosts` host declarations are
    /// hosts `0..num_hosts`, and whose links are `decls` in declaration
    /// order. Each link gets its own stream forked from `seed` exactly as
    /// the builder forks them; routes come from `proto`.
    pub fn new(
        num_hosts: usize,
        decls: &[(u32, u32, LinkParams)],
        proto: &TopologyPrototype,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let links = decls
            .iter()
            .map(|&(from, to, params)| {
                let stream = rng.fork(u64::from(from) << 32 | u64::from(to));
                Link::new(NodeId(from), NodeId(to), params, stream)
            })
            .collect();
        let mut net = ReferenceNet {
            links,
            num_hosts,
            routes: (0..num_hosts * num_hosts).map(|_| None).collect(),
            next_version: 0,
            in_flight: BTreeMap::new(),
            next_seq: 0,
            inboxes: (0..num_hosts).map(|_| VecDeque::new()).collect(),
            delivered: 0,
            misrouted: 0,
            unroutable: 0,
        };
        for src in 0..num_hosts as u32 {
            for dst in 0..num_hosts as u32 {
                if let Some(route) = proto.route(HostId(src), HostId(dst)) {
                    net.set_route(HostId(src), HostId(dst), route.to_vec());
                }
            }
        }
        net
    }

    fn slot(&self, packet: &Packet<u32>) -> usize {
        packet.src.host.0 as usize * self.num_hosts + packet.dst.host.0 as usize
    }

    /// The installed route for `packet`'s pair, if `tag`'s version is
    /// still it.
    fn current_route(&self, packet: &Packet<u32>, tag: u64) -> Option<&[LinkId]> {
        match &self.routes[self.slot(packet)] {
            Some((route, version)) if *version == tag >> 32 => Some(route),
            _ => None,
        }
    }

    /// Installs a route, stranding every packet sent on the previous one.
    pub fn set_route(&mut self, src: HostId, dst: HostId, route: Vec<LinkId>) {
        let slot = src.0 as usize * self.num_hosts + dst.0 as usize;
        self.routes[slot] = Some((route, self.next_version));
        self.next_version += 1;
    }

    /// Offers a packet to the first link of its route.
    pub fn send(&mut self, now: SimTime, packet: Packet<u32>) -> bool {
        let Some((route, version)) = &self.routes[self.slot(&packet)] else {
            self.unroutable += 1;
            return false;
        };
        let tag = version << 32;
        self.links[route[0].0 as usize].enqueue_tagged(now, packet, tag)
    }

    /// Moves everything due by `now`; returns the packets that moved.
    pub fn poll(&mut self, now: SimTime) -> usize {
        let mut moved = 0;
        loop {
            let mut progress = false;
            for link in 0..self.links.len() {
                let mut done = Vec::new();
                self.links[link].poll(now, &mut |at, packet, tag| done.push((at, packet, tag)));
                progress |= !done.is_empty();
                for (at, packet, tag) in done {
                    if self.current_route(&packet, tag).is_none() {
                        self.misrouted += 1;
                        continue;
                    }
                    self.in_flight.insert((at, self.next_seq), (packet, tag));
                    self.next_seq += 1;
                    moved += 1;
                }
            }
            while let Some(entry) = self.in_flight.first_entry() {
                let (at, _) = *entry.key();
                if at > now {
                    break;
                }
                let (packet, tag) = entry.remove();
                progress = true;
                let Some(route) = self.current_route(&packet, tag) else {
                    self.misrouted += 1;
                    continue;
                };
                let hop = tag as u32 as usize;
                match route.get(hop + 1).copied() {
                    Some(next) => {
                        self.links[next.0 as usize].enqueue_tagged(at, packet, tag + 1);
                    }
                    None => {
                        let host = packet.dst.host.0 as usize;
                        self.inboxes[host].push_back(packet);
                        self.delivered += 1;
                    }
                }
                moved += 1;
            }
            if !progress {
                return moved;
            }
        }
    }

    /// The earliest pending serialization completion or arrival.
    pub fn next_wake(&self) -> Option<SimTime> {
        let arrival = self.in_flight.keys().next().map(|&(at, _)| at);
        self.links
            .iter()
            .filter_map(Link::next_wake)
            .chain(arrival)
            .min()
    }

    /// Pops the next delivered packet for `host`.
    pub fn recv(&mut self, host: HostId) -> Option<Packet<u32>> {
        self.inboxes[host.0 as usize].pop_front()
    }

    /// One link's counters.
    pub fn link_stats(&self, lid: LinkId) -> LinkStats {
        self.links[lid.0 as usize].stats()
    }

    /// Takes a link down.
    pub fn set_link_down(&mut self, lid: LinkId, policy: OutagePolicy) {
        self.links[lid.0 as usize].set_down(policy);
    }

    /// Brings a link back up at `now`.
    pub fn set_link_up(&mut self, now: SimTime, lid: LinkId) {
        self.links[lid.0 as usize].set_up(now);
    }

    /// Sets a link's injected extra loss.
    pub fn set_link_extra_loss(&mut self, lid: LinkId, ppm: u32) {
        self.links[lid.0 as usize].set_extra_loss_ppm(ppm);
    }
}
