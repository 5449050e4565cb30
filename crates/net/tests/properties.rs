//! Property-based tests for the network layer: conservation laws (packets
//! are never created from nothing, FIFO order survives any load pattern,
//! link accounting always balances), `next_wake` exactness, and
//! equivalence of [`rv_net::Network`] with the independent reference
//! model in `reference/mod.rs` under random traffic, faults and tied
//! arrivals.

mod reference;

use proptest::prelude::*;
use reference::ReferenceNet;
use rv_net::{Addr, HostId, LinkId, LinkParams, NetBuilder, Network, Packet};
use rv_sim::{OutagePolicy, SimDuration, SimRng, SimTime};

/// Two hosts, one duplex link with the given parameters.
fn two_hosts(params: LinkParams, seed: u64) -> rv_net::Network<u32> {
    let mut b = NetBuilder::new();
    let a = b.host();
    let z = b.host();
    b.duplex(a, z, params);
    let mut rng = SimRng::seed_from_u64(seed);
    b.build_with_payload::<u32>(&mut rng)
}

proptest! {
    /// Conservation: delivered + dropped == offered, under any mix of
    /// packet sizes, send times, loss rate, and queue size.
    #[test]
    fn packets_are_conserved(
        sends in prop::collection::vec((1u32..3000, 0u64..5_000), 1..200),
        loss in 0.0f64..0.3,
        queue_kb in 1u32..64,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(10))
            .queue(queue_kb * 1024)
            .loss(loss);
        let mut net = two_hosts(params, seed);
        let (a, z) = (HostId(0), HostId(1));
        let mut accepted = 0u64;
        for (i, (size, at_ms)) in sends.iter().enumerate() {
            let t = SimTime::from_millis(*at_ms);
            net.poll(t);
            if net.send(t, Packet::new(Addr::new(a, 1), Addr::new(z, 1), *size, i as u32)) {
                accepted += 1;
            }
        }
        net.poll(SimTime::from_secs(600));
        let mut received = 0u64;
        while net.recv(z).is_some() {
            received += 1;
        }
        // Everything the first link accepted must arrive (single hop, no
        // further loss points).
        prop_assert_eq!(received, accepted);
        prop_assert_eq!(net.delivered(), accepted);
        let stats = net.link_stats(rv_net::LinkId(0));
        prop_assert_eq!(stats.enqueued, accepted);
        prop_assert_eq!(
            stats.enqueued + stats.dropped_queue + stats.dropped_loss,
            sends.len() as u64
        );
    }

    /// FIFO: whatever arrives, arrives in send order on a lossless link.
    #[test]
    fn fifo_order_is_preserved(
        sends in prop::collection::vec((1u32..3000, 0u64..2_000), 1..150),
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(500_000.0)
            .delay(SimDuration::from_millis(20))
            .queue(u32::MAX);
        let mut net = two_hosts(params, seed);
        let (a, z) = (HostId(0), HostId(1));
        let mut sorted_sends = sends.clone();
        sorted_sends.sort_by_key(|(_, t)| *t);
        for (i, (size, at_ms)) in sorted_sends.iter().enumerate() {
            let t = SimTime::from_millis(*at_ms);
            net.poll(t);
            net.send(t, Packet::new(Addr::new(a, 1), Addr::new(z, 1), *size, i as u32));
        }
        net.poll(SimTime::from_secs(600));
        let mut prev = None;
        while let Some(p) = net.recv(z) {
            if let Some(prev) = prev {
                prop_assert!(p.payload > prev, "out of order: {} after {prev}", p.payload);
            }
            prev = Some(p.payload);
        }
    }

    /// Latency sanity: delivery is never earlier than serialization +
    /// propagation allows.
    #[test]
    fn no_faster_than_light_delivery(
        size in 1u32..10_000,
        rate_kbps in 10u32..10_000,
        delay_ms in 0u64..500,
    ) {
        let rate = f64::from(rate_kbps) * 1e3;
        let params = LinkParams::lan()
            .rate(rate)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(u32::MAX);
        let mut net = two_hosts(params, 1);
        let (a, z) = (HostId(0), HostId(1));
        net.send(SimTime::ZERO, Packet::new(Addr::new(a, 1), Addr::new(z, 1), size, 0));
        let min_micros =
            (f64::from(size) * 8.0 / rate * 1e6) as u64 + delay_ms * 1000;
        // Just before the bound: nothing may have arrived.
        if min_micros > 1 {
            net.poll(SimTime::from_micros(min_micros - 1));
            prop_assert_eq!(net.inbox_len(z), 0);
        }
        // At (just past) the bound: it must arrive.
        net.poll(SimTime::from_micros(min_micros + 2));
        prop_assert_eq!(net.inbox_len(z), 1);
    }
}

/// A multi-hop world: `nh` hosts hanging off a chain of `nr` routers.
/// Nodes are numbered in declaration order — hosts `0..nh`, then the
/// routers — and every host pair gets a BFS route through the chain, so
/// routes span 2..=nr+1 links and packets share interior links.
struct Chain {
    nh: usize,
    nr: usize,
    /// Link declarations `(from, to, params)`, in declaration order.
    decls: Vec<(u32, u32, LinkParams)>,
}

impl Chain {
    fn new(nh: usize, nr: usize, params: LinkParams) -> Self {
        let router = |i: usize| (nh + i) as u32;
        let pairs = (1..nr)
            .map(|r| (router(r - 1), router(r)))
            .chain((0..nh).map(|h| (h as u32, router(h % nr))));
        let decls = pairs
            .flat_map(|(a, b)| [(a, b, params), (b, a, params)])
            .collect();
        Chain { nh, nr, decls }
    }

    fn builder(&self) -> NetBuilder {
        let mut b = NetBuilder::new();
        let mut nodes: Vec<_> = (0..self.nh).map(|_| b.host()).collect();
        nodes.extend((0..self.nr).map(|_| b.router()));
        for &(from, to, params) in &self.decls {
            b.link(nodes[from as usize], nodes[to as usize], params);
        }
        b
    }

    fn build(&self, seed: u64) -> Network<u32> {
        self.builder()
            .build_with_payload(&mut SimRng::seed_from_u64(seed))
    }
}

proptest! {
    /// `next_wake` is conservative: polling strictly before it moves
    /// nothing, and polling at it always makes progress — so the reported
    /// wake is never later than an unprocessed due event.
    #[test]
    fn next_wake_never_skips_due_work(
        sends in prop::collection::vec((1u32..2000, 0u64..100), 1..60),
        nr in 1usize..3,
        rate_kbps in 50u32..2_000,
        delay_ms in 0u64..20,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(f64::from(rate_kbps) * 1e3)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(u32::MAX);
        let mut net = Chain::new(2, nr, params).build(seed);
        let (a, z) = (HostId(0), HostId(1));
        let mut sends = sends;
        sends.sort_by_key(|(_, at)| *at);
        let mut last = SimTime::ZERO;
        for (i, (size, at_ms)) in sends.iter().enumerate() {
            let t = SimTime::from_millis(*at_ms);
            net.poll(t);
            last = t;
            net.send(t, Packet::new(Addr::new(a, 1), Addr::new(z, 1), *size, i as u32));
        }
        let mut guard = 0;
        while let Some(wake) = net.next_wake() {
            guard += 1;
            prop_assert!(guard < 100_000, "wake loop did not converge");
            // A reported wake may never sit in the past: everything due at
            // the last poll time must already have been processed.
            prop_assert!(
                wake > last,
                "next_wake {wake} not after last processed instant {last}"
            );
            let before = SimTime::from_micros(wake.as_micros() - 1);
            if before > last {
                prop_assert_eq!(net.poll(before), 0, "moved before next_wake {wake}");
            }
            prop_assert!(net.poll(wake) > 0, "next_wake {wake} was a dud");
            last = wake;
        }
        // Quiescence (no wake) means nothing is still in flight: every
        // packet that survived the links sits in z's inbox.
        prop_assert_eq!(net.inbox_len(z) as u64, net.delivered());
        prop_assert_eq!(net.misrouted(), 0);
    }
}

/// One step of a script: `(advance ms, kind, a, b, size, ppm)`. Each step
/// advances the clock, polls, and then acts by `kind % 4`: 0 sends `size`
/// bytes from host `a` to host `b`, 1 toggles link `a` down (policy by
/// `b`) or back up, 2 sets link `a`'s injected loss to `ppm`, 3 reinstalls
/// the route from `a` to `b` (stranding what is in flight on it).
type ScriptOp = (u64, usize, usize, usize, u32, u32);

/// Polls both networks at `t` and requires them to agree on the packets
/// moved, on what each inbox received, on every link's counters and on
/// the next wake.
fn poll_both(
    net: &mut Network<u32>,
    reference: &mut ReferenceNet,
    nh: usize,
    t: SimTime,
) -> Result<(), String> {
    prop_assert_eq!(net.poll(t), reference.poll(t), "packets moved at {}", t);
    for h in 0..nh {
        let host = HostId(h as u32);
        loop {
            let (got, want) = (net.recv(host), reference.recv(host));
            prop_assert_eq!(
                got.as_ref().map(|p| p.payload),
                want.as_ref().map(|p| p.payload),
                "host {} inbox at {}",
                h,
                t
            );
            if got.is_none() {
                break;
            }
        }
    }
    for l in 0..net.num_links() {
        let lid = LinkId(l as u32);
        prop_assert_eq!(
            net.link_stats(lid),
            reference.link_stats(lid),
            "link {} at {}",
            l,
            t
        );
    }
    prop_assert_eq!(net.next_wake(), reference.next_wake(), "next wake at {}", t);
    Ok(())
}

/// Replays `ops` on the `Network` built from `chain` and on the reference
/// built from the same declarations and seed, in lockstep; then brings
/// every link back up and settles in coarse steps. Every step compares
/// the send results and everything [`poll_both`] checks; the end compares
/// the delivered, misrouted and unroutable totals and requires both
/// worlds to have drained.
fn check_against_reference(chain: &Chain, seed: u64, ops: &[ScriptOp]) -> Result<(), String> {
    let proto = chain.builder().prototype();
    let mut net = chain.build(seed);
    let mut reference = ReferenceNet::new(chain.nh, &chain.decls, &proto, seed);
    let (nh, nl) = (chain.nh, chain.decls.len());
    let mut now_ms = 0u64;
    for (i, &(dt_ms, kind, a, b, size, ppm)) in ops.iter().enumerate() {
        now_ms += dt_ms;
        let t = SimTime::from_millis(now_ms);
        poll_both(&mut net, &mut reference, nh, t)?;
        let (src, dst) = (HostId((a % nh) as u32), HostId((b % nh) as u32));
        let lid = LinkId((a % nl) as u32);
        match kind % 4 {
            0 => {
                if src != dst {
                    let pkt = Packet::new(Addr::new(src, 1), Addr::new(dst, 1), size, i as u32);
                    prop_assert_eq!(
                        net.send(t, pkt.clone()),
                        reference.send(t, pkt),
                        "send {}",
                        i
                    );
                }
            }
            1 => {
                if net.link_is_down(lid) {
                    net.set_link_up(t, lid);
                    reference.set_link_up(t, lid);
                } else {
                    let policy = if b % 2 == 0 {
                        OutagePolicy::DropInFlight
                    } else {
                        OutagePolicy::CarryInFlight
                    };
                    net.set_link_down(lid, policy);
                    reference.set_link_down(lid, policy);
                }
            }
            2 => {
                net.set_link_extra_loss(lid, ppm);
                reference.set_link_extra_loss(lid, ppm);
            }
            _ => {
                if let Some(route) = proto.route(src, dst) {
                    net.set_route(src, dst, route.to_vec());
                    reference.set_route(src, dst, route.to_vec());
                }
            }
        }
    }
    let end = SimTime::from_millis(now_ms);
    for l in 0..nl {
        let lid = LinkId(l as u32);
        if net.link_is_down(lid) {
            net.set_link_up(end, lid);
            reference.set_link_up(end, lid);
        }
    }
    for step in 1..=120u64 {
        let t = SimTime::from_millis(now_ms + step * 50);
        poll_both(&mut net, &mut reference, nh, t)?;
    }
    prop_assert_eq!(net.delivered(), reference.delivered, "delivered");
    prop_assert_eq!(net.misrouted(), reference.misrouted, "misrouted");
    prop_assert_eq!(net.unroutable(), reference.unroutable, "unroutable");
    prop_assert!(net.next_wake().is_none(), "world failed to quiesce");
    Ok(())
}

proptest! {
    /// Over random chains, loss and traffic, `Network` is observationally
    /// identical to the reference: same packets moved per poll, same
    /// inbox contents at the same poll instants, same link counters and
    /// wakes. Both draw from per-link streams forked from one seed, so a
    /// divergence in RNG draw order (the determinism contract) also trips
    /// the comparison.
    #[test]
    fn poll_matches_reference_on_random_traffic(
        nh in 2usize..5,
        nr in 1usize..4,
        sends in prop::collection::vec((0u64..6, 0usize..4, 0usize..4, 1u32..1500), 1..100),
        loss in 0.0f64..0.2,
        rate_kbps in 50u32..5_000,
        delay_ms in 0u64..30,
        queue_kb in 2u32..32,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(f64::from(rate_kbps) * 1e3)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(queue_kb * 1024)
            .loss(loss);
        let ops: Vec<ScriptOp> =
            sends.iter().map(|&(dt, a, b, size)| (dt, 0, a, b, size, 0)).collect();
        check_against_reference(&Chain::new(nh, nr, params), seed, &ops)?;
    }

    /// The same equivalence under the conditions plain traffic never
    /// reaches: mid-flight outages of both policies, loss bursts injected
    /// and withdrawn, and route reinstalls that strand in-flight packets
    /// (which must count `misrouted`).
    #[test]
    fn poll_matches_reference_under_faults(
        nh in 2usize..5,
        nr in 1usize..4,
        ops in prop::collection::vec(
            (0u64..40, 0usize..8, 0usize..8, 0usize..8, 1u32..1500, 0u32..400_000),
            1..80,
        ),
        loss in 0.0f64..0.1,
        rate_kbps in 50u32..5_000,
        delay_ms in 0u64..30,
        queue_kb in 2u32..32,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(f64::from(rate_kbps) * 1e3)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(queue_kb * 1024)
            .loss(loss);
        check_against_reference(&Chain::new(nh, nr, params), seed, &ops)?;
    }

    /// The same equivalence where it is hardest to get right: same-instant
    /// arrivals on different links. Every link runs at 1 Mb/s with whole-ms
    /// delays and packets come in 125-byte units, so every serialization
    /// takes whole milliseconds; with sends 0–2 ms apart, no loss, deep
    /// queues and three or more hosts sharing router links, arrivals
    /// collide constantly and their tie-break decides which packet a
    /// shared link serializes first.
    #[test]
    fn poll_matches_reference_on_tied_arrivals(
        nh in 3usize..6,
        nr in 1usize..4,
        sends in prop::collection::vec((0u64..3, 0usize..8, 0usize..8, 1u32..9), 1..120),
        delay_ms in 0u64..4,
        seed in any::<u64>(),
    ) {
        let params = LinkParams::lan()
            .rate(1_000_000.0)
            .delay(SimDuration::from_millis(delay_ms))
            .queue(u32::MAX);
        let ops: Vec<ScriptOp> =
            sends.iter().map(|&(dt, a, b, units)| (dt, 0, a, b, units * 125, 0)).collect();
        check_against_reference(&Chain::new(nh, nr, params), seed, &ops)?;
    }
}
