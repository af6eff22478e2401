//! Packet conservation under randomized traffic/drop mixes, observed two
//! ways at once: the simulator's own `PacketCounters` and the event
//! stream folded by a [`MemorySink`] must both account for every
//! generated packet, and must agree with each other.

use proptest::prelude::*;
use qlec::core::QlecProtocol;
use qlec::net::{NetworkBuilder, SimConfig, Simulator};
use qlec::obs::{MemorySink, ObserverSet};
use qlec::radio::link::{AnyLink, DistanceLossLink, IdealLink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// QLEC (the full protocol: election, Q-routing, fusion, aggregates)
    /// conserves packets for arbitrary traffic intensities, queue sizes,
    /// retry budgets, and link reliabilities — and the observed event
    /// stream reproduces the same ledger.
    #[test]
    fn qlec_conserves_packets_under_random_traffic(
        seed in 0u64..200,
        n in 10usize..40,
        lambda in 0.5f64..15.0,
        k in 1usize..5,
        rounds in 1u32..5,
        queue_capacity in 1usize..40,
        member_retries in 0u32..3,
        lossy in any::<bool>(),
    ) {
        let link = if lossy {
            // Short reference distance + loss floor: plenty of link drops.
            AnyLink::DistanceLoss(DistanceLossLink::new(120.0, 3.0, 0.05))
        } else {
            AnyLink::Ideal(IdealLink)
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new().link(link).uniform_cube(&mut rng, n, 200.0, 1.0);

        let mut cfg = SimConfig::paper(lambda);
        cfg.rounds = rounds;
        cfg.queue_capacity = queue_capacity;
        cfg.member_retries = member_retries;

        let sink = Arc::new(Mutex::new(MemorySink::new()));
        let mut obs = ObserverSet::new();
        obs.attach(sink.clone());
        let mut protocol = QlecProtocol::builder()
            .k(k)
            .total_rounds(rounds)
            .observer(obs.clone())
            .build();
        let report = Simulator::builder(net).config(cfg).observers(obs).build().run(&mut protocol, &mut rng);

        // Ledger 1: the simulator's counters, per round and in total.
        prop_assert!(report.totals.is_conserved(), "{:?}", report.totals);
        for r in &report.rounds {
            prop_assert!(r.packets.is_conserved(), "round {}: {:?}", r.round, r.packets);
        }

        // Ledger 2: the event stream. Every generated packet got exactly
        // one fate event, so the sink's ledger closes too …
        let sink = sink.lock().unwrap();
        let reg = sink.registry();
        let dropped = reg.counter("packets.dropped.link")
            + reg.counter("packets.dropped.queue_full")
            + reg.counter("packets.dropped.deadline")
            + reg.counter("packets.dropped.aggregate")
            + reg.counter("packets.dropped.dead");
        prop_assert_eq!(
            reg.counter("packets.generated"),
            reg.counter("packets.delivered") + dropped
        );

        // … and the two ledgers agree entry by entry.
        let t = &report.totals;
        prop_assert_eq!(reg.counter("packets.generated"), t.generated);
        prop_assert_eq!(reg.counter("packets.delivered"), t.delivered);
        prop_assert_eq!(dropped, t.total_dropped());

        // Retries are diagnostic, not part of the identity — both ledgers
        // count them the same, and they never unbalance conservation.
        prop_assert_eq!(reg.counter("packets.retried"), t.retried);
    }
}

/// One deterministic run at scale: N = 10 000 with the Theorem-1
/// candidate budget active (k = 50), so every packet routes over a
/// pruned candidate set. The simulator's ledger must still close
/// exactly, per round and in total, over real traffic (a packet-free
/// run would vacuously pass). The test keeps its historical name; the
/// sparse Q-row store it once also checked is gone, since `Send-Data`
/// never materializes Q-rows.
#[test]
fn qlec_conserves_packets_at_n10k_with_sparse_q_rows() {
    let mut rng = StdRng::seed_from_u64(0x10_000);
    let net = NetworkBuilder::new()
        .link(AnyLink::DistanceLoss(DistanceLossLink::for_cube(200.0)))
        .uniform_cube(&mut rng, 10_000, 200.0, 5.0);

    let mut cfg = SimConfig::paper(8.0);
    cfg.rounds = 2;

    let mut protocol = QlecProtocol::builder()
        .k(50)
        .total_rounds(cfg.rounds)
        .build();
    let report = Simulator::builder(net)
        .config(cfg)
        .build()
        .run(&mut protocol, &mut rng);

    assert!(report.totals.is_conserved(), "{:?}", report.totals);
    for r in &report.rounds {
        assert!(
            r.packets.is_conserved(),
            "round {}: {:?}",
            r.round,
            r.packets
        );
    }
    assert!(
        report.totals.generated > 1_000,
        "run must carry real traffic"
    );
}
