//! Cross-crate invariants of the belief machinery.

use augur::prelude::*;

fn small_belief() -> Belief<ModelParams> {
    ModelPrior::small().belief(BeliefConfig::default())
}

#[test]
fn weights_always_sum_to_one_after_advance() {
    let mut belief = small_belief();
    let mut truth = build_model(ModelParams {
        link_rate: BitRate::from_bps(12_000),
        cross_rate: BitRate::from_bps(8_400),
        gate: GateSpec::Intermittent {
            mtts: Dur::from_secs(100),
            epoch: Dur::from_secs(1),
            initially_connected: true,
        },
        loss: Ppm::from_prob(0.2),
        buffer_capacity: Bits::new(96_000),
        initial_fullness: Bits::ZERO,
        packet_size: Bits::from_bytes(1_500),
        cross_active: true,
    });
    let mut rng = SimRng::seed_from_u64(17);
    let mut seq = 0;
    for s in 1..=20u64 {
        let t = Time::from_secs(s);
        truth.net.run_until_sampled(t, &mut rng);
        let acks: Vec<Observation> = truth
            .net
            .take_deliveries()
            .into_iter()
            .filter(|(n, d)| *n == truth.rx_self && d.packet.flow == FlowId::SELF)
            .map(|(_, d)| Observation {
                seq: d.packet.seq,
                at: d.at,
            })
            .collect();
        truth.net.take_drops();
        belief.advance(t, &acks).expect("belief died");
        let total: f64 = belief.branches().iter().map(|h| h.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to {total} at {t}");
        if s % 2 == 0 {
            let pkt = Packet::new(FlowId::SELF, seq, Bits::from_bytes(1_500), t);
            seq += 1;
            belief.inject(pkt);
            truth.net.inject(truth.entry, pkt);
            while let Step::Pending(spec) = truth.net.run_until(t) {
                let pick = usize::from(rng.bernoulli(spec.p1));
                truth.net.resolve(pick);
            }
        }
    }
}

#[test]
fn fold_and_fork_agree_on_the_posterior() {
    // ABL-2 as a correctness statement: analytic last-mile folding and
    // explicit forking are the same Bayesian update.
    let run = |fold: bool| {
        let prior = ModelPrior::small();
        let probe = build_model(ModelParams::paper_ground_truth());
        let mut belief = Belief::new(
            prior.hypotheses(),
            probe.entry,
            probe.rx_self,
            BeliefConfig {
                fold_loss_node: Some(probe.loss),
                fold_self_loss: fold,
                ..BeliefConfig::default()
            },
        );
        let mut truth = build_model(ModelParams {
            gate: GateSpec::Intermittent {
                mtts: Dur::from_secs(100),
                epoch: Dur::from_secs(1),
                initially_connected: true,
            },
            ..ModelParams::paper_ground_truth()
        });
        let mut rng = SimRng::seed_from_u64(31);
        let mut seq = 0;
        for s in 1..=20u64 {
            let t = Time::from_secs(s);
            truth.net.run_until_sampled(t, &mut rng);
            let acks: Vec<Observation> = truth
                .net
                .take_deliveries()
                .into_iter()
                .filter(|(n, d)| *n == truth.rx_self && d.packet.flow == FlowId::SELF)
                .map(|(_, d)| Observation {
                    seq: d.packet.seq,
                    at: d.at,
                })
                .collect();
            truth.net.take_drops();
            belief.advance(t, &acks).expect("belief died");
            if s % 2 == 0 {
                let pkt = Packet::new(FlowId::SELF, seq, Bits::from_bytes(1_500), t);
                seq += 1;
                belief.inject(pkt);
                truth.net.inject(truth.entry, pkt);
                while let Step::Pending(spec) = truth.net.run_until(t) {
                    let pick = usize::from(rng.bernoulli(spec.p1));
                    truth.net.resolve(pick);
                }
            }
        }
        belief
            .marginal(|h| (h.meta.link_rate, h.meta.loss))
            .into_iter()
            .map(|(k, w)| (k, (w * 1e9).round() as i64))
            .collect::<std::collections::BTreeMap<_, _>>()
    };
    assert_eq!(run(true), run(false));
}

/// Pruning keeps the heaviest mass and normalization restores a
/// probability distribution, for arbitrary weight vectors. Case `k`
/// draws its weights from `SimRng::seed_from_u64(k)`; every assertion
/// names that seed.
#[test]
fn prune_and_normalize() {
    let probe = build_model(ModelParams::paper_ground_truth());
    for seed in 0..16u64 {
        let rng = &mut SimRng::seed_from_u64(seed);
        let n = rng.uniform_u64(2, 49) as usize;
        let weights: Vec<f64> = (0..n)
            .map(|_| 1e-12 + rng.uniform_f64() * (1.0 - 1e-12))
            .collect();
        let mut branches: Vec<Hypothesis<u32>> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Hypothesis {
                net: probe.net.clone(),
                meta: i as u32,
                weight: w,
            })
            .collect();
        let keep = (weights.len() / 2).max(1);
        augur::inference::prune(&mut branches, keep, 0.0);
        assert!(branches.len() <= keep, "case seed {seed}");
        let min_kept = branches.iter().map(|h| h.weight).fold(f64::MAX, f64::min);
        // No discarded weight may exceed a kept one.
        let mut sorted = weights.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        assert!(
            min_kept >= sorted[keep.min(sorted.len()) - 1] - 1e-15,
            "case seed {seed}"
        );
        let evidence = augur::inference::normalize(&mut branches);
        assert!(evidence > 0.0, "case seed {seed}");
        let total: f64 = branches.iter().map(|h| h.weight).sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "case seed {seed}: total {total}"
        );
    }
}
