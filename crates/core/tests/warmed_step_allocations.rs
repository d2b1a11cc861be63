//! Whole DP-SGD steps draw every matrix buffer from warm pools.
//!
//! `privim_tensor::pool` counts fresh allocations per thread; with two
//! compute threads the per-draw gradients are computed on a pool worker
//! as well, so this gate reads the process-wide count. That count also
//! sees every other test running at the same time, which is why this test
//! is the only one in its binary.

use privim::trainer::{train_dpgnn, DpSgdConfig, TrainItem};
use privim_gnn::{GnnConfig, GnnKind, GnnModel};
use privim_graph::{generators, induced_subgraph};
use privim_rt::{ChaCha8Rng, SeedableRng};
use privim_sampling::{freq_sampling, FreqConfig};
use privim_tensor::pool::process_fresh_allocations;

#[test]
fn warmed_train_dpgnn_allocates_nothing_at_one_and_two_threads() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = generators::barabasi_albert(300, 4, &mut rng).with_uniform_weights(1.0);
    let mut freq = vec![0u32; g.num_nodes()];
    let scfg = FreqConfig {
        subgraph_size: 12,
        return_prob: 0.3,
        decay: 1.0,
        sampling_rate: 1.0,
        walk_len: 150,
        threshold: 8,
    };
    let sets = freq_sampling(&g, &mut freq, &scfg, &mut rng).unwrap();
    let subs: Vec<_> = sets
        .iter()
        .take(10)
        .map(|s| induced_subgraph(&g, s))
        .collect();
    let items = TrainItem::from_container(&subs);
    // Paper shape (3 layers × 32 hidden), batch 16 from 10 subgraphs: the
    // steps repeat draws, so the shared-gradient path is exercised too.
    let cfg = DpSgdConfig {
        iters: 3,
        seed: 6,
        ..DpSgdConfig::paper_default(1.0, 8)
    };
    for threads in [1, 2] {
        privim_rt::par::set_threads(threads);
        for kind in GnnKind::ALL {
            let model = GnnModel::new(
                GnnConfig::paper_default_with(kind),
                &mut ChaCha8Rng::seed_from_u64(4),
            );
            let run = || {
                let mut m = model.clone();
                let report = train_dpgnn(&mut m, &items, &cfg).unwrap();
                assert!(report.recoveries.is_empty());
            };
            // A pool hands out the most recently released buffer that is
            // big enough, so the first calls still trade small buffers
            // for large ones; every kind allocates nothing from its sixth
            // call on.
            for _ in 0..8 {
                run();
            }
            let before = process_fresh_allocations();
            run();
            let fresh = process_fresh_allocations() - before;
            assert_eq!(
                fresh, 0,
                "{kind:?} at {threads} threads: a warmed run allocated"
            );
        }
    }
    privim_rt::par::set_threads(0);
}
