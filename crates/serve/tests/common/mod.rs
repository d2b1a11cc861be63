//! Shared fixture for the serve integration tests.

use privim::ServeArtifact;
use privim_gnn::{GnnConfig, GnnModel};
use privim_graph::Graph;
use privim_rt::{ChaCha8Rng, SeedableRng};
use privim_serve::{bundle, LedgerConfig, LedgerState};

/// A loaded serving bundle over a seeded Barabási–Albert graph (`nodes`
/// nodes, 3 edges per arrival, unit weights), plus the graph and model it
/// was packed from for direct library calls. The model is untrained —
/// serving behaviour does not depend on weight quality, and skipping
/// DP-SGD keeps the suite fast. With a `ledger` the bundle is metered: a
/// per-tenant budget ledger rides in it.
pub fn test_bundle(
    seed: u64,
    nodes: usize,
    ledger: Option<LedgerConfig>,
) -> (bundle::Bundle, Graph, GnnModel) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = privim_graph::generators::barabasi_albert(nodes, 3, &mut rng).with_uniform_weights(1.0);
    let model = GnnModel::new(GnnConfig::paper_default(), &mut rng);
    let artifact = ServeArtifact {
        model: model.clone(),
        epsilon: Some(2.0),
        delta: 1e-4,
        sigma: 1.5,
        steps: 80,
    };
    let mut buf = Vec::new();
    match ledger {
        Some(cfg) => bundle::save_with_ledger(&artifact, &g, &LedgerState::new(cfg), &mut buf),
        None => bundle::save(&artifact, &g, &mut buf),
    }
    .unwrap();
    (bundle::load(buf.as_slice()).unwrap(), g, model)
}
