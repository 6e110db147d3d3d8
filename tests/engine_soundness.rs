//! End-to-end engine soundness: every history an engine commits must
//! satisfy the isolation level the engine promises — across schemes,
//! workloads and seeds. The engines never consult the checker, so
//! this is the repository's strongest integration property.

use adya::core::{classify, IsolationLevel};
use adya::engine::Engine;
use adya::workloads::{
    bank_workload, hotspot_workload, mixed_workload, phantom_workload, run_deterministic, schemes,
    BankConfig, DriverConfig, HotspotConfig, MixedConfig, PhantomConfig,
};

fn assert_level(engine: Box<dyn Engine>, level: IsolationLevel, ctx: &str) {
    let name = engine.name();
    let h = engine.finalize();
    let r = classify(&h);
    assert!(
        r.satisfies(level),
        "{name} violated {level} ({ctx}):\n{h}\n{r}"
    );
}

#[test]
fn mixed_workload_histories_satisfy_levels() {
    for scheme in schemes() {
        for seed in 0..5u64 {
            let (engine, level) = ((scheme.make)(), scheme.guarantees);
            let (_, programs) = mixed_workload(
                engine.as_ref(),
                &MixedConfig {
                    keys: 6,
                    txns: 20,
                    ops_per_txn: 4,
                    write_ratio: 0.6,
                    abort_prob: 0.15,
                    delete_prob: 0.0,
                    theta: 0.9,
                    seed,
                },
            );
            let _ = run_deterministic(
                engine.as_ref(),
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            assert_level(engine, level, &format!("mixed seed {seed}"));
        }
    }
}

#[test]
fn delete_heavy_workload_histories_satisfy_levels() {
    // Deletes exercise dead versions and row re-incarnation; every
    // scheme must keep its level guarantees.
    for scheme in schemes() {
        for seed in 0..4u64 {
            let (engine, level) = ((scheme.make)(), scheme.guarantees);
            let (_, programs) = mixed_workload(
                engine.as_ref(),
                &MixedConfig {
                    keys: 5,
                    txns: 24,
                    ops_per_txn: 4,
                    write_ratio: 0.7,
                    abort_prob: 0.1,
                    delete_prob: 0.4,
                    theta: 0.8,
                    seed,
                },
            );
            let _ = run_deterministic(
                engine.as_ref(),
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            assert_level(engine, level, &format!("delete-heavy seed {seed}"));
        }
    }
}

#[test]
fn bank_workload_histories_satisfy_levels() {
    for scheme in schemes() {
        for seed in 0..3u64 {
            let (engine, level) = ((scheme.make)(), scheme.guarantees);
            let (_, programs) = bank_workload(
                engine.as_ref(),
                &BankConfig {
                    accounts: 4,
                    transfers: 16,
                    audits: 6,
                    seed,
                    ..Default::default()
                },
            );
            let _ = run_deterministic(
                engine.as_ref(),
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            assert_level(engine, level, &format!("bank seed {seed}"));
        }
    }
}

#[test]
fn phantom_workload_histories_satisfy_levels() {
    for scheme in schemes() {
        for seed in 0..3u64 {
            let (engine, level) = ((scheme.make)(), scheme.guarantees);
            let (_, _, programs) = phantom_workload(
                engine.as_ref(),
                &PhantomConfig {
                    initial_employees: 3,
                    hires: 6,
                    audits: 6,
                    seed,
                    ..Default::default()
                },
            );
            let _ = run_deterministic(
                engine.as_ref(),
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            assert_level(engine, level, &format!("phantom seed {seed}"));
        }
    }
}

#[test]
fn hotspot_workload_histories_satisfy_levels() {
    for scheme in schemes() {
        let (engine, level) = ((scheme.make)(), scheme.guarantees);
        let (_, programs) = hotspot_workload(
            engine.as_ref(),
            &HotspotConfig {
                keys: 4,
                txns: 24,
                theta: 1.2,
                reads_per_txn: 2,
                seed: 7,
            },
        );
        let _ = run_deterministic(engine.as_ref(), programs, &DriverConfig::default());
        assert_level(engine, level, "hotspot");
    }
}

#[test]
fn serializable_engines_preserve_bank_invariant() {
    // Not just serializable histories: actually correct balances.
    let serializable = schemes()
        .into_iter()
        .filter(|s| s.guarantees == IsolationLevel::PL3);
    for scheme in serializable {
        for seed in 0..4u64 {
            let engine = (scheme.make)();
            let (table, programs) = bank_workload(
                engine.as_ref(),
                &BankConfig {
                    accounts: 4,
                    initial_balance: 50,
                    transfers: 20,
                    audits: 4,
                    seed,
                },
            );
            let _ = run_deterministic(
                engine.as_ref(),
                programs,
                &DriverConfig {
                    seed,
                    ..Default::default()
                },
            );
            let tx = engine.begin();
            let mut total = 0i64;
            for k in 0..4u64 {
                if let Ok(Some(v)) = engine.read(tx, table, adya::engine::Key(k)) {
                    total += v.as_int().unwrap_or(0);
                }
            }
            let _ = engine.commit(tx);
            assert_eq!(total, 200, "{} seed {seed}", engine.name());
        }
    }
}
