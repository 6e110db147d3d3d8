//! End-to-end engine soundness: every history an engine commits must
//! satisfy the isolation level the engine promises — across schemes,
//! workloads and seeds. The engines never consult the checker, so
//! this is the repository's strongest integration property.

use adya::core::{classify, IsolationLevel};
use adya::engine::Engine;
use adya::online::{GcConfig, OnlineChecker};

mod common;
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

/// No engine that installs at commit reads a version superseded before
/// its reader began — the read a collecting streaming checker retires
/// (DESIGN.md, "Watermark GC"): each scheme's recorded history, streamed
/// through a checker with a collection pass after every event, ticks no
/// stale read, on the mixed workload with and without deletes and on
/// the hotspot one. The SGT certifier installs a write as it happens,
/// so its version order is write order; where two writers of a key
/// commit in the other order, a later reader reads the write-order
/// newest version, which the checker's commit order has superseded.
/// Those reads tick, each once, and nothing else does.
///
/// And collection changes no finding on them: at a pass after every
/// event and at one every 64, the collecting checker says every verdict
/// line the exact checker (`GcConfig { enabled: false }`) says but for
/// `pruned` and `live_txns` — but on the SGT certifiers' histories,
/// where it may miss a cycle through a retired read and fires nothing
/// the exact checker does not.
#[test]
fn engine_histories_make_no_retired_read() {
    let run = |h: &adya::history::History, enabled: bool, interval: u64| {
        let mut checker = OnlineChecker::with_gc(GcConfig { enabled, interval });
        let mut lines: Vec<String> = (h.events().iter())
            .filter_map(|e| checker.ingest(e))
            .map(|v| common::finding_of_line(&v.to_json()))
            .collect();
        let end = checker.finish();
        lines.push(common::finding_of_line(&end.to_json()));
        (end, lines)
    };
    let mut sgt_retired = 0;
    for scheme in schemes() {
        let write_order = scheme.name.starts_with("SGT-");
        for seed in 0..6u64 {
            let engine = (scheme.make)();
            let programs = if seed < 4 {
                let delete_prob = if seed % 2 == 0 { 0.0 } else { 0.3 };
                let cfg = MixedConfig {
                    keys: 6,
                    txns: 24,
                    ops_per_txn: 4,
                    write_ratio: 0.6,
                    abort_prob: 0.1,
                    delete_prob,
                    theta: 0.9,
                    seed,
                };
                mixed_workload(engine.as_ref(), &cfg).1
            } else {
                let cfg = HotspotConfig {
                    keys: 4,
                    txns: 24,
                    theta: 1.2,
                    reads_per_txn: 2,
                    seed,
                };
                hotspot_workload(engine.as_ref(), &cfg).1
            };
            let driver = DriverConfig {
                seed,
                ..Default::default()
            };
            let _ = run_deterministic(engine.as_ref(), programs, &driver);
            let h = engine.finalize();
            let retired = common::retired_reads(h.events());
            let (exact, exact_lines) = run(&h, false, 1);
            for interval in [1, 64] {
                let (end, lines) = run(&h, true, interval);
                let what = format!("{} seed {seed}, interval {interval}", scheme.name);
                assert_eq!(end.stale_refs, retired, "{what}:\n{h}");
                if write_order {
                    let fired = end.fired.iter().all(|k| exact.fired.contains(k));
                    assert!(fired, "{what}: {:?} beyond {:?}", end.fired, exact.fired);
                } else {
                    assert_eq!(lines, exact_lines, "{what}:\n{h}");
                }
            }
            if write_order {
                sgt_retired += retired;
            } else {
                assert_eq!(retired, 0, "{} seed {seed}:\n{h}", scheme.name);
            }
        }
    }
    eprintln!("the SGT certifiers made {sgt_retired} retired reads");
}
