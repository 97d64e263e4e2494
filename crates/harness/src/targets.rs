//! The single registry of `reproduce` targets.
//!
//! Every target the binary dispatches is declared here once, with a
//! one-line description. Unknown-target errors print this generated list
//! instead of a hand-written usage string, so the error message can never
//! go stale against the dispatcher again — a dispatcher arm without a
//! registry row fails the coverage test in this module.

/// One dispatchable `reproduce` target.
pub struct Target {
    pub name: &'static str,
    pub desc: &'static str,
    /// Takes extra positional operands (subcommand-style targets).
    pub operands: &'static str,
}

const fn t(name: &'static str, desc: &'static str) -> Target {
    Target {
        name,
        desc,
        operands: "",
    }
}

const fn sub(name: &'static str, operands: &'static str, desc: &'static str) -> Target {
    Target {
        name,
        desc,
        operands,
    }
}

/// Every target, in help-display order.
pub const TARGETS: &[Target] = &[
    t("all", "every paper figure plus ext-hetero (the default)"),
    t(
        "fig1",
        "motivating example: static splits vs workload phases",
    ),
    t("fig3", "makespan vs slot configuration across systems"),
    t("fig4", "per-phase slot occupancy timelines"),
    t("fig5", "makespan across PUMA workloads"),
    t("fig6", "scaling with cluster size"),
    t("fig7", "slot-manager decision trace"),
    t("fig8", "job-mix throughput comparison"),
    t("fig9", "slot-change counts under the manager"),
    t("headline", "§V-A headline claims only"),
    t("ablations", "slot-manager knob sweeps"),
    t("model-check", "§III-B1 queueing-model check"),
    t("ext-hetero", "extension: heterogeneous nodes"),
    t("ext-stragglers", "extension: straggler mitigation"),
    t("ext-fair", "extension: fair-share scheduling"),
    t("ext-load", "extension: background load"),
    t("ext-faults", "extension: node crash/rejoin faults"),
    t(
        "engine-bench",
        "fixed vs adaptive stepping benchmark -> BENCH_engine.json",
    ),
    t(
        "sweep-bench",
        "batched multi-cell sweep benchmark -> BENCH_sweep.json",
    ),
    t(
        "scale-bench",
        "16..1024-node scale trajectory -> BENCH_scale.json",
    ),
    t(
        "capsule-bench",
        "checkpoint encode/decode benchmark -> BENCH_capsule.json",
    ),
    t(
        "serve-bench",
        "realtime service under multi-tenant load -> BENCH_serve.json",
    ),
    t(
        "bench-all",
        "aggregate results/BENCH_*.json -> BENCH_summary.{json,md}",
    ),
    sub(
        "serve",
        "[ADDR]",
        "realtime service speaking NDJSON over TCP (default 127.0.0.1:7700)",
    ),
    sub(
        "fingerprint",
        "<target>",
        "print a target's representative-run auditor fingerprint",
    ),
    sub("resume", "<CAPSULE>", "resume a capsule to completion"),
    sub("dump", "<CAPSULE>", "print a capsule as compact JSON"),
    sub(
        "bisect",
        "<DIR_A> <DIR_B>",
        "first divergent checkpoint of two capsule streams",
    ),
];

/// The generated target list, for unknown-target errors and `--help`.
pub fn render_list() -> String {
    let width = TARGETS
        .iter()
        .map(|t| t.name.len() + 1 + t.operands.len())
        .max()
        .unwrap_or(0);
    let mut out = String::from("targets:\n");
    for t in TARGETS {
        let head = if t.operands.is_empty() {
            t.name.to_string()
        } else {
            format!("{} {}", t.name, t.operands)
        };
        out.push_str(&format!("  {head:width$}  {}\n", t.desc));
    }
    out
}

/// The error message for an unrecognised target: nearest-name hint (plain
/// prefix/containment match) plus the full generated list.
pub fn unknown(name: &str) -> String {
    let mut msg = format!("unknown target: {name}\n");
    let near: Vec<&str> = TARGETS
        .iter()
        .map(|t| t.name)
        .filter(|t| t.contains(name) || name.contains(t))
        .collect();
    if !near.is_empty() {
        msg.push_str(&format!("did you mean {}?\n", near.join(" or ")));
    }
    msg.push('\n');
    msg.push_str(&render_list());
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_mentions_every_target_once() {
        let list = render_list();
        for t in TARGETS {
            assert!(list.contains(t.name), "{} missing from list", t.name);
            assert!(!t.desc.is_empty());
        }
        let mut names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TARGETS.len(), "duplicate target names");
    }

    #[test]
    fn unknown_suggests_near_misses() {
        let msg = unknown("fig");
        assert!(msg.contains("unknown target: fig"));
        assert!(msg.contains("did you mean"));
        assert!(msg.contains("fig1"));
        let msg = unknown("zzz");
        assert!(!msg.contains("did you mean"));
        assert!(msg.contains("serve-bench"));
    }
}
