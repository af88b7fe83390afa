use perfbench::gen::{Population, Traffic, TENANTS};
use perfbench::report::Outcome;
use perfbench::stats::{median, percentile};
use perfbench::trace::{self_times, Span, Tracer};
use perfbench::{run, Params, Workload, END_TO_END, PER_LAYER, UNGATED};
use std::time::Instant;

fn fingerprint(seed: u64) -> Vec<u8> {
    let populations: Vec<Population> = (0..2)
        .map(|s| Population::generate(seed, 1 + s, 20, 400))
        .collect();
    let route: Vec<usize> = (0..TENANTS).map(|t| t % 2).collect();
    let traffic = Traffic::generate(seed, &populations, &route, 300, 500);
    let mut bytes = Vec::new();
    for p in &populations {
        p.fingerprint(&mut bytes);
    }
    traffic.fingerprint(&mut bytes);
    bytes
}

#[test]
fn a_seed_fixes_every_generated_problem_and_batch() {
    assert_eq!(fingerprint(7), fingerprint(7));
    assert_ne!(fingerprint(7), fingerprint(8));
}

#[test]
fn traffic_follows_the_routing_table_and_reads_only_surviving_seed_functions() {
    let populations: Vec<Population> = (0..2)
        .map(|s| Population::generate(3, 1 + s, 10, 200))
        .collect();
    let route: Vec<usize> = (0..TENANTS).map(|t| usize::from(t % 3 == 0)).collect();
    let traffic = Traffic::generate(3, &populations, &route, 400, 400);
    assert_eq!(traffic.acks.len(), 400);
    assert_eq!(traffic.reads.len(), 400);
    for ack in &traffic.acks {
        assert_eq!(ack.shard, route[ack.tenant as usize]);
    }
    for read in &traffic.reads {
        assert_eq!(read.shard, route[read.tenant as usize]);
        let removed = traffic.acks.iter().any(|a| {
            a.shard == read.shard
                && a.op
                    == pref_engine::UpdateOp::RemoveFunction(pref_assign::FunctionId(
                        read.function as usize,
                    ))
        });
        assert!(
            read.function < 10 && !removed,
            "read of a departed function"
        );
    }
}

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&sample, 0.99).expect("1,000 samples support p99");
    assert_eq!((p99.value, p99.samples, p99.beyond), (990.0, 1000, 10));
    assert!(percentile(&sample[..999], 0.99).is_none());
    let p50 = percentile(&sample[..20], 0.5).expect("20 samples support p50");
    assert_eq!((p50.value, p50.beyond), (10.0, 10));
    assert!(percentile(&sample[..19], 0.5).is_none());
    assert!(percentile(&[], 0.5).is_none());
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
}

#[test]
fn unsupported_percentiles_are_left_out_with_a_note() {
    let mut out = Outcome::default();
    let sample: Vec<f64> = (0..50).map(f64::from).collect();
    assert!(out.percentile("x_p50_us", &sample, 0.5, "us"));
    assert!(!out.percentile("x_p99_us", &sample, 0.99, "us"));
    assert_eq!(out.metrics.len(), 1);
    assert!(out.notes[0].contains("x_p99_us"));
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        parent,
        request: 0,
        name: "s",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = vec![
        span(None, 0, 100),     // 0: root
        span(Some(0), 10, 30),  // 1
        span(Some(0), 20, 50),  // 2: overlaps 1
        span(Some(0), 90, 120), // 3: runs past the root's end
        span(Some(1), 15, 20),  // 4: grandchild, not the root's child
        span(None, 200, 260),   // 5: a second root, no children
    ];
    assert_eq!(self_times(&spans), vec![50, 15, 30, 30, 5, 60]);
    let tracer = Tracer::from_spans(Instant::now(), spans);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("span-file");
    let path = dir.join("spans.tsv");
    tracer.write_tsv(&path).expect("span file written");
    let text = std::fs::read_to_string(&path).expect("span file read");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines[0],
        "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns"
    );
    assert_eq!(lines[1], "0\t-\t0\ts\t0\t100\t50");
    assert_eq!(lines[5], "4\t1\t0\ts\t15\t20\t5");
}

#[test]
fn absorbed_spans_keep_their_parents() {
    let epoch = Instant::now();
    let mut a = Tracer::new(epoch);
    let root = a.open("a", None, 1);
    a.close(root);
    let mut b = a.sibling();
    let parent = b.open("b", None, 2);
    b.leaf("c", Some(parent), 2, || ());
    b.close(parent);
    a.absorb(b);
    assert_eq!(a.spans()[2].parent, Some(1));
    assert_eq!(a.spans()[2].name, "c");
}

#[test]
fn a_failed_check_makes_the_result_incorrect() {
    let mut out = Outcome::default();
    out.check("holds", true, "");
    out.metric("setup_s", 0.5, "s", "");
    out.metric("read_p50_us", 60.0, "us", "");
    assert!(out
        .report_lines(&END_TO_END)
        .iter()
        .any(|l| l.contains("read_p50_us") && l.ends_with("[not gated]")));
    assert!(out
        .json_line(&END_TO_END)
        .starts_with("{\"correct\": true, "));
    out.check("breaks", false, "blocking pair");
    assert!(!out.correct());
    assert!(out
        .json_line(&END_TO_END)
        .starts_with("{\"correct\": false, "));
    assert!(out
        .report_lines(&END_TO_END)
        .iter()
        .any(|l| l.contains("FAIL breaks")));
}

fn smoke(workload: Workload, traced: bool) -> Outcome {
    let params = Params {
        seed: 5,
        seconds: 1.0,
        state_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{traced}", workload.name())),
        smoke: true,
    };
    let out = run(workload, &params, traced).expect("smoke run starts");
    let failed: Vec<_> = out.checks.iter().filter(|c| !c.ok).collect();
    assert!(failed.is_empty(), "{}: {failed:?}", workload.name());
    assert!(!out.checks.is_empty());
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    let names: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().chain(&UNGATED).copied().collect()
    };
    for m in &out.metrics {
        assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "{}",
            m.name
        );
    }
    out
}

#[test]
fn batch_paper_smoke_passes_its_checks() {
    let out = smoke(Workload::BatchPaper, false);
    for (name, _) in END_TO_END {
        assert!(out.value(name).is_some(), "{name} missing");
    }
    let line = out.json_line(&END_TO_END);
    assert!(END_TO_END
        .iter()
        .all(|(n, _)| line.contains(&format!("\"{n}\""))));
    assert!(!line.contains("read_p50_us"));
    let traced = smoke(Workload::BatchPaper, true);
    assert!(traced.value("core.sb.loops").unwrap() > 0.0);
    assert_eq!(traced.value("engine.new_s"), Some(0.0));
}

#[test]
fn serve_publish_smoke_passes_its_checks() {
    let out = smoke(Workload::ServePublish, false);
    assert!(out
        .checks
        .iter()
        .any(|c| c.name.ends_with("snapshot_verify")));
    let traced = smoke(Workload::ServePublish, true);
    assert_eq!(traced.value("wal.fsync_us.p50"), Some(0.0));
    assert!(traced.value("engine.export_us.p50").unwrap() > 0.0);
}

#[test]
fn serve_repair_smoke_passes_its_checks() {
    let out = smoke(Workload::ServeRepair, false);
    // Windows over the seed state and after the traffic segments each
    // recover and re-solve; the ack stream stays in order across restarts,
    // or the shard rejects ops and `smoke` sees failures.
    for check in [
        "serve.seed.recovery1",
        "serve.segment0.recovery1",
        "serve.segment0.shard0.sb_equals_engine",
    ] {
        assert!(out.checks.iter().any(|c| c.name == check), "{check}");
    }
    let traced = smoke(Workload::ServeRepair, true);
    assert!(traced.value("wal.fsync_us.p50").unwrap() > 0.0);
    assert!(traced.value("wal.bytes_per_ack").unwrap() > 0.0);
}
