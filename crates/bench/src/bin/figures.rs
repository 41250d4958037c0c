//! Regenerate every table and figure of the SamzaSQL evaluation (§5).
//!
//! ```text
//! cargo run -p samzasql-bench --release --bin figures -- --fig all
//! cargo run -p samzasql-bench --release --bin figures -- --fig 5a --messages 500000
//! ```
//!
//! Absolute numbers depend on the host; the paper's claims are about
//! *shape*: SamzaSQL 30–40% below native on filter/project, ~2× below on
//! join, roughly equal (KV-dominated) on sliding windows, and sublinear
//! container scaling at a fixed partition count.

use samzasql_bench::harness::{
    measure_broker_msgsize, measure_codecs, measure_native, measure_samzasql,
    measure_samzasql_direct, measure_samzasql_profiled, EvalQuery, MsgSizeRun, WINDOW_RANGE_MS,
};
use samzasql_bench::usability::usability_table;
use samzasql_core::profile::NodeStats;
use samzasql_workload::OrdersSpec;

/// Interleaved plain/profiled pairs the overhead check takes its median
/// over.
const OVERHEAD_PAIRS: usize = 21;

struct Args {
    fig: String,
    messages: usize,
    partitions: u32,
    containers: Vec<u32>,
    /// Where the machine-readable results go.
    json_out: String,
}

/// One (containers, native, samzasql) measurement row.
struct SeriesPoint {
    containers: u32,
    native_msgs_per_sec: f64,
    samzasql_msgs_per_sec: f64,
}

/// Collected results for one evaluation query.
struct QueryResults {
    query: EvalQuery,
    messages: usize,
    series: Vec<SeriesPoint>,
    /// Per-operator totals from a single-container profiled run, sourced
    /// from the observability registry.
    operators: Vec<NodeStats>,
}

fn parse_args() -> Args {
    let mut fig = "all".to_string();
    let mut messages = 200_000;
    let mut partitions = 32;
    let mut containers = vec![1, 2, 4, 8];
    let mut json_out = "BENCH_figures.json".to_string();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fig" => {
                fig = argv.get(i + 1).cloned().unwrap_or_else(|| "all".into());
                i += 2;
            }
            "--messages" => {
                messages = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(messages);
                i += 2;
            }
            "--partitions" => {
                partitions = argv
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(partitions);
                i += 2;
            }
            "--containers" => {
                containers = argv
                    .get(i + 1)
                    .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
                    .unwrap_or(containers);
                i += 2;
            }
            "--json-out" => {
                json_out = argv.get(i + 1).cloned().unwrap_or_else(|| json_out.clone());
                i += 2;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    Args {
        fig,
        messages,
        partitions,
        containers,
        json_out,
    }
}

/// Input messages a figure feeds `query` when run with `--messages
/// messages`. KV-heavy workloads use fewer messages to keep runs short.
fn figure_messages(query: EvalQuery, messages: usize) -> usize {
    match query {
        EvalQuery::SlidingWindow => messages / 4,
        EvalQuery::Join => messages / 2,
        _ => messages,
    }
    .max(1_000)
}

/// Figure 6 times a sliding window only if its orders span more than the
/// window's RANGE; otherwise nothing ever expires. Errors with the smallest
/// `--messages` whose orders do.
fn check_window_slides(messages: usize) -> Result<(), String> {
    let inter_arrival_ms = OrdersSpec::default().inter_arrival_ms;
    let span_ms =
        |m: usize| (figure_messages(EvalQuery::SlidingWindow, m) as i64 - 1) * inter_arrival_ms;
    if span_ms(messages) > WINDOW_RANGE_MS {
        return Ok(());
    }
    // The fewest orders whose span exceeds the RANGE, as a message count.
    let orders = (WINDOW_RANGE_MS / inter_arrival_ms + 2) as usize;
    let smallest = 4 * orders;
    Err(format!(
        "figure 6: --messages {messages} feeds the window {} orders {inter_arrival_ms} ms apart, \
spanning {} ms, which does not exceed its {WINDOW_RANGE_MS} ms RANGE, so the window would \
never slide; use --messages {smallest} or more",
        figure_messages(EvalQuery::SlidingWindow, messages),
        span_ms(messages),
    ))
}

fn throughput_figure(query: EvalQuery, args: &Args) -> QueryResults {
    let n = figure_messages(query, args.messages);
    println!(
        "\n== Figure {}: {} throughput ({} msgs, {} partitions) ==",
        query.figure(),
        query.name(),
        n,
        args.partitions
    );
    println!("{}", query.sql());
    println!(
        "{:>11} {:>18} {:>18} {:>12}",
        "containers", "native (msg/s)", "samzasql (msg/s)", "sql/native"
    );
    let mut series = Vec::new();
    for &c in &args.containers {
        let native = measure_native(query, c, args.partitions, n);
        let sql = measure_samzasql(query, c, args.partitions, n);
        println!(
            "{:>11} {:>18.0} {:>18.0} {:>11.2}x",
            c,
            native.msgs_per_sec,
            sql.msgs_per_sec,
            sql.msgs_per_sec / native.msgs_per_sec
        );
        series.push(SeriesPoint {
            containers: c,
            native_msgs_per_sec: native.msgs_per_sec,
            samzasql_msgs_per_sec: sql.msgs_per_sec,
        });
    }
    let expectation = match query {
        EvalQuery::Filter | EvalQuery::Project => {
            "paper: SamzaSQL 30-40% below native (ratio ~0.60-0.70), sublinear scaling"
        }
        EvalQuery::Join => "paper: SamzaSQL ~2x slower than native (ratio ~0.50)",
        EvalQuery::SlidingWindow => {
            "paper: both comparable; throughput dominated by key-value store access"
        }
    };
    println!("  [{expectation}]");

    // Per-operator breakdown from one profiled single-container run —
    // where the pipeline's time actually goes, straight from the registry.
    let (_, operators) = measure_samzasql_profiled(query, 1, args.partitions, n);
    let total_busy: u64 = operators.iter().map(|o| o.busy_ns).sum();
    println!(
        "  {:>22} {:>12} {:>12} {:>10} {:>10}",
        "operator", "rows in", "rows out", "batches", "time"
    );
    for op in &operators {
        println!(
            "  {:>22} {:>12} {:>12} {:>10} {:>9.1}%",
            op.name,
            op.rows_in,
            op.rows_out,
            op.batches,
            100.0 * op.busy_ns as f64 / total_busy.max(1) as f64
        );
    }
    QueryResults {
        query,
        messages: n,
        series,
        operators,
    }
}

/// Write the collected throughput results as JSON so before/after comparisons
/// can be scripted. Hand-rolled: the bench crate deliberately takes no
/// serialization dependency.
fn write_figures_json(args: &Args, results: &[QueryResults]) {
    if results.is_empty() {
        return;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"partitions\": {},\n", args.partitions));
    out.push_str("  \"queries\": {\n");
    for (qi, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"figure\": \"{}\",\n      \"messages\": {},\n      \"series\": [\n",
            r.query.name(),
            r.query.figure(),
            r.messages
        ));
        for (i, p) in r.series.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"containers\": {}, \"native_msgs_per_sec\": {:.0}, \"samzasql_msgs_per_sec\": {:.0}}}{}\n",
                p.containers,
                p.native_msgs_per_sec,
                p.samzasql_msgs_per_sec,
                if i + 1 < r.series.len() { "," } else { "" }
            ));
        }
        out.push_str("      ],\n      \"operators\": [\n");
        for (i, op) in r.operators.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"op\": \"{}\", \"rows_in\": {}, \"rows_out\": {}, \"batches\": {}, \"busy_ns\": {}}}{}\n",
                op.name,
                op.rows_in,
                op.rows_out,
                op.batches,
                op.busy_ns,
                if i + 1 < r.operators.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if qi + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    match std::fs::write(&args.json_out, &out) {
        Ok(()) => println!("\nwrote {}", args.json_out),
        Err(e) => eprintln!("failed to write {}: {e}", args.json_out),
    }
}

/// The message-size table, then its two checks: 100-byte messages give
/// more messages/s and 10 KB messages more MB/s. An inverted result fails
/// the run.
fn msgsize_table() {
    println!("\n== §5.1 message-size rationale (broker produce+consume) ==");
    println!("{:>12} {:>16} {:>12}", "msg bytes", "messages/s", "MB/s");
    let runs: Vec<MsgSizeRun> = [10usize, 100, 1_000, 10_000]
        .into_iter()
        .map(|size| measure_broker_msgsize(size, 50_000_000))
        .collect();
    for run in &runs {
        println!(
            "{:>12} {:>16.0} {:>12.1}",
            run.message_bytes,
            run.msgs_per_sec(),
            run.mb_per_sec()
        );
    }
    println!("  [paper: 100B messages balance msgs/s vs MB/s; >1KB messages cut msgs/s ~7x]");
    let (small, large) = (&runs[1], &runs[3]);
    assert!(
        small.msgs_per_sec() > large.msgs_per_sec(),
        "inverted: 100 B messages gave fewer msgs/s than 10 KB messages"
    );
    assert!(
        large.mb_per_sec() > small.mb_per_sec(),
        "inverted: 10 KB messages gave fewer MB/s than 100 B messages"
    );
    println!("  [both orderings hold]");
}

fn ablation(args: &Args) {
    // §7 future-work item 5, implemented and measured: a SamzaSQL-specific
    // code path that avoids the AvroToArray/ArrayToAvro steps.
    println!("\n== Ablation (§7 item 5): direct SamzaSQL Data API vs prototype path ==");
    println!(
        "{:>10} {:>16} {:>20} {:>18} {:>12}",
        "query", "native (msg/s)", "samzasql-proto", "samzasql-direct", "direct/nat"
    );
    for q in [EvalQuery::Filter, EvalQuery::Project] {
        let n = args.messages;
        let native = measure_native(q, 1, args.partitions, n);
        let proto = measure_samzasql(q, 1, args.partitions, n);
        let direct = measure_samzasql_direct(q, 1, args.partitions, n);
        println!(
            "{:>10} {:>16.0} {:>20.0} {:>18.0} {:>11.2}x",
            q.name(),
            native.msgs_per_sec,
            proto.msgs_per_sec,
            direct.msgs_per_sec,
            direct.msgs_per_sec / native.msgs_per_sec
        );
    }
    println!(
        "  [paper §7: removing the message-format transformations should bring \
SamzaSQL close to the native API]"
    );

    // The codec gap behind the join's deficit, and the per-message work the
    // scan and insert operators add.
    let c = measure_codecs(args.messages);
    println!("\n{:>38} {:>12}", "codec step (Orders record)", "ns/record");
    for (step, ns) in [
        ("avro encode", c.avro_encode_ns),
        ("object encode", c.object_encode_ns),
        ("avro decode", c.avro_decode_ns),
        ("object decode", c.object_decode_ns),
        (
            "AvroToArray -> ArrayToAvro round trip",
            c.avro_array_roundtrip_ns,
        ),
    ] {
        println!("{step:>38} {ns:>12.0}");
    }
    println!(
        "  [paper §5.1: Kryo (object) deserialization is more than 2x slower than Avro; \
measured object/avro decode {:.2}x]",
        c.object_decode_ns / c.avro_decode_ns
    );
}

/// Observability overhead budget: a metrics-enabled filter run must stay
/// within 5% of the metrics-disabled throughput. Plain and profiled runs
/// alternate in pairs, the pair's order swapping each time because the
/// second run of a pair tends to be slower, and the check takes the median
/// of the per-pair ratios: single runs of this short job swing by ±10% or
/// more, so no one run may decide it.
fn overhead(args: &Args) {
    println!("\n== Observability overhead (filter shape, budget < 5%) ==");
    let n = args.messages.max(1_000);
    let plain = || measure_samzasql(EvalQuery::Filter, 1, args.partitions, n).msgs_per_sec;
    let profiled = || {
        measure_samzasql_profiled(EvalQuery::Filter, 1, args.partitions, n)
            .0
            .msgs_per_sec
    };
    println!(
        "{:>6} {:>18} {:>18} {:>10}",
        "pair", "disabled (msg/s)", "enabled (msg/s)", "overhead"
    );
    let mut ratios = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let (off, on) = if pair % 2 == 0 {
            let off = plain();
            (off, profiled())
        } else {
            let on = profiled();
            (plain(), on)
        };
        println!(
            "{:>6} {:>18.0} {:>18.0} {:>9.1}%",
            pair + 1,
            off,
            on,
            100.0 * (1.0 - on / off)
        );
        ratios.push(on / off);
    }
    ratios.sort_by(f64::total_cmp);
    let overhead = 1.0 - ratios[OVERHEAD_PAIRS / 2];
    println!("{:>46} {:>9.1}%", "median overhead", 100.0 * overhead);
    assert!(
        overhead < 0.05,
        "metrics-enabled overhead {:.1}% (median of {OVERHEAD_PAIRS} pairs) exceeds the 5% budget",
        100.0 * overhead
    );
    println!("  [within budget]");
}

fn usability() {
    println!("\n== §5.1 usability: lines of code per query ==");
    println!(
        "{:>16} {:>10} {:>14} {:>22}",
        "query", "SQL lines", "native lines", "paper (native Java)"
    );
    for row in usability_table() {
        println!(
            "{:>16} {:>10} {:>14} {:>22}",
            row.query, row.sql_lines, row.native_lines, row.paper_native_lines
        );
    }
    println!("  [paper: SQL expresses each query in a couple of lines]");
}

fn main() {
    let args = parse_args();
    if matches!(args.fig.as_str(), "6" | "all") {
        if let Err(e) = check_window_slides(args.messages) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let mut results = Vec::new();
    match args.fig.as_str() {
        "5a" => results.push(throughput_figure(EvalQuery::Filter, &args)),
        "5b" => results.push(throughput_figure(EvalQuery::Project, &args)),
        "5c" => results.push(throughput_figure(EvalQuery::Join, &args)),
        "6" => results.push(throughput_figure(EvalQuery::SlidingWindow, &args)),
        "msgsize" => msgsize_table(),
        "usability" => usability(),
        "ablation" => ablation(&args),
        // Runs below, after the JSON is written.
        "overhead" => {}
        "all" => {
            results.push(throughput_figure(EvalQuery::Filter, &args));
            results.push(throughput_figure(EvalQuery::Project, &args));
            results.push(throughput_figure(EvalQuery::Join, &args));
            results.push(throughput_figure(EvalQuery::SlidingWindow, &args));
            msgsize_table();
            usability();
            ablation(&args);
        }
        other => {
            eprintln!(
                "unknown figure {other}; use 5a|5b|5c|6|msgsize|usability|ablation|overhead|all"
            );
            std::process::exit(2);
        }
    }
    // The throughput tables are written before the overhead check, so a
    // run that fails the budget still leaves its own JSON behind.
    write_figures_json(&args, &results);
    if matches!(args.fig.as_str(), "overhead" | "all") {
        overhead(&args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_check_names_the_smallest_message_count_that_slides() {
        // 120 000 messages feed 30 000 orders 10 ms apart: 299 990 ms.
        let err = check_window_slides(120_000).unwrap_err();
        assert!(err.contains("use --messages 120008 or more"), "{err}");
        assert!(check_window_slides(120_007).is_err());
        assert!(check_window_slides(120_008).is_ok());
        assert!(check_window_slides(200_000).is_ok(), "the default slides");
    }
}
