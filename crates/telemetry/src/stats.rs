//! Rendering a saved telemetry file — the `agave stats` verb.
//!
//! Reads the native schema emitted by
//! [`crate::TelemetrySnapshot::to_json`], rebuilds the span tree
//! (children sorted by explicit `order`, then start time, then id — so
//! the listing is deterministic even though work-stealing completion
//! order is not), and renders it alongside the busiest histograms, the
//! counters and the gauges.

use crate::format::{fmt_count, fmt_ns, fmt_rate, refs_per_sec};
use crate::metrics::Histogram;
use crate::parse::Value;

struct SpanRow {
    id: u64,
    parent: u64,
    name: String,
    label: String,
    start_ns: u64,
    wall_ns: u64,
    thread: u64,
    refs: u64,
    order: u64,
}

fn span_rows(doc: &Value) -> Vec<SpanRow> {
    let Some(spans) = doc.get("spans").and_then(Value::as_array) else {
        return Vec::new();
    };
    spans
        .iter()
        .filter_map(|s| {
            let field = |k: &str| s.get(k).and_then(Value::as_u64).unwrap_or(0);
            Some(SpanRow {
                id: s.get("id").and_then(Value::as_u64)?,
                parent: field("parent"),
                name: s.get("name").and_then(Value::as_str)?.to_string(),
                label: s
                    .get("label")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                start_ns: field("start_ns"),
                wall_ns: field("end_ns").saturating_sub(field("start_ns")),
                thread: field("thread"),
                refs: field("refs"),
                order: field("order"),
            })
        })
        .collect()
}

fn render_span_tree(rows: &[SpanRow], out: &mut String) {
    if rows.is_empty() {
        out.push_str("span tree: (no spans recorded)\n");
        return;
    }
    out.push_str("span tree\n");
    let ids: std::collections::BTreeSet<u64> = rows.iter().map(|r| r.id).collect();
    // Children of each parent (0 / unknown parent = root), sorted
    // deterministically.
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by_key(|&i| (rows[i].order, rows[i].start_ns, rows[i].id));
    let mut children: std::collections::BTreeMap<u64, Vec<usize>> =
        std::collections::BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for &i in &order {
        let parent = rows[i].parent;
        if parent == 0 || !ids.contains(&parent) {
            roots.push(i);
        } else {
            children.entry(parent).or_default().push(i);
        }
    }
    fn emit(
        rows: &[SpanRow],
        children: &std::collections::BTreeMap<u64, Vec<usize>>,
        i: usize,
        depth: usize,
        out: &mut String,
    ) {
        let r = &rows[i];
        let head = if r.label.is_empty() {
            r.name.clone()
        } else {
            format!("{} {}", r.name, r.label)
        };
        let mut line = format!("{:indent$}{head}", "", indent = depth * 2);
        while line.chars().count() < 40 {
            line.push(' ');
        }
        line.push_str(&format!("{:>10}", fmt_ns(r.wall_ns)));
        if r.refs > 0 {
            line.push_str(&format!(
                "  {:>8} refs  {:>10}",
                fmt_count(r.refs),
                fmt_rate(refs_per_sec(r.refs, r.wall_ns))
            ));
        }
        line.push_str(&format!("  [t{}]", r.thread));
        out.push_str(&line);
        out.push('\n');
        if let Some(kids) = children.get(&r.id) {
            for &k in kids {
                emit(rows, children, k, depth + 1, out);
            }
        }
    }
    for &root in &roots {
        emit(rows, &children, root, 0, out);
    }
}

fn render_histograms(doc: &Value, top: usize, out: &mut String) {
    let Some(hists) = doc.get("histograms").and_then(Value::as_array) else {
        return;
    };
    type HistRow<'a> = (&'a str, u64, u64, Vec<(usize, u64)>);
    let mut rows: Vec<HistRow> = hists
        .iter()
        .filter_map(|h| {
            let buckets = h
                .get("buckets")
                .and_then(Value::as_array)?
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                })
                .collect();
            Some((
                h.get("name").and_then(Value::as_str)?,
                h.get("count").and_then(Value::as_u64)?,
                h.get("sum").and_then(Value::as_u64)?,
                buckets,
            ))
        })
        .filter(|(_, count, _, _)| *count > 0)
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out.push_str("\ntop histograms (by sample count)\n");
    out.push_str(&format!(
        "{:<28} {:>10} {:>12} {:>12} {:>12}\n",
        "name", "count", "mean", "~p50", "~p99"
    ));
    for (name, count, sum, buckets) in rows.into_iter().take(top) {
        let quantile = |q: f64| -> u64 {
            let rank = (q * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for &(i, c) in &buckets {
                seen += c;
                if seen >= rank {
                    return Histogram::bucket_hi(i);
                }
            }
            buckets.last().map_or(0, |&(i, _)| Histogram::bucket_hi(i))
        };
        out.push_str(&format!(
            "{:<28} {:>10} {:>12.1} {:>12} {:>12}\n",
            name,
            fmt_count(count),
            sum as f64 / count as f64,
            quantile(0.5),
            quantile(0.99),
        ));
    }
}

/// Renders the non-zero entries of the `counters` or `gauges` object.
fn render_values(doc: &Value, key: &str, out: &mut String) {
    let Some(values) = doc.get(key).and_then(Value::as_object) else {
        return;
    };
    let mut rows: Vec<(&String, u64)> = values
        .iter()
        .filter_map(|(name, v)| v.as_u64().map(|v| (name, v)))
        .filter(|(_, v)| *v > 0)
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    out.push_str(&format!("\n{key}\n"));
    for (name, v) in rows {
        out.push_str(&format!("{:<28} {:>14}\n", name, v));
    }
}

/// Renders a parsed telemetry document: span tree, top histograms,
/// non-zero counters and gauges. Errors on schema mismatch.
pub fn render(doc: &Value) -> Result<String, String> {
    let version = doc
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("not a telemetry file: missing schema_version")?;
    if version != crate::export::SCHEMA_VERSION {
        return Err(format!(
            "unsupported telemetry schema_version {version} (expected {})",
            crate::export::SCHEMA_VERSION
        ));
    }
    let mut out = String::new();
    render_span_tree(&span_rows(doc), &mut out);
    render_histograms(doc, 5, &mut out);
    render_values(doc, "counters", &mut out);
    render_values(doc, "gauges", &mut out);
    Ok(out)
}

/// Parses and renders a telemetry JSON string in one step.
pub fn render_str(json: &str) -> Result<String, String> {
    render(&crate::parse::parse(json)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::TelemetrySnapshot;
    use crate::metrics::{HistogramData, MetricsSnapshot};
    use crate::span::SpanRecord;

    fn span(id: u64, parent: u64, name: &'static str, label: &str, order: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            label: label.to_string(),
            start_ns: 1_000 * id,
            end_ns: 1_000 * id + 5_000_000,
            thread: 0,
            refs: 1_000_000,
            order,
        }
    }

    #[test]
    fn renders_a_deterministic_tree_and_tables() {
        let snap = TelemetrySnapshot {
            metrics: MetricsSnapshot {
                counters: vec![("trace.sink_batches".into(), 41)],
                gauges: vec![("sweep.shapes".into(), 14)],
                histograms: vec![HistogramData {
                    name: "trace.batch_blocks".into(),
                    count: 41,
                    sum: 41_000,
                    buckets: vec![(10, 41)],
                }],
            },
            // Completion order is children-first and scrambled; render
            // order must follow `order`, not input order.
            spans: vec![
                span(3, 1, "run", "b.workload", 2),
                span(2, 1, "run", "a.workload", 1),
                span(1, 0, "suite", "", 0),
            ],
        };
        let text = render_str(&snap.to_json()).unwrap();
        let suite_pos = text.find("suite").unwrap();
        let a_pos = text.find("run a.workload").unwrap();
        let b_pos = text.find("run b.workload").unwrap();
        assert!(suite_pos < a_pos && a_pos < b_pos, "tree order:\n{text}");
        assert!(text.contains("trace.batch_blocks"), "{text}");
        assert!(text.contains("trace.sink_batches"), "{text}");
        assert!(text.contains("gauges\nsweep.shapes"), "{text}");
        assert!(text.contains("5.0 ms"), "{text}");
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        assert!(render_str("{\"schema_version\":99}").is_err());
        assert!(render_str("{}").is_err());
        assert!(render_str("not json").is_err());
    }
}
