//! The alignment + residual engine behind `cxlg validate`.
//!
//! [`Campaign::load`] reads a campaign directory (result JSONs plus the
//! optional `manifest.json`), `extract` reduces each figure's
//! free-form `series` JSON to named scalars and `(x, y)` series, and
//! [`evaluate`] walks the reference [`Check`] table computing per-point
//! residuals and PASS / FLAG / SKIP verdicts. Everything is pure over
//! the loaded bytes, so the golden-file test can pin the whole pipeline
//! on a checked-in campaign.

use super::reference::{checks_for, Check, Expect, FIGURES};
use cxlg_core::metrics::try_geometric_mean;
use cxlg_core::runner::interp_series;
use cxlg_link::pcie::PcieGen;
use cxlg_model::requirements::{emogi_requirements, requirements};
use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A loaded campaign: run configuration plus every result `series`
/// needed by the reference table.
pub struct Campaign {
    /// Directory the campaign was loaded from.
    pub dir: PathBuf,
    /// log2 vertex count the campaign ran at (from the result headers).
    pub scale: u32,
    /// Generator seed the campaign ran with.
    pub seed: u64,
    series: BTreeMap<String, Value>,
}

impl Campaign {
    /// Load every reference-covered result file from `dir`. Fails with
    /// a description naming the first missing/corrupt file — a campaign
    /// that cannot cover all reproduced figures is not validatable.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut series = BTreeMap::new();
        let mut config: Option<(u32, u64)> = None;
        for figure in FIGURES {
            if *figure == "eq6" {
                continue; // recomputed from cxlg-model, no result file
            }
            let path = dir.join(format!("{figure}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let v: Value = serde_json::from_str(&text)
                .map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
            let header = get(&v, "header").ok_or_else(|| format!("{figure}.json: no header"))?;
            let scale = get_u64(header, "scale")
                .ok_or_else(|| format!("{figure}.json: header lacks scale"))? as u32;
            let seed = get_u64(header, "seed")
                .ok_or_else(|| format!("{figure}.json: header lacks seed"))?;
            match config {
                None => config = Some((scale, seed)),
                Some((s0, d0)) if (s0, d0) != (scale, seed) => {
                    return Err(format!(
                        "{figure}.json ran at scale {scale}/seed {seed:#x}, but earlier \
                         results ran at scale {s0}/seed {d0:#x} — not one campaign"
                    ));
                }
                Some(_) => {}
            }
            let s = get(&v, "series").ok_or_else(|| format!("{figure}.json: no series"))?;
            series.insert(figure.to_string(), s.clone());
        }
        let (scale, seed) = config.expect("FIGURES contains loadable entries");
        Ok(Campaign {
            dir: dir.to_path_buf(),
            scale,
            seed,
            series,
        })
    }

    /// The raw `series` member of one result file.
    pub fn series(&self, figure: &str) -> Option<&Value> {
        self.series.get(figure)
    }
}

/// One figure's data reduced to the shapes the reference table keys on.
#[derive(Debug, Default)]
struct Extracted {
    /// Named scalar quantities.
    pub scalars: BTreeMap<String, f64>,
    /// Named `(x, y)` series, sorted by ascending x.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
}

// ----------------------------------------------------------- Value helpers

fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::U128(n) => Some(*n as f64),
        _ => None,
    }
}

fn get_num(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(num)
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match get(v, key) {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn get_str<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match get(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn arr(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(a) => Some(a),
        _ => None,
    }
}

/// `urand20` → `urand`, `friendster10` → `friendster` — dataset names
/// carry the scale, reference keys must not.
fn family(dataset: &str) -> &str {
    dataset.trim_end_matches(|c: char| c.is_ascii_digit())
}

// -------------------------------------------------------------- extractors

/// Reduce one figure's `series` JSON (ignored for `eq6`) to the named
/// scalars/series its checks reference. Unknown figures extract empty.
fn extract(figure: &str, campaign: &Campaign) -> Extracted {
    let mut out = Extracted::default();
    let Some(series) = campaign.series(figure) else {
        if figure == "eq6" {
            extract_eq6(&mut out);
        }
        return out;
    };
    match figure {
        "table1" => extract_table1(series, &mut out),
        "table2" => extract_table2(series, &mut out),
        "fig3" => extract_fig3(series, &mut out),
        "fig4" => extract_fig4(series, &mut out),
        "fig5" => extract_fig5(series, &mut out),
        "fig6" => extract_fig6(series, &mut out),
        "fig9" => extract_fig9(series, &mut out),
        "fig10" => extract_fig10(series, &mut out),
        "fig11" => extract_fig11(series, &mut out),
        _ => {}
    }
    out
}

fn extract_table1(series: &Value, out: &mut Extracted) {
    for row in arr(series).unwrap_or(&[]) {
        let (Some(name), Some(stats)) = (get_str(row, "name"), get(row, "stats")) else {
            continue;
        };
        let fam = family(name);
        if let Some(d) = get_num(stats, "avg_degree_nonzero") {
            out.scalars.insert(format!("{fam} avg degree"), d);
        }
        if let Some(b) = get_num(stats, "avg_sublist_bytes") {
            out.scalars.insert(format!("{fam} avg sublist"), b);
        }
    }
}

fn extract_table2(series: &Value, out: &mut Extracted) {
    let peak = arr(series)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| get_num(r, "vertices"))
        .fold(0.0f64, f64::max);
    out.scalars.insert("peak frontier vertices".into(), peak);
    out.scalars
        .insert("peak frontier / Gen4 Nmax".into(), peak / 768.0);
}

fn extract_fig3(series: &Value, out: &mut Extracted) {
    for s in arr(series).unwrap_or(&[]) {
        let (Some(w), Some(ds)) = (get_str(s, "workload"), get_str(s, "dataset")) else {
            continue;
        };
        let key = format!("{w}/{}", family(ds));
        let mut pts: Vec<(f64, f64)> = arr(get(s, "points").unwrap_or(&Value::Null))
            .unwrap_or(&[])
            .iter()
            .filter_map(|p| Some((get_num(p, "alignment")?, get_num(p, "raf")?)))
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(&(_, first)) = pts.first() {
            out.scalars.insert(format!("{key} RAF@8B"), first);
        }
        if let Some(&(_, last)) = pts.last() {
            out.scalars.insert(format!("{key} RAF@4kB"), last);
        }
        out.series.insert(format!("{key} RAF(a)"), pts);
    }
}

fn extract_fig4(series: &Value, out: &mut Extracted) {
    let points = arr(series).unwrap_or(&[]);
    let mut t = Vec::new();
    let mut d = Vec::new();
    let mut best: Option<(f64, f64)> = None;
    for p in points {
        let (Some(x), Some(tp), Some(dm), Some(rt)) = (
            get_num(p, "d_bytes"),
            get_num(p, "throughput_mb_per_sec"),
            get_num(p, "total_mb"),
            get_num(p, "runtime_sec"),
        ) else {
            continue;
        };
        t.push((x, tp));
        d.push((x, dm));
        if best.is_none_or(|(_, r)| rt < r) {
            best = Some((x, rt));
        }
    }
    out.series.insert("T(d)".into(), t);
    out.series.insert("D(d)".into(), d);
    if let Some((x, _)) = best {
        out.scalars.insert("runtime-optimal d".into(), x);
    }
}

fn extract_fig5(series: &Value, out: &mut Extracted) {
    let mut pts: Vec<(f64, f64)> = arr(get(series, "points").unwrap_or(&Value::Null))
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| Some((get_num(p, "alignment")?, get_num(p, "normalized_runtime")?)))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    if let (Some(&(_, at16)), Some(&(_, at4k))) = (pts.first(), pts.last()) {
        out.scalars.insert("XLFDD/EMOGI @16B".into(), at16);
        if at16 > 0.0 {
            out.scalars.insert("XLFDD 4kB/16B ratio".into(), at4k / at16);
        }
        if let Some(bam) = get_num(series, "bam_normalized") {
            if at4k > 0.0 {
                out.scalars.insert("BaM(4kB) / XLFDD(4kB)".into(), bam / at4k);
            }
        }
    }
    out.series.insert("XLFDD/EMOGI (a)".into(), pts);
}

fn extract_fig6(series: &Value, out: &mut Extracted) {
    let cells = arr(series).unwrap_or(&[]);
    let xl: Vec<f64> = cells.iter().filter_map(|c| get_num(c, "xlfdd_normalized")).collect();
    let bam: Vec<f64> = cells.iter().filter_map(|c| get_num(c, "bam_normalized")).collect();
    // try_geometric_mean (not the panicking geometric_mean): a corrupt
    // or degenerate result file must flag, not abort the validator.
    if let Some(g) = try_geometric_mean(&xl) {
        out.scalars.insert("XLFDD geomean".into(), g);
    }
    if let Some(g) = try_geometric_mean(&bam) {
        out.scalars.insert("BaM geomean".into(), g);
    }
    if xl.len() == bam.len() && !xl.is_empty() {
        // Strictly slower: a tie would not demonstrate the paper's
        // granularity ordering.
        let slower = xl.iter().zip(&bam).filter(|(x, b)| b > x).count();
        out.scalars
            .insert("pairs with BaM slower than XLFDD".into(), slower as f64);
    }
}

fn extract_fig9(series: &Value, out: &mut Extracted) {
    let mut bars: BTreeMap<String, f64> = BTreeMap::new();
    for b in arr(series).unwrap_or(&[]) {
        if let (Some(l), Some(us)) = (get_str(b, "label"), get_num(b, "latency_us")) {
            bars.insert(l.to_string(), us);
        }
    }
    let (near, far) = (bars.get("DRAM1").copied(), bars.get("DRAM0").copied());
    if let Some(n) = near {
        out.scalars.insert("DRAM near-socket latency".into(), n);
    }
    if let Some(f) = far {
        out.scalars.insert("DRAM far-socket latency".into(), f);
        if let Some(n) = near {
            out.scalars.insert("far-socket penalty".into(), f - n);
        }
    }
    if let (Some(n), Some(c0)) = (near, bars.get("CXL3(+0)")) {
        out.scalars.insert("CXL(+0) over DRAM".into(), c0 - n);
    }
    // Step linearity past the bridge floor: the +0 → +1 step absorbs the
    // floor, so only +1 → +2 → +3 must move by exactly the injection.
    let steps: Vec<f64> = (1..3)
        .filter_map(|k| {
            let a = bars.get(&format!("CXL3(+{k})"))?;
            let b = bars.get(&format!("CXL3(+{})", k + 1))?;
            Some((b - a - 1.0).abs())
        })
        .collect();
    if steps.len() == 2 {
        out.scalars.insert(
            "CXL step dev from 1 µs".into(),
            steps.iter().sum::<f64>() / steps.len() as f64,
        );
    }
}

fn extract_fig10(series: &Value, out: &mut Extracted) {
    let mut pts: Vec<(f64, f64, f64)> = arr(series)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            Some((
                get_num(p, "added_latency_us")?,
                get_num(p, "throughput_mb_per_sec")?,
                get_num(p, "outstanding")?,
            ))
        })
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let at = |us: f64| pts.iter().find(|p| p.0 == us);
    if let Some(&(_, t0, _)) = at(0.0) {
        out.scalars.insert("throughput @+0µs".into(), t0);
        if t0 > 0.0 {
            if let Some(&(_, t1, _)) = at(1.0) {
                out.scalars.insert("T(+1µs)/T(+0µs)".into(), t1 / t0);
            }
            if let Some(&(_, t10, _)) = at(10.0) {
                out.scalars.insert("T(+10µs)/T(+0µs)".into(), t10 / t0);
            }
        }
    }
    if let Some(&(_, _, n)) = at(10.0) {
        out.scalars.insert("outstanding @+10µs".into(), n);
    }
}

fn extract_fig11(series: &Value, out: &mut Extracted) {
    let mut by_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for p in arr(series).unwrap_or(&[]) {
        let (Some(w), Some(ds), Some(x), Some(y)) = (
            get_str(p, "workload"),
            get_str(p, "dataset"),
            get_num(p, "added_latency_us"),
            get_num(p, "normalized_runtime"),
        ) else {
            continue;
        };
        by_series
            .entry(format!("{w}/{}", family(ds)))
            .or_default()
            .push((x, y));
    }
    let mut max0 = f64::NEG_INFINITY;
    let mut max05 = f64::NEG_INFINITY;
    let mut min_rise = f64::INFINITY;
    for pts in by_series.values_mut() {
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let at = |pts: &[(f64, f64)], x: f64| pts.iter().find(|p| p.0 == x).map(|p| p.1);
        if let Some(y) = at(pts, 0.0) {
            max0 = max0.max(y);
        }
        if let Some(y) = at(pts, 0.5) {
            max05 = max05.max(y);
            if let Some(y3) = at(pts, 3.0) {
                if y > 0.0 {
                    min_rise = min_rise.min(y3 / y);
                }
            }
        }
    }
    if max0.is_finite() {
        out.scalars.insert("max normalized @+0µs".into(), max0);
    }
    if max05.is_finite() {
        out.scalars.insert("max normalized @+0.5µs".into(), max05);
    }
    if min_rise.is_finite() {
        out.scalars.insert("min rise (+3µs / +0.5µs)".into(), min_rise);
    }
    if let Some(pts) = by_series.get("BFS/urand") {
        out.series.insert("BFS/urand normalized(L)".into(), pts.clone());
        out.series.insert("BFS/urand monotone".into(), pts.clone());
    }
    if let Some(pts) = by_series.get("SSSP/friendster") {
        out.series.insert("SSSP/friendster monotone".into(), pts.clone());
    }
}

fn extract_eq6(out: &mut Extracted) {
    let g4 = emogi_requirements(PcieGen::Gen4);
    let g3 = emogi_requirements(PcieGen::Gen3);
    let xl = requirements(&cxlg_link::pcie::PcieLinkConfig::x16(PcieGen::Gen4), 256.0);
    out.scalars.insert("Gen4 min S".into(), g4.min_miops);
    out.scalars.insert("Gen4 max L".into(), g4.max_latency_us);
    out.scalars.insert("Gen3 min S".into(), g3.min_miops);
    out.scalars.insert("Gen3 max L".into(), g3.max_latency_us);
    out.scalars.insert("XLFDD d=256B min S".into(), xl.min_miops);
}

// -------------------------------------------------------------- evaluation

/// Verdict of one fidelity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance at an enforced scale.
    Pass,
    /// Outside tolerance at an enforced scale (or data missing).
    Flag,
    /// Residual reported but not enforced: the comparison only binds
    /// at a larger `CXLG_SCALE` (the check's `min_scale`).
    Skip,
}

/// One evaluated check: the measured value(s), the paper reference,
/// the residual, and the verdict.
pub struct Finding {
    /// Figure/table the check belongs to.
    pub figure: &'static str,
    /// The checked quantity.
    pub key: &'static str,
    /// Units / axes.
    pub units: &'static str,
    /// Formatted measured value (worst point for series checks).
    pub measured: String,
    /// Formatted paper reference (value, band, or series summary).
    pub paper: String,
    /// Signed residual vs the paper value in percent, when defined.
    pub residual_pct: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
    /// Context: transcription note plus any skip reason or geomean delta.
    pub note: String,
}

/// A full fidelity evaluation of one campaign.
pub struct FidelityReport {
    /// Campaign scale (log2 vertex count).
    pub scale: u32,
    /// Campaign seed.
    pub seed: u64,
    /// One finding per reference check, in report order.
    pub findings: Vec<Finding>,
}

impl FidelityReport {
    /// Count findings with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.findings.iter().filter(|f| f.verdict == v).count()
    }

    /// True when no check flagged — the campaign matches the paper
    /// everywhere a comparison is enforceable at its scale.
    pub fn clean(&self) -> bool {
        self.count(Verdict::Flag) == 0
    }
}

fn fmt(x: f64) -> String {
    if !x.is_finite() {
        return x.to_string();
    }
    // `a` is finite here, so the range test agrees with the
    // `a >= 10_000.0 || a < 0.01` it stands for (NaN returned above).
    let a = x.abs();
    if a != 0.0 && !(0.01..10_000.0).contains(&a) {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

/// Evaluate every reference check against a loaded campaign.
pub fn evaluate(campaign: &Campaign) -> FidelityReport {
    let mut findings = Vec::new();
    for figure in FIGURES {
        let data = extract(figure, campaign);
        for check in checks_for(figure) {
            findings.push(eval_check(check, &data, campaign.scale));
        }
    }
    FidelityReport {
        scale: campaign.scale,
        seed: campaign.seed,
        findings,
    }
}

fn finding(check: &Check, measured: String, paper: String, residual_pct: Option<f64>,
           within: bool, scale: u32, extra: &str) -> Finding {
    let enforced = scale >= check.min_scale;
    let verdict = match (enforced, within) {
        (true, true) => Verdict::Pass,
        (true, false) => Verdict::Flag,
        (false, _) => Verdict::Skip,
    };
    let mut note = String::new();
    if !enforced {
        note.push_str(&format!("scale-gated (needs scale ≥ {}). ", check.min_scale));
    }
    if !extra.is_empty() {
        note.push_str(extra);
        note.push(' ');
    }
    note.push_str(check.note);
    Finding {
        figure: check.figure,
        key: check.key,
        units: check.units,
        measured,
        paper,
        residual_pct,
        verdict,
        note,
    }
}

fn missing(check: &Check, kind: &str) -> Finding {
    Finding {
        figure: check.figure,
        key: check.key,
        units: check.units,
        measured: "—".into(),
        paper: "—".into(),
        residual_pct: None,
        verdict: Verdict::Flag,
        note: format!("{kind} missing from the campaign results. {}", check.note),
    }
}

fn eval_check(check: &Check, data: &Extracted, scale: u32) -> Finding {
    match &check.expect {
        Expect::Scalar { paper, tol_pct } => {
            let Some(&m) = data.scalars.get(check.key) else {
                return missing(check, "scalar");
            };
            let res = (m - paper) / paper * 100.0;
            finding(check, fmt(m), fmt(*paper), Some(res), res.abs() <= *tol_pct, scale,
                    &format!("tol ±{tol_pct}%."))
        }
        Expect::Band { lo, hi, paper } => {
            let Some(&m) = data.scalars.get(check.key) else {
                return missing(check, "scalar");
            };
            // No residual against a zero or unstated paper value (a
            // zero denominator would render as NaN%).
            let res = if paper.is_finite() && *paper != 0.0 {
                Some((m - paper) / paper * 100.0)
            } else {
                None
            };
            let band = if hi.is_finite() {
                format!("[{}, {}]", fmt(*lo), fmt(*hi))
            } else {
                format!("≥ {}", fmt(*lo))
            };
            let paper_s = if paper.is_finite() {
                format!("{} {band}", fmt(*paper))
            } else {
                band.clone()
            };
            finding(check, fmt(m), paper_s, res, (*lo..=*hi).contains(&m), scale, "")
        }
        Expect::Series { paper, tol_pct, log_x } => {
            let Some(measured) = data.series.get(check.key) else {
                return missing(check, "series");
            };
            // Alignment: interpolate the measured series onto the
            // paper's x grid (the two rarely sample the same points).
            let mut worst: Option<(f64, f64, f64, f64)> = None; // (x, m, p, res)
            let mut ratios = Vec::with_capacity(paper.len());
            for &(x, p) in *paper {
                let Some(m) = interp_series(measured, x, *log_x) else {
                    return missing(check, "series (empty)");
                };
                let res = (m - p) / p * 100.0;
                if worst.is_none_or(|(_, _, _, w)| res.abs() > w.abs()) {
                    worst = Some((x, m, p, res));
                }
                if p != 0.0 {
                    // Non-positive measured values poison the ratio;
                    // try_geometric_mean degrades them to an "n/a"
                    // summary instead of a panic.
                    ratios.push(m / p);
                }
            }
            let (wx, wm, wp, wres) = worst.expect("paper series are non-empty");
            let geo = try_geometric_mean(&ratios)
                .map(|g| format!("geomean Δ {:+.1}%.", (g - 1.0) * 100.0))
                .unwrap_or_else(|| "geomean Δ n/a (non-positive ratio).".into());
            finding(
                check,
                format!("{} @ x={}", fmt(wm), fmt(wx)),
                format!("{} @ x={}", fmt(wp), fmt(wx)),
                Some(wres),
                wres.abs() <= *tol_pct,
                scale,
                &format!("worst of {} paper points, tol ±{tol_pct}%/point. {geo}", paper.len()),
            )
        }
        Expect::MonotoneNondecreasing => {
            let Some(measured) = data.series.get(check.key) else {
                return missing(check, "series");
            };
            if measured.is_empty() {
                return missing(check, "series (empty)");
            }
            // A single-point series is trivially monotone; anything
            // longer must never step down by more than float dust.
            let ok = measured
                .windows(2)
                .all(|w| w[1].1 >= w[0].1 - 1e-9 * w[0].1.abs().max(1.0));
            let (first, last) = (measured[0], measured[measured.len() - 1]);
            finding(
                check,
                format!("{} @ x={} → {} @ x={}", fmt(first.1), fmt(first.0), fmt(last.1), fmt(last.0)),
                "nondecreasing".into(),
                None,
                ok,
                scale,
                &format!("{} points.", measured.len()),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v_map(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn check(expect: Expect, min_scale: u32) -> Check {
        Check {
            figure: "fig3",
            key: "k",
            units: "u",
            expect,
            min_scale,
            note: "n",
        }
    }

    fn with_scalar(x: f64) -> Extracted {
        let mut d = Extracted::default();
        d.scalars.insert("k".into(), x);
        d
    }

    fn with_series(pts: Vec<(f64, f64)>) -> Extracted {
        let mut d = Extracted::default();
        d.series.insert("k".into(), pts);
        d
    }

    #[test]
    fn scalar_check_passes_within_and_flags_outside_tolerance() {
        let c = check(Expect::Scalar { paper: 100.0, tol_pct: 5.0 }, 0);
        assert_eq!(eval_check(&c, &with_scalar(103.0), 20).verdict, Verdict::Pass);
        let f = eval_check(&c, &with_scalar(90.0), 20);
        assert_eq!(f.verdict, Verdict::Flag);
        assert!((f.residual_pct.unwrap() + 10.0).abs() < 1e-9);
    }

    #[test]
    fn scale_gating_turns_flags_into_skips_but_keeps_residuals() {
        let c = check(Expect::Scalar { paper: 100.0, tol_pct: 5.0 }, 20);
        let f = eval_check(&c, &with_scalar(50.0), 10);
        assert_eq!(f.verdict, Verdict::Skip);
        assert!((f.residual_pct.unwrap() + 50.0).abs() < 1e-9);
        assert!(f.note.contains("scale ≥ 20"), "{}", f.note);
        // The same deviation at an enforced scale flags.
        assert_eq!(eval_check(&c, &with_scalar(50.0), 20).verdict, Verdict::Flag);
    }

    #[test]
    fn missing_data_is_a_flag_not_a_panic() {
        let c = check(Expect::Scalar { paper: 1.0, tol_pct: 1.0 }, 0);
        let f = eval_check(&c, &Extracted::default(), 20);
        assert_eq!(f.verdict, Verdict::Flag);
        assert!(f.note.contains("missing"));
    }

    #[test]
    fn series_check_interpolates_mismatched_x_axes() {
        // Measured samples at 10/100/1000; paper asks for 31.6 (log mid).
        let c = check(
            Expect::Series { paper: &[(31.6227766, 1.5)], tol_pct: 1.0, log_x: true },
            0,
        );
        let d = with_series(vec![(10.0, 1.0), (100.0, 2.0), (1000.0, 4.0)]);
        let f = eval_check(&c, &d, 20);
        assert_eq!(f.verdict, Verdict::Pass, "{}", f.note);
        assert!(f.residual_pct.unwrap().abs() < 0.1, "{:?}", f.residual_pct);
    }

    #[test]
    fn empty_and_single_point_series_are_handled() {
        let c = check(
            Expect::Series { paper: &[(1.0, 1.0)], tol_pct: 1.0, log_x: false },
            0,
        );
        // Empty series: flagged as missing data.
        let f = eval_check(&c, &with_series(vec![]), 20);
        assert_eq!(f.verdict, Verdict::Flag);
        // Single-point series: clamps to the one sample.
        let f = eval_check(&c, &with_series(vec![(5.0, 1.0)]), 20);
        assert_eq!(f.verdict, Verdict::Pass, "{}", f.note);

        let m = check(Expect::MonotoneNondecreasing, 0);
        assert_eq!(eval_check(&m, &with_series(vec![]), 20).verdict, Verdict::Flag);
        assert_eq!(eval_check(&m, &with_series(vec![(1.0, 2.0)]), 20).verdict, Verdict::Pass);
    }

    #[test]
    fn non_positive_values_degrade_the_geomean_delta_without_panicking() {
        let c = check(
            Expect::Series { paper: &[(1.0, 1.0), (2.0, 1.0)], tol_pct: 500.0, log_x: false },
            0,
        );
        let f = eval_check(&c, &with_series(vec![(1.0, -3.0), (2.0, 1.0)]), 20);
        assert!(f.note.contains("geomean Δ n/a"), "{}", f.note);
    }

    #[test]
    fn monotone_check_flags_a_decreasing_series() {
        let c = check(Expect::MonotoneNondecreasing, 0);
        let up = with_series(vec![(1.0, 1.0), (2.0, 1.0), (3.0, 2.0)]);
        assert_eq!(eval_check(&c, &up, 20).verdict, Verdict::Pass);
        let down = with_series(vec![(1.0, 1.0), (2.0, 0.5)]);
        assert_eq!(eval_check(&c, &down, 20).verdict, Verdict::Flag);
    }

    #[test]
    fn band_check_reports_residual_against_the_paper_value() {
        let c = check(Expect::Band { lo: 0.0, hi: 2.0, paper: 1.0 }, 0);
        let f = eval_check(&c, &with_scalar(1.5), 20);
        assert_eq!(f.verdict, Verdict::Pass);
        assert!((f.residual_pct.unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(eval_check(&c, &with_scalar(2.5), 20).verdict, Verdict::Flag);
    }

    #[test]
    fn eq6_extraction_needs_no_campaign_file() {
        let mut out = Extracted::default();
        extract_eq6(&mut out);
        assert!((out.scalars["Gen4 min S"] - 267.857).abs() < 0.01);
        assert!((out.scalars["Gen3 max L"] - 1.911).abs() < 0.01);
    }

    #[test]
    fn fig6_extractor_survives_non_positive_cells() {
        // A corrupt cell must drop the geomean, not panic the validator.
        let series = Value::Array(vec![
            v_map(vec![
                ("workload", Value::Str("BFS".into())),
                ("dataset", Value::Str("urand8".into())),
                ("xlfdd_normalized", Value::F64(-1.0)),
                ("bam_normalized", Value::F64(2.0)),
            ]),
        ]);
        let mut out = Extracted::default();
        extract_fig6(&series, &mut out);
        assert!(!out.scalars.contains_key("XLFDD geomean"));
        assert!(out.scalars.contains_key("BaM geomean"));
    }

    #[test]
    fn family_strips_the_scale_suffix() {
        assert_eq!(family("urand20"), "urand");
        assert_eq!(family("friendster10"), "friendster");
        assert_eq!(family("kron27"), "kron");
    }
}
