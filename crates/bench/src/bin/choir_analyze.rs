//! `choir-analyze` — score packet captures for consistency, like the
//! paper artifact's analysis step ("Analyze packet captures and produce
//! figures similar to those in the paper", Appendix A).
//!
//! ```text
//! choir-analyze <baseline.pcap> <run.pcap>... [--windows N] [--spacing K] [--obs]
//! ```
//!
//! Each run pcap is compared against the baseline: the four metrics and
//! κ, the within-±10 ns statistic, GapReplay-style raw sums, figure-style
//! delta histograms, and (with `--windows`) a per-window κ series that
//! localizes inconsistency in time. `--obs` turns on the in-tree
//! observability layer and appends the span/counter profile of the
//! analysis itself (DESIGN.md §11). Captures must be nanosecond or
//! microsecond pcap in either byte order, as produced by
//! `choir_capture::Recorder` or any capture tool.

use std::process::ExitCode;

use choir_bench::fmt::sci;
use choir_capture::{drain_available, PcapSource};
use choir_core::metrics::gapreplay::gapreplay_metrics;
use choir_core::metrics::reorder::reorder_profile;
use choir_core::metrics::windowed::{windowed_kappa, worst_window};
use choir_core::metrics::{PairAnalyzer, PairScratch, Trial, TrialIndex};

/// Load a capture through the reader `choir-ctl ingest-pcap` uses, so a
/// capture one tool refuses the other refuses too; the error names the
/// file, the record and its byte offset.
fn load_trial(path: &str) -> Result<Trial, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut source =
        PcapSource::new(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let mut trial = Trial::new();
    drain_available(&mut source, |o| trial.push(o.id, o.t_ps))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(trial.rezeroed())
}

const USAGE: &str =
    "usage: choir-analyze <baseline.pcap> <run.pcap>... [--windows N] [--spacing K] [--obs]";

#[derive(Debug)]
struct Opts {
    paths: Vec<String>,
    windows: Option<usize>,
    spacing: Option<usize>,
    obs: bool,
}

/// Everything after the program name. A flag value is checked where it
/// enters: `--windows 0` would ask for no windows and `--spacing 0` for a
/// profile with no spacings, so zero is refused like any non-number.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    fn positive(value: Option<String>, flag: &str) -> Result<usize, String> {
        value
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{flag} needs a positive integer"))
    }
    let mut o = Opts {
        paths: Vec::new(),
        windows: None,
        spacing: None,
        obs: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--obs" => o.obs = true,
            "--windows" => o.windows = Some(positive(args.next(), "--windows")?),
            "--spacing" => o.spacing = Some(positive(args.next(), "--spacing")?),
            other => o.paths.push(other.to_string()),
        }
    }
    if o.paths.len() < 2 {
        return Err(USAGE.to_string());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if opts.obs {
        choir_core::obs::set_enabled(true);
    }
    if let Err(e) = score(&opts) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if opts.obs {
        println!();
        print!(
            "{}",
            choir_bench::fmt::render_obs(&choir_core::obs::snapshot())
        );
    }
    ExitCode::SUCCESS
}

fn index<'t>(path: &str, trial: &'t Trial) -> Result<TrialIndex<'t>, String> {
    TrialIndex::build(trial).map_err(|e| format!("{path}: {e}"))
}

/// Score every run against the baseline through the production pipeline:
/// the baseline is indexed once for all its runs, each run once, and one
/// workspace serves every pair. Each run is matched once, for every
/// section of its report.
fn score(opts: &Opts) -> Result<(), String> {
    let (paths, windows, spacing) = (&opts.paths, opts.windows, opts.spacing);
    let baseline = load_trial(&paths[0])?;
    println!(
        "baseline {}: {} packets over {:.3} ms",
        paths[0],
        baseline.len(),
        baseline.span_ps() as f64 / 1e9
    );

    let baseline_index = index(&paths[0], &baseline)?;
    let mut scratch = PairScratch::new();
    for path in &paths[1..] {
        let run = load_trial(path)?;
        let run_index = index(path, &run)?;
        let mut pa = PairAnalyzer::from_indexes(&baseline_index, &run_index).label(path.as_str());
        let m = pa.matching();
        let raw = gapreplay_metrics(&baseline, &run, m);
        let scores = windows.map(|w| (w, windowed_kappa(&baseline, &run, m, w)));
        let prof = spacing.map(|k| (k, reorder_profile(m, k)));
        let cmp = pa.analyze_with_scratch(&mut scratch);
        println!("\n== {path} vs baseline ==");
        println!(
            "  packets {} | common {} | missing {} | extra {} | moved {}",
            run.len(),
            cmp.common,
            cmp.missing,
            cmp.extra,
            cmp.moved
        );
        println!(
            "  U {}  O {}  L {}  I {}  kappa {:.4}",
            sci(cmp.metrics.u),
            sci(cmp.metrics.o),
            sci(cmp.metrics.l),
            sci(cmp.metrics.i),
            cmp.metrics.kappa
        );
        println!(
            "  {:.2}% of IAT deltas within +-10 ns",
            cmp.iat_within_10ns * 100.0
        );
        println!(
            "  GapReplay raw: cumulative latency {:.1} ns, IAT deviation {:.1} ns (mean {:.2} / {:.2} ns per packet)",
            raw.cumulative_latency_ns,
            raw.iat_deviation_ns,
            raw.mean_latency_delta_ns,
            raw.mean_iat_delta_ns
        );
        if cmp.moved > 0 {
            let s = cmp.edit_stats;
            println!(
                "  edit script: mean {:.1} (sigma {:.1}), abs mean {:.1}, min {} max {}",
                s.mean, s.stddev, s.abs_mean, s.min, s.max
            );
        }
        println!("  IAT delta histogram (ns):");
        print!("{}", cmp.iat_hist.render_ascii(40));
        println!("  latency delta histogram (ns):");
        print!("{}", cmp.latency_hist.render_ascii(40));

        if let Some((w, scores)) = scores {
            println!("  windowed kappa ({w} windows):");
            for s in &scores {
                println!(
                    "    window {:>3} [{:>8}..{:>8}): kappa {:.4}  (U {} O {} L {} I {})",
                    s.index,
                    s.a_range.0,
                    s.a_range.1,
                    s.metrics.kappa,
                    sci(s.metrics.u),
                    sci(s.metrics.o),
                    sci(s.metrics.l),
                    sci(s.metrics.i)
                );
            }
            if let Some(worst) = worst_window(&scores) {
                println!(
                    "    worst window: {} (kappa {:.4})",
                    worst.index, worst.metrics.kappa
                );
            }
        }

        if let Some((k, prof)) = prof {
            let peak = prof
                .prob
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("prob not NaN"));
            if let Some((idx, p)) = peak {
                println!(
                    "  reordering profile (to spacing {k}): peak inversion prob {:.3} at spacing {}",
                    p,
                    idx + 1
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_core::metrics::{compare, MAX_TIMESTAMP_PS};
    use choir_packet::pcap::PcapWriter;
    use choir_packet::{ChoirTag, FrameBuilder};

    /// A 200-packet capture whose first record is stamped `base_ns`, the
    /// rest following with `jitter(i)` ns of deviation from a 280 ns gap.
    fn write_capture(path: &std::path::Path, base_ns: u64, jitter: impl Fn(u64) -> u64) {
        let builder = FrameBuilder::new(1400, 1, 2);
        let mut w = PcapWriter::new(std::fs::File::create(path).unwrap()).unwrap();
        for i in 0..200u64 {
            let t = base_ns + i * 280 + if i == 0 { 0 } else { jitter(i) };
            w.write_record(t, &builder.build_tagged_snap(ChoirTag::new(0, 0, i)))
                .unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn zero_windows_and_zero_spacing_are_refused_where_they_enter() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string()));
        let o = parse(&["a.pcap", "b.pcap", "--windows", "4", "--spacing", "2"]).unwrap();
        assert_eq!(
            (o.paths.len(), o.windows, o.spacing, o.obs),
            (2, Some(4), Some(2), false)
        );
        for flag in ["--windows", "--spacing"] {
            for bad in [&[flag, "0"][..], &[flag, "-1"], &[flag, "x"], &[flag]] {
                let e = parse(&[&["a.pcap", "b.pcap"], bad].concat()).unwrap_err();
                assert_eq!(e, format!("{flag} needs a positive integer"));
            }
        }
        assert_eq!(parse(&["only.pcap", "--obs"]).unwrap_err(), USAGE);
    }

    #[test]
    fn wall_clock_captures_score_like_the_same_captures_stamped_from_zero() {
        // 2026-01-01T00:00:00Z: as picoseconds this is past u64::MAX.
        const Y2026_NS: u64 = 1_767_225_600 * 1_000_000_000;
        let dir =
            std::env::temp_dir().join(format!("choir-analyze-wallclock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let at = |name: &str| dir.join(name);
        for (base, tag) in [(0, "zero"), (Y2026_NS, "2026")] {
            write_capture(&at(&format!("a-{tag}.pcap")), base, |i| i % 7);
            write_capture(&at(&format!("b-{tag}.pcap")), base, |i| (i * 13) % 31);
        }
        let load = |name: &str| load_trial(at(name).to_str().unwrap()).unwrap();
        let from_zero = compare(&load("a-zero.pcap"), &load("b-zero.pcap"));
        assert!(from_zero.kappa < 1.0, "the fixture must exercise L and I");
        let loaded = compare(&load("a-2026.pcap"), &load("b-2026.pcap"));
        assert_eq!(loaded.kappa.to_bits(), from_zero.kappa.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stamp_past_the_range_is_refused_naming_file_and_record() {
        // The capture `PcapSource` refuses (and `choir-ctl` with it): the
        // second record lands 2^62 ps past the first's epoch. This used to
        // load with that stamp clamped, and score.
        let path =
            std::env::temp_dir().join(format!("choir-analyze-range-{}.pcap", std::process::id()));
        let frame = FrameBuilder::new(100, 1, 2).build_plain();
        let mut w = PcapWriter::new(std::fs::File::create(&path).unwrap()).unwrap();
        for ts_ns in [1_000, MAX_TIMESTAMP_PS / 1000 + 1, 2_000] {
            w.write_record(ts_ns, &frame).unwrap();
        }
        w.finish().unwrap();
        let path = path.to_str().unwrap();
        let e = load_trial(path).unwrap_err();
        std::fs::remove_file(path).unwrap();
        assert!(e.starts_with(&format!("{path}: ")), "{e}");
        assert!(e.contains("record 1 (byte offset 140)"), "{e}");
    }
}
