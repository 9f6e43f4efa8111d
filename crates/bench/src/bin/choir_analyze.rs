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
use choir_core::metrics::gapreplay::gapreplay_metrics;
use choir_core::metrics::report::analyze;
use choir_core::metrics::reorder::reorder_profile;
use choir_core::metrics::windowed::{windowed_kappa, worst_window};
use choir_core::metrics::{Matching, Trial};
use choir_packet::pcap::read_pcap;

fn load_trial(path: &str) -> Result<Trial, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let records = read_pcap(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    Ok(Trial::from_pcap_records(&records).rezeroed())
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut windows: Option<usize> = None;
    let mut spacing: Option<usize> = None;
    let mut obs_on = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--obs" => obs_on = true,
            "--windows" => {
                windows = args.next().and_then(|v| v.parse().ok());
                if windows.is_none() {
                    eprintln!("--windows needs a positive integer");
                    return ExitCode::from(2);
                }
            }
            "--spacing" => {
                spacing = args.next().and_then(|v| v.parse().ok());
                if spacing.is_none() {
                    eprintln!("--spacing needs a positive integer");
                    return ExitCode::from(2);
                }
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.len() < 2 {
        eprintln!(
            "usage: choir-analyze <baseline.pcap> <run.pcap>... [--windows N] [--spacing K] [--obs]"
        );
        return ExitCode::from(2);
    }
    if obs_on {
        choir_core::obs::configure(&choir_core::obs::ObsConfig {
            enabled: true,
            ring_capacity: 4096,
        });
        choir_core::obs::set_enabled(true);
    }

    let baseline = match load_trial(&paths[0]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "baseline {}: {} packets over {:.3} ms",
        paths[0],
        baseline.len(),
        baseline.span_ps() as f64 / 1e9
    );

    for path in &paths[1..] {
        let run = match load_trial(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cmp = analyze(path.as_str(), &baseline, &run);
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
        let raw = gapreplay_metrics(&baseline, &run);
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

        if let Some(w) = windows {
            println!("  windowed kappa ({w} windows):");
            let scores = windowed_kappa(&baseline, &run, w);
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

        if let Some(k) = spacing {
            let prof = reorder_profile(&Matching::build(&baseline, &run), k);
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
    if obs_on {
        println!();
        print!(
            "{}",
            choir_bench::fmt::render_obs(&choir_core::obs::snapshot())
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use choir_capture::{drain_available, PcapSource};
    use choir_core::metrics::compare;
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

    fn streamed(path: &std::path::Path) -> Trial {
        let file = std::io::BufReader::new(std::fs::File::open(path).unwrap());
        let mut t = Trial::new();
        drain_available(&mut PcapSource::new(file).unwrap(), |o| t.push(o.id, o.t_ps)).unwrap();
        t
    }

    #[test]
    fn wall_clock_captures_score_like_the_same_captures_stamped_from_zero() {
        // 2026-01-01T00:00:00Z: as picoseconds this is past u64::MAX.
        const Y2026_NS: u64 = 1_767_225_600 * 1_000_000_000;
        let dir = std::env::temp_dir().join(format!("choir-analyze-wallclock-{}", std::process::id()));
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
        let live = compare(&streamed(&at("a-2026.pcap")), &streamed(&at("b-2026.pcap")));
        assert_eq!(loaded.kappa.to_bits(), from_zero.kappa.to_bits());
        assert_eq!(live.kappa.to_bits(), from_zero.kappa.to_bits());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
