//! The predictors: what §3.5 surfaces to applications.
//!
//! "Before an application downloads a file or makes a VoIP call or
//! launches a video stream, it would be able to obtain an indication of
//! the expected performance."
//!
//! * [`predict_download`] — expected completion-time percentiles for a
//!   transfer of a given size from the path's throughput distribution
//!   (plus a slow-start-aware startup term).
//! * [`predict_voip`] — a simplified ITU-T E-model: mean-opinion-score
//!   estimate from RTT, jitter, and loss, and the go/no-go verdict the
//!   paper imagines surfacing ("if the VoIP quality is expected to be
//!   poor, the user might hold off").

use crate::db::PathView;

/// Download-time prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownloadPrediction {
    /// Median expected completion time, seconds.
    pub p50_secs: f64,
    /// 95th-percentile (pessimistic) completion time, seconds.
    pub p95_secs: f64,
    /// Throughput the median is based on, Mbit/s.
    pub p50_throughput_mbps: f64,
    /// Observations behind the estimate.
    pub samples: u64,
}

/// Predict the completion time of a `bytes`-sized download.
///
/// Completion time = startup (≈ 2 RTTs of handshake + slow start ramp,
/// approximated as `3 × RTT`) + transfer at the distribution's throughput.
/// The pessimistic bound uses the *5th percentile* throughput (slow tail)
/// and 95th-percentile RTT.
pub fn predict_download(view: &PathView, bytes: u64) -> Option<DownloadPrediction> {
    let p50_tput = view.throughput.quantile(0.5)?;
    let slow_tput = view.throughput.quantile(0.05)?.max(1e-3);
    let p50_rtt = view.rtt.quantile(0.5)?;
    let p95_rtt = view.rtt.quantile(0.95)?;
    let bits = bytes as f64 * 8.0;
    let startup = 3.0;
    Some(DownloadPrediction {
        p50_secs: startup * p50_rtt / 1e3 + bits / (p50_tput * 1e6),
        p95_secs: startup * p95_rtt / 1e3 + bits / (slow_tput * 1e6),
        p50_throughput_mbps: p50_tput,
        samples: view.count,
    })
}

/// VoIP quality prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoipPrediction {
    /// Estimated mean opinion score, 1.0–4.5.
    pub mos: f64,
    /// The E-model R-factor behind it, 0–100.
    pub r_factor: f64,
    /// Effective one-way delay used (RTT/2 + jitter buffer), ms.
    pub effective_delay_ms: f64,
    /// Verdict at the conventional MOS ≥ 3.6 "acceptable" bar.
    pub acceptable: bool,
}

/// Predict VoIP call quality on a path (simplified E-model, G.711-like).
///
/// `R = 93.2 − Id(delay) − Ie(loss)` with the standard delay knee at
/// 177.3 ms and a logarithmic loss impairment; MOS via the ITU mapping.
pub fn predict_voip(view: &PathView) -> Option<VoipPrediction> {
    let rtt = view.rtt.quantile(0.5)?;
    // Jitter buffer sized at p95 jitter (what §3.2's informed adaptation
    // would configure).
    let jitter_buffer = view.jitter.quantile(0.95).unwrap_or(0.0);
    let one_way = rtt / 2.0 + jitter_buffer;
    let loss_pct = view.mean_loss * 100.0;

    // Delay impairment Id.
    let id = 0.024 * one_way
        + if one_way > 177.3 {
            0.11 * (one_way - 177.3)
        } else {
            0.0
        };
    // Effective equipment impairment Ie-eff (G.107): for G.711, Ie = 0 and
    // packet-loss robustness Bpl = 4.3 under random loss.
    const BPL: f64 = 4.3;
    let ie = 95.0 * loss_pct / (loss_pct + BPL);
    let r = (93.2 - id - ie).clamp(0.0, 100.0);
    let mos = r_to_mos(r);
    Some(VoipPrediction {
        mos,
        r_factor: r,
        effective_delay_ms: one_way,
        acceptable: mos >= 3.6,
    })
}

/// ITU-T G.107 R-factor → MOS mapping.
fn r_to_mos(r: f64) -> f64 {
    if r <= 0.0 {
        return 1.0;
    }
    if r >= 100.0 {
        return 4.5;
    }
    // The raw polynomial dips slightly below 1.0 for tiny R; clamp to the
    // MOS scale.
    (1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7e-6).clamp(1.0, 4.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{PathId, PerfDb, PerfObservation};

    fn view_with(tput: f64, rtt: f64, loss: f64, jitter: f64, n: usize) -> PathView {
        let mut db = PerfDb::new(u64::MAX);
        for _ in 0..n {
            db.record(
                PathId(1),
                0,
                &PerfObservation {
                    throughput_mbps: tput,
                    rtt_ms: rtt,
                    loss,
                    jitter_ms: jitter,
                },
            );
        }
        db.view(PathId(1), 0).unwrap()
    }

    #[test]
    fn download_time_scales_with_size_and_speed() {
        let v = view_with(8.0, 100.0, 0.0, 2.0, 50);
        let small = predict_download(&v, 1_000_000).unwrap();
        let large = predict_download(&v, 10_000_000).unwrap();
        assert!(large.p50_secs > small.p50_secs * 5.0);
        // 10 MB at 8 Mbit/s ≈ 10 s + 0.3 s startup.
        assert!((large.p50_secs - 10.3).abs() < 1.0, "{}", large.p50_secs);
        assert!(large.p95_secs >= large.p50_secs);

        let fast = view_with(80.0, 100.0, 0.0, 2.0, 50);
        let quick = predict_download(&fast, 10_000_000).unwrap();
        assert!(quick.p50_secs < large.p50_secs / 5.0);
    }

    #[test]
    fn good_path_gets_good_mos() {
        let v = view_with(10.0, 60.0, 0.0, 2.0, 50);
        let p = predict_voip(&v).unwrap();
        assert!(p.mos > 4.0, "mos {}", p.mos);
        assert!(p.acceptable);
    }

    #[test]
    fn lossy_path_degrades_mos() {
        let clean = predict_voip(&view_with(10.0, 60.0, 0.0, 2.0, 50)).unwrap();
        let lossy = predict_voip(&view_with(10.0, 60.0, 0.05, 2.0, 50)).unwrap();
        assert!(
            lossy.mos < clean.mos - 0.5,
            "{} vs {}",
            lossy.mos,
            clean.mos
        );
        assert!(!lossy.acceptable);
    }

    #[test]
    fn long_delay_degrades_mos() {
        let near = predict_voip(&view_with(10.0, 60.0, 0.0, 2.0, 50)).unwrap();
        let far = predict_voip(&view_with(10.0, 600.0, 0.0, 40.0, 50)).unwrap();
        assert!(far.mos < near.mos - 0.5);
        assert!(far.effective_delay_ms > near.effective_delay_ms);
    }

    #[test]
    fn mos_mapping_monotone_in_usable_range_and_bounded() {
        // The ITU polynomial dips slightly below R ≈ 22 (a known property
        // of the G.107 mapping); the usable range is monotone.
        for r in 0..=100 {
            let mos = r_to_mos(f64::from(r));
            assert!((1.0..=4.5).contains(&mos), "R={r} -> {mos}");
        }
        let mut last = r_to_mos(25.0);
        for r in 26..=100 {
            let mos = r_to_mos(f64::from(r));
            assert!(mos >= last - 1e-9, "not monotone at R={r}");
            last = mos;
        }
        assert_eq!(r_to_mos(-5.0), 1.0);
        assert_eq!(r_to_mos(150.0), 4.5);
    }
}
