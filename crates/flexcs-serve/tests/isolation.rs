//! Cross-tenant isolation: concurrent sessions must not bleed
//! workspace, plan, or warm-start state into each other.
//!
//! Two tenants with different frame shapes, contents and sampling
//! seeds run interleaved through a multi-worker engine; every decoded
//! frame must be **bit-identical** to decoding the same per-tenant
//! stream serially with a dedicated decoder and warm state. Any shared
//! mutable state between sessions (a bled workspace buffer, a reused
//! previous-solution seed, a swapped DCT plan) breaks exact equality.

use flexcs_core::{CoreError, DecodeWarmState, Decoder, SamplingPlan};
use flexcs_linalg::Matrix;
use flexcs_serve::{Engine, EngineConfig, FrameRequest, ServeError, SessionConfig};
use flexcs_transform::Dct2d;

/// A drifting DCT-sparse stream: frame `t` perturbs the coefficients
/// slightly, so consecutive decodes are correlated (the warm-start
/// regime) but not identical.
fn stream(rows: usize, cols: usize, frames: usize, seed: u64) -> Vec<Matrix> {
    let dct = Dct2d::new(rows, cols).unwrap();
    (0..frames)
        .map(|t| {
            let mut coeffs = Matrix::zeros(rows, cols);
            let drift = t as f64 * 0.05;
            coeffs[(0, 0)] = 4.0 + drift * ((seed % 7) as f64);
            coeffs[(1, 0)] = 1.5 - drift;
            coeffs[(0, 2)] = -1.0 + 0.3 * ((seed as f64 + t as f64) * 0.7).sin();
            coeffs[(2, 1)] = 0.8;
            dct.inverse(&coeffs).unwrap()
        })
        .collect()
}

fn requests(frames: &[Matrix], density: f64, seed: u64) -> Vec<FrameRequest> {
    frames
        .iter()
        .enumerate()
        .map(|(t, frame)| {
            let n = frame.rows() * frame.cols();
            let m = ((n as f64) * density) as usize;
            let plan = SamplingPlan::random_subset(n, m, &[], seed + t as u64).unwrap();
            FrameRequest {
                rows: frame.rows(),
                cols: frame.cols(),
                selected: plan.selected().to_vec(),
                y: plan.measure(&frame.to_flat()),
            }
        })
        .collect()
}

/// Serial reference: the same warm-decode sequence a session performs,
/// on a fresh decoder and warm state.
fn serial_decodes(reqs: &[FrameRequest]) -> Vec<Matrix> {
    let decoder = Decoder::default();
    let mut warm = DecodeWarmState::new();
    reqs.iter()
        .map(|r| {
            decoder
                .reconstruct_warm(r.rows, r.cols, &r.selected, &r.y, &mut warm)
                .unwrap()
                .frame
        })
        .collect()
}

#[test]
fn interleaved_tenants_match_serial_decodes_bit_for_bit() {
    // Different shapes (one non-square) and different seeds per tenant.
    let stream_a = stream(12, 12, 5, 3);
    let stream_b = stream(9, 7, 5, 41);
    let reqs_a = requests(&stream_a, 0.6, 100);
    let reqs_b = requests(&stream_b, 0.7, 900);
    let serial_a = serial_decodes(&reqs_a);
    let serial_b = serial_decodes(&reqs_b);

    let engine = Engine::new(EngineConfig {
        workers: 3,
        ..EngineConfig::default()
    });
    let tenant_a = engine.register_tenant(SessionConfig::named("array-a"));
    let tenant_b = engine.register_tenant(SessionConfig::named("array-b"));

    // Interleave submissions so the schedules genuinely overlap.
    let mut handles_a = Vec::new();
    let mut handles_b = Vec::new();
    for (ra, rb) in reqs_a.iter().zip(&reqs_b) {
        handles_a.push(
            engine
                .submit(tenant_a, ra.clone())
                .unwrap()
                .accepted()
                .unwrap(),
        );
        handles_b.push(
            engine
                .submit(tenant_b, rb.clone())
                .unwrap()
                .accepted()
                .unwrap(),
        );
    }

    for (t, (handle, expected)) in handles_a.into_iter().zip(&serial_a).enumerate() {
        let decoded = handle.wait().unwrap();
        assert_eq!(decoded.sequence, t as u64, "tenant A decodes in FIFO order");
        assert_eq!(
            &decoded.frame, expected,
            "tenant A frame {t} differs from the serial decode"
        );
    }
    for (t, (handle, expected)) in handles_b.into_iter().zip(&serial_b).enumerate() {
        let decoded = handle.wait().unwrap();
        assert_eq!(decoded.sequence, t as u64, "tenant B decodes in FIFO order");
        assert_eq!(
            &decoded.frame, expected,
            "tenant B frame {t} differs from the serial decode"
        );
    }

    let metrics = engine.metrics();
    assert_eq!(metrics.decoded, 10);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.tenants.len(), 2);
    assert!(metrics.tenants.iter().all(|t| t.completed == 5));
}

#[test]
fn shape_switch_within_a_tenant_stays_serial_exact() {
    // One tenant alternating shapes: the warm state resets on each
    // switch exactly as it does serially, so equality must still hold.
    let small = stream(8, 8, 3, 5);
    let wide = stream(6, 10, 3, 6);
    let mut reqs = Vec::new();
    for (s, w) in requests(&small, 0.6, 10)
        .into_iter()
        .zip(requests(&wide, 0.6, 20))
    {
        reqs.push(s);
        reqs.push(w);
    }
    let serial = serial_decodes(&reqs);

    let engine = Engine::new(EngineConfig {
        workers: 2,
        max_batch: 4,
        ..EngineConfig::default()
    });
    let tenant = engine.register_tenant(SessionConfig::named("mixed"));
    let handles: Vec<_> = reqs
        .iter()
        .map(|r| {
            engine
                .submit(tenant, r.clone())
                .unwrap()
                .accepted()
                .unwrap()
        })
        .collect();
    for (handle, expected) in handles.into_iter().zip(&serial) {
        assert_eq!(&handle.wait().unwrap().frame, expected);
    }
}

#[test]
fn invalid_adaptive_tenant_fails_alone() {
    // A config that can never decode a frame — a NaN or a zero
    // per-frame budget — is found once, at registration: every
    // submit to that tenant returns the typed error before it takes a
    // queue slot or a worker, while a tenant sharing the workers keeps
    // serving frames identical to a direct decode.
    let stream_a = stream(10, 10, 4, 7);
    let stream_b = stream(8, 8, 4, 13);
    let reqs_a = requests(&stream_a, 0.6, 300);
    let reqs_b = requests(&stream_b, 0.6, 700);
    let serial_b = serial_decodes(&reqs_b);

    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let nan_budget =
        engine.register_tenant(SessionConfig::named("nan-budget").with_frame_budget_us(f64::NAN));
    let zero_budget =
        engine.register_tenant(SessionConfig::named("zero-budget").with_frame_budget_us(0.0));
    let bystander = engine.register_tenant(SessionConfig::named("bystander"));
    let mut handles_b = Vec::new();
    for (ra, rb) in reqs_a.iter().zip(&reqs_b) {
        for broken in [nan_budget, zero_budget] {
            let result = engine.submit(broken, ra.clone());
            assert!(
                matches!(result, Err(ServeError::Decode(CoreError::InvalidConfig(_)))),
                "tenant {broken}: {result:?}"
            );
        }
        handles_b.push(
            engine
                .submit(bystander, rb.clone())
                .unwrap()
                .accepted()
                .unwrap(),
        );
    }
    for (t, (handle, expected)) in handles_b.into_iter().zip(&serial_b).enumerate() {
        assert_eq!(
            &handle.wait().unwrap().frame,
            expected,
            "bystander frame {t} differs from the serial decode"
        );
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.panicked, 0);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.decoded, 4);
    assert_eq!(metrics.submitted, 4, "no broken frame took a queue slot");
    assert_eq!(metrics.tenants[nan_budget].submitted, 0);
    assert_eq!(metrics.tenants[zero_budget].submitted, 0);
}
