//! Scheduler panic guard: a panicking decode marks only that frame
//! failed — the worker survives, the tenant queue keeps draining, and
//! other tenants never notice.

use flexcs_core::{Reconstruction, SamplingPlan};
use flexcs_linalg::Matrix;
use flexcs_serve::{
    DecodeBackend, Engine, EngineConfig, FrameRequest, ServeError, Session, SessionConfig,
    WarmDecodeBackend,
};
use flexcs_transform::Dct2d;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Runs `f` with the default panic hook silenced (the injected solver
/// panics would otherwise spam the test log). The global hook is
/// process-wide state, so the two tests here serialize on a lock.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(default_hook);
    out
}

/// Sentinel first measurement marking a poisoned frame. It is finite
/// because submit rejects NaN and ±Inf measurements before a worker
/// sees them.
const POISON: f64 = f64::MAX;

/// Solver stand-in that panics on poisoned frames (marked by the
/// [`POISON`] sentinel in the first measurement) and otherwise delegates
/// to the real warm decoder.
struct PanickingSolver {
    decodes: AtomicU64,
}

impl DecodeBackend for PanickingSolver {
    fn decode(
        &self,
        req: &FrameRequest,
        session: &mut Session,
    ) -> flexcs_core::Result<Reconstruction> {
        self.decodes.fetch_add(1, Ordering::Relaxed);
        assert!(
            req.y[0] != POISON,
            "injected solver panic: measurement buffer corrupted"
        );
        WarmDecodeBackend.decode(req, session)
    }
}

fn sparse_frame(rows: usize, cols: usize) -> Matrix {
    let dct = Dct2d::new(rows, cols).unwrap();
    let mut coeffs = Matrix::zeros(rows, cols);
    coeffs[(0, 0)] = 4.0;
    coeffs[(1, 1)] = 1.2;
    dct.inverse(&coeffs).unwrap()
}

fn request(frame: &Matrix, m: usize, seed: u64) -> FrameRequest {
    let (rows, cols) = (frame.rows(), frame.cols());
    let plan = SamplingPlan::random_subset(rows * cols, m, &[], seed).unwrap();
    FrameRequest {
        rows,
        cols,
        selected: plan.selected().to_vec(),
        y: plan.measure(&frame.to_flat()),
    }
}

#[test]
fn panicking_decode_fails_only_its_frame() {
    let backend = Arc::new(PanickingSolver {
        decodes: AtomicU64::new(0),
    });
    let engine = Engine::with_backend(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&backend) as Arc<dyn DecodeBackend>,
    );
    let victim = engine.register_tenant(SessionConfig::named("victim"));
    let bystander = engine.register_tenant(SessionConfig::named("bystander"));
    let frame = sparse_frame(8, 8);

    // Frames 0,1 fine; frame 2 poisoned; frames 3,4 fine again — all
    // queued before the panic fires, so a wedged queue would strand
    // the tail.
    let (results, bystander_result, after_result) = quiet_panics(|| {
        let mut handles = Vec::new();
        for seed in 0..5u64 {
            let mut req = request(&frame, 40, seed);
            if seed == 2 {
                req.y[0] = POISON;
            }
            handles.push(
                engine
                    .submit(victim, req)
                    .unwrap()
                    .accepted()
                    .expect("queue has room"),
            );
        }
        let bystander_handle = engine
            .submit(bystander, request(&frame, 40, 77))
            .unwrap()
            .accepted()
            .unwrap();
        let results: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
        let bystander_result = bystander_handle.wait();
        // The engine is still live after the panic: a fresh frame
        // decodes.
        let after_result = engine
            .submit(victim, request(&frame, 40, 9))
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        (results, bystander_result, after_result)
    });

    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            match result {
                Err(ServeError::DecodePanic(msg)) => {
                    assert!(msg.contains("injected solver panic"), "payload: {msg}");
                }
                other => panic!("poisoned frame should fail with DecodePanic, got {other:?}"),
            }
        } else {
            let decoded = result.as_ref().expect("healthy frames decode");
            assert!(decoded.report.converged || decoded.report.iterations > 0);
        }
    }
    assert!(
        bystander_result.is_ok(),
        "other tenants are untouched by the panic"
    );
    assert!(after_result.is_ok(), "queue is not wedged after a panic");
    assert_eq!(backend.decodes.load(Ordering::Relaxed), 7);

    let metrics = engine.metrics();
    assert_eq!(metrics.panicked, 1);
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.decoded, 6);
}

#[test]
fn warm_state_resets_after_panic_keeps_decodes_finite() {
    let engine = Engine::with_backend(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        Arc::new(PanickingSolver {
            decodes: AtomicU64::new(0),
        }),
    );
    let tenant = engine.register_tenant(SessionConfig::named("reset"));
    let frame = sparse_frame(8, 8);

    // Warm up, panic, then decode again: the post-panic decode runs on
    // reset warm state and must produce a sane reconstruction.
    let (warm_result, crash_result, recovered_result) = quiet_panics(|| {
        let warm = engine
            .submit(tenant, request(&frame, 40, 1))
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        let mut poisoned = request(&frame, 40, 2);
        poisoned.y[0] = POISON;
        let crash = engine
            .submit(tenant, poisoned)
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        let recovered = engine
            .submit(tenant, request(&frame, 40, 3))
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        (warm, crash, recovered)
    });
    assert!(warm_result.is_ok());
    assert!(matches!(crash_result, Err(ServeError::DecodePanic(_))));
    let decoded = recovered_result.expect("decode after panic succeeds");
    assert!(
        decoded.frame.max_abs_diff(&frame).unwrap() < 0.05,
        "post-panic reconstruction is sane (reset warm state)"
    );
}

#[test]
fn duplicate_sample_indices_fail_as_decode_errors() {
    // A repeated pixel index passes the submit-time structural checks
    // but makes the operator's adjoint wrong; the decoder must refuse
    // it with a typed error, never a worker panic, on every session
    // kind.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let tenants = [
        engine.register_tenant(SessionConfig::named("warm")),
        engine.register_tenant(SessionConfig::named("adaptive").with_frame_budget_us(5_000.0)),
    ];
    let frame = sparse_frame(8, 8);
    let mut req = request(&frame, 40, 4);
    req.selected[1] = req.selected[0];
    for tenant in tenants {
        let result = engine
            .submit(tenant, req.clone())
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        assert!(
            matches!(
                result,
                Err(ServeError::Decode(flexcs_core::CoreError::InvalidConfig(_)))
            ),
            "duplicate indices: {result:?}"
        );
        // The tenant still serves a well-formed frame afterwards.
        let ok = engine
            .submit(tenant, request(&frame, 40, 5))
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        assert!(ok.is_ok(), "tenant wedged after a rejected frame");
    }
}

#[test]
fn non_finite_measurements_are_rejected_at_submit() {
    // NaN or ±Inf measurements never reach a worker, whatever the
    // session's decode mode: submit refuses them as bad requests.
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let tenants = [
        engine.register_tenant(SessionConfig::named("warm")),
        engine.register_tenant(
            SessionConfig::named("adaptive").with_adaptive(flexcs_core::AdaptiveConfig::default()),
        ),
    ];
    let frame = sparse_frame(8, 8);
    for tenant in tenants {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut req = request(&frame, 40, 6);
            req.y[7] = bad;
            let submitted = engine.submit(tenant, req);
            assert!(
                matches!(submitted, Err(ServeError::BadRequest(_))),
                "y = {bad}: {submitted:?}"
            );
        }
        let ok = engine
            .submit(tenant, request(&frame, 40, 7))
            .unwrap()
            .accepted()
            .unwrap()
            .wait();
        assert!(ok.is_ok(), "tenant wedged after a rejected frame");
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.decoded, 2);
    assert_eq!(metrics.failed, 0);
}
