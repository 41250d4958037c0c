//! Property-style tests for the coordination service.
//!
//! Each property runs many randomized trials drawn from a seeded
//! `samzasql_testkit::Rng` (deterministic across runs), one of them with
//! real thread interleaving on the shared service.

use samzasql_coord::Coord;
use samzasql_testkit::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

/// Property: a deletion watch fires exactly once — on the deletion, never on
/// the writes before it, and not again when the node is re-created and
/// deleted — across randomized op sequences.
#[test]
fn one_shot_watches_fire_exactly_once() {
    let mut rng = Rng::new(42);
    for trial in 0..50 {
        let coord = Coord::new();
        let path = format!("/w/{trial}");
        coord.upsert(path.as_str(), "0").unwrap();
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        assert!(coord.watch_deleted(path.as_str(), move || {
            fired2.fetch_add(1, Ordering::SeqCst);
        }));

        let writes = rng.gen_range(0..10);
        for i in 0..writes {
            coord.upsert(path.as_str(), format!("{i}")).unwrap();
        }
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "trial {trial}: a write fired it"
        );
        let deletions = 1 + rng.gen_range(0..3);
        for _ in 0..deletions {
            coord.upsert(path.as_str(), "again").unwrap();
            coord.delete_recursive(path.as_str()).unwrap();
        }
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "trial {trial}: one-shot watch fired more (or less) than once over \
             {writes} writes and {deletions} deletions"
        );
    }
}

/// Property: with threads racing to create, watch and delete the same few
/// nodes, every armed watch fires exactly once: a callback queued while
/// another thread is delivering is run by that thread's drain.
#[test]
fn racing_deleters_fire_every_armed_watch_once() {
    let coord = Coord::new();
    let armed = Arc::new(AtomicUsize::new(0));
    let fired = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let (coord, armed, fired) = (coord.clone(), armed.clone(), fired.clone());
            thread::spawn(move || {
                let mut rng = Rng::new(t);
                for _ in 0..300 {
                    let path = format!("/race/n{}", rng.gen_range(0..4));
                    match rng.gen_range(0..3) {
                        0 => coord.upsert(path.as_str(), "").unwrap(),
                        1 => {
                            let fired = fired.clone();
                            if coord.watch_deleted(path.as_str(), move || {
                                fired.fetch_add(1, Ordering::SeqCst);
                            }) {
                                armed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        _ => coord.delete_recursive(path.as_str()).unwrap(),
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    coord.delete_recursive("/race").unwrap();
    assert!(armed.load(Ordering::SeqCst) > 0);
    assert_eq!(fired.load(Ordering::SeqCst), armed.load(Ordering::SeqCst));
    assert_eq!(
        coord.metrics().watches_fired,
        armed.load(Ordering::SeqCst) as u64
    );
}

/// Property: when a session ends — by timeout, force-expiry, or graceful
/// close — every ephemeral it owned disappears, and nothing owned by other
/// sessions is touched.
#[test]
fn session_end_reaps_exactly_its_ephemerals() {
    let mut rng = Rng::new(7);
    for trial in 0..30 {
        let coord = Coord::new();
        let sessions: Vec<_> = (0..4).map(|_| coord.create_session(1_000)).collect();
        let mut owned: Vec<Vec<String>> = vec![Vec::new(); sessions.len()];
        for i in 0..40 {
            let si = rng.gen_range(0..sessions.len());
            let path = format!("/eph/s{si}-n{i}");
            coord
                .create_ephemeral(sessions[si], path.as_str(), "")
                .unwrap();
            owned[si].push(path);
        }

        // End a random subset, one session per mechanism the trial picks.
        let mut ended = vec![false; sessions.len()];
        for (si, session) in sessions.iter().enumerate() {
            match rng.gen_range(0..4) {
                0 => {
                    coord.force_expire(*session).unwrap();
                    ended[si] = true;
                }
                1 => {
                    coord.close_session(*session).unwrap();
                    ended[si] = true;
                }
                2 => {
                    coord.set_drop_heartbeats(*session, true).unwrap();
                    ended[si] = true; // will expire at the advance below
                }
                _ => {}
            }
        }
        // Keep survivors alive across the expiry sweep: move the clock to
        // t=500 so their heartbeat actually refreshes `last_heartbeat`, then
        // push past the timeout of everyone who did not refresh.
        coord.advance(500);
        for (si, session) in sessions.iter().enumerate() {
            if !ended[si] {
                coord.heartbeat(*session).unwrap();
            }
        }
        coord.advance(501);

        for (si, paths) in owned.iter().enumerate() {
            for path in paths {
                assert_eq!(
                    coord.exists(path.as_str()),
                    !ended[si],
                    "trial {trial}: {path} outlived its session or died before it"
                );
            }
            assert_eq!(coord.session_alive(sessions[si]), !ended[si]);
        }
    }
}

/// Property: when a session owning several watched ephemerals expires,
/// each of their callbacks fires exactly once, in deletion order (the
/// session's ephemerals go in path order); watches on other sessions'
/// nodes stay armed.
#[test]
fn session_expiry_fires_deletion_watches_in_deletion_order() {
    let mut rng = Rng::new(1234);
    for trial in 0..30 {
        let coord = Coord::new();
        let doomed = coord.create_session(1_000);
        let survivor = coord.create_session(1_000);
        let fired: Arc<Mutex<Vec<String>>> = Arc::default();
        let mut expected = Vec::new();
        for i in 0..rng.gen_range(2..20) {
            let (session, path) = if rng.gen_bool(0.7) {
                (doomed, format!("/live/d{i:02}"))
            } else {
                (survivor, format!("/live/s{i:02}"))
            };
            coord.create_ephemeral(session, path.as_str(), "").unwrap();
            if rng.gen_bool(0.8) {
                let (fired, name) = (fired.clone(), path.clone());
                assert!(coord.watch_deleted(path.as_str(), move || {
                    fired.lock().unwrap().push(name);
                }));
                if session == doomed {
                    expected.push(path);
                }
            }
        }
        expected.sort();

        match rng.gen_range(0..2) {
            0 => coord.force_expire(doomed).unwrap(),
            _ => {
                coord.advance(500);
                coord.heartbeat(survivor).unwrap();
                coord.advance(501);
            }
        }
        assert!(!coord.session_alive(doomed));
        assert!(coord.session_alive(survivor));
        assert_eq!(*fired.lock().unwrap(), expected, "trial {trial}");
    }
}
