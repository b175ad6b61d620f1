//! `serve-write` and `serve-read`: the serving tier driven over a Unix
//! socket by one closed-loop client (`NetClient` callers block on each
//! reply), with the service and its socket server in the same process.

use crate::check::{check_matching, check_read, vertex_bound, Committed};
use crate::host::nproc;
use crate::report::{mean, median, Timed};
use crate::trace::{self, RegistryDelta, SpanRec};
use crate::{gen, Bench, RunConfig, Scale};
use dual_primal_matching::engine::{
    DynamicConfig, DynamicMatcher, EpochDecision, EpochStats, MatchingService, NetClient,
    ResourceBudget, ServiceConfig, SessionStore, SocketServer, WalRecord,
};
use dual_primal_matching::graph::{Edge, Graph, GraphUpdate};
use dual_primal_matching::persist::codec::{encode_stats, encode_updates, ByteWriter};
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds of in-process twin requests a traced run sends after its traced
/// phase, to split socket cost from service cost.
const TWIN_ROUNDS: usize = 3;

/// Hibernate/revive pairs a traced `serve-write` run times on a private store.
const IMAGE_ROUNDS: usize = 20;

/// Wire frame overhead: the `u32` length prefix plus the tag byte.
const FRAME_AND_TAG: usize = 5;

/// The service, its socket server and the one connected client.
struct Front {
    /// `Some` until the front is dropped.
    service: Option<Arc<MatchingService>>,
    server: Option<SocketServer>,
    client: Option<NetClient>,
}

/// How long a shutdown waits for connection threads to release the service.
const SHUTDOWN_WAIT: Duration = Duration::from_secs(10);

impl Front {
    fn start(config: ServiceConfig, socket: &Path) -> Result<Front, String> {
        let service = Arc::new(MatchingService::start(config).map_err(|e| e.to_string())?);
        let server = SocketServer::bind_uds(Arc::clone(&service), socket)
            .map_err(|e| format!("binding {}: {e}", socket.display()))?;
        let client = NetClient::connect_uds(socket)
            .map_err(|e| format!("connecting {}: {e}", socket.display()))?;
        Ok(Front { service: Some(service), server: Some(server), client: Some(client) })
    }

    fn client(&mut self) -> &mut NetClient {
        self.client.as_mut().expect("client lives as long as the front")
    }

    fn service(&self) -> &Arc<MatchingService> {
        self.service.as_ref().expect("service lives as long as the front")
    }
}

impl Drop for Front {
    /// Hangs up, stops accepting, waits for the connection thread to let go
    /// of the service, then shuts the service down, joining its workers (which
    /// checkpoint resident sessions), so nothing writes to the work directory
    /// after the front is gone.
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let Some(mut service) = self.service.take() else { return };
        let deadline = Instant::now() + SHUTDOWN_WAIT;
        loop {
            match Arc::try_unwrap(service) {
                Ok(service) => return service.shutdown(),
                Err(shared) if Instant::now() < deadline => {
                    service = shared;
                    std::thread::sleep(Duration::from_millis(5));
                }
                // A connection thread still holds it: its last drop joins
                // the workers instead.
                Err(_) => return,
            }
        }
    }
}

/// A socket path as short as the working directory allows (Unix socket
/// paths are limited to ~100 bytes).
fn socket_path(dir: &Path) -> PathBuf {
    let path = dir.join("sock");
    match std::env::current_dir() {
        Ok(cwd) => path.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(path),
        Err(_) => path,
    }
}

/// Encoded size of a string field.
fn str_bytes(s: &str) -> usize {
    let mut w = ByteWriter::new();
    w.str(s).expect("session names fit the codec");
    w.len()
}

/// Each write's latency minus the `epoch` span that applied its batch (the
/// bootstraps' empty batches are skipped), pairing them in order: with one
/// client and one write in flight, epochs close in write order.
fn minus_batch_epochs(latencies: &[f64], spans: &[SpanRec]) -> Result<Vec<f64>, String> {
    let epochs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "epoch" && trace::field(s, "updates").is_some_and(|n| n > 0))
        .map(SpanRec::ms)
        .collect();
    if epochs.len() != latencies.len() {
        return Err(format!("{} batch epochs for {} writes", epochs.len(), latencies.len()));
    }
    Ok(latencies.iter().zip(&epochs).map(|(t, e)| t - e).collect())
}

// ---------------------------------------------------------------- serve-write

struct WriteSizes {
    /// Sessions written round-robin at any time.
    slots: usize,
    n: usize,
    m: usize,
    /// Deletes and inserts per batch: `2k` distinct vertices are touched, so
    /// every batch lands in the warm re-solve band of the epoch policy.
    k: usize,
    /// Writes a session takes before it is retired and replaced by a fresh
    /// one. A session's warm epochs slow down as it ages (its carried duals
    /// grow), so a fixed lifetime keeps the timed population the same
    /// mixture of ages however many writes a run fits in.
    lifetime: usize,
}

fn write_sizes(scale: Scale) -> WriteSizes {
    match scale {
        // 4..8 touched vertices of 48: damage 0.08..0.17, inside (0.05, 0.5].
        Scale::Full => WriteSizes { slots: 8, n: 48, m: 240, k: 2, lifetime: 32 },
        Scale::Mini => WriteSizes { slots: 2, n: 16, m: 40, k: 1, lifetime: 3 },
    }
}

/// Per-epoch figures of the serial replay, aligned with `served`.
#[derive(Clone, Copy, Default)]
struct ReplayFigures {
    central: f64,
    stored_edges: f64,
    kept_fraction: f64,
}

/// Matched edges as the wire returns them: `(edge id, edge, multiplicity)`.
type Entries = Vec<(usize, Edge, u64)>;

struct WriteSession {
    name: String,
    base: Graph,
    model: gen::WindowModel,
    /// Every batch the session committed, the bootstrap's empty one first.
    batches: Vec<Vec<GraphUpdate>>,
    /// The ledger row the service reported for each batch.
    served: Vec<EpochStats>,
    /// The final matching and weight bits read over the socket at retirement.
    retired: Option<(Entries, u64)>,
}

/// A serial `DynamicMatcher` replay of every session's history.
struct Replay {
    /// History length per session when the replay was made.
    epochs: Vec<usize>,
    /// Per-session, per-epoch figures.
    figures: Vec<Vec<ReplayFigures>>,
    /// Per-session final matching and weight bits.
    finals: Vec<(Entries, u64)>,
}

pub struct ServeWrite {
    front: Front,
    /// Every session this set-up created, retired ones included.
    sessions: Vec<WriteSession>,
    /// The live session of each slot, as an index into `sessions`.
    slots: Vec<usize>,
    sizes: WriteSizes,
    seed: u64,
    rng: StdRng,
    /// `(session, epoch)` of every timed socket write, in order.
    op_log: Vec<(usize, usize)>,
    replay: Option<Replay>,
    dir: PathBuf,
}

impl ServeWrite {
    pub fn setup(cfg: &RunConfig, index: usize) -> Result<Self, String> {
        let sizes = write_sizes(cfg.scale);
        let dir = cfg.setup_dir(index)?;
        let config = ServiceConfig {
            workers: nproc().min(2),
            parallelism: 1,
            store_dir: Some(dir.join("store")),
            ..ServiceConfig::default()
        };
        let front = Front::start(config, &socket_path(&dir))?;
        let mut bench = ServeWrite {
            front,
            sessions: Vec::new(),
            slots: Vec::new(),
            sizes,
            seed: cfg.seed,
            rng: gen::rng(cfg.seed, 299),
            op_log: Vec::new(),
            replay: None,
            dir,
        };
        for _ in 0..bench.sizes.slots {
            let session = bench.create()?;
            bench.slots.push(session);
        }
        let mut errors = Vec::new();
        bench.write(0, &mut Timed::default(), &mut errors, false);
        match errors.first() {
            Some(e) => Err(format!("warm-up write: {e}")),
            None => Ok(bench),
        }
    }

    /// Creates and bootstraps the next session over the socket; returns its
    /// index. Its base graph is drawn from the seed and its creation order.
    fn create(&mut self) -> Result<usize, String> {
        let index = self.sessions.len();
        let s = &self.sizes;
        let edges = gen::gnm_edges(s.n, s.m, &mut gen::rng(self.seed, 1000 + index as u64));
        let base = gen::graph_of(s.n, &edges);
        let name = format!("w{index:05}");
        let client = self.front.client();
        client.create_session(&name, &base).map_err(|e| e.to_string())?;
        let boot = client.submit_batch(&name, &[]).map_err(|e| e.to_string())?;
        self.sessions.push(WriteSession {
            name,
            base,
            model: gen::WindowModel::new(s.n, &edges),
            batches: vec![Vec::new()],
            served: vec![boot],
            retired: None,
        });
        Ok(index)
    }

    /// Reads a session's final matching over the socket, checks it on the
    /// benchmark's model of the live window and keeps it for the replay.
    fn read_final(&mut self, index: usize, errors: &mut Vec<String>) -> Option<(Entries, u64)> {
        let name = self.sessions[index].name.clone();
        match self.front.client().matching(&name) {
            Ok(remote) => {
                let live = &self.sessions[index].model.live;
                if let Err(e) = check_matching(self.sizes.n, live, &remote.entries, remote.weight) {
                    errors.push(format!("{name}: final matching: {e}"));
                }
                Some((remote.entries, remote.weight.to_bits()))
            }
            Err(e) => {
                errors.push(format!("{name}: final read failed: {e}"));
                None
            }
        }
    }

    /// Retires the session in `slot` (final read, drop) and puts a fresh one
    /// in its place. Untimed.
    fn recycle(&mut self, slot: usize, errors: &mut Vec<String>) {
        let old = self.slots[slot];
        self.sessions[old].retired = self.read_final(old, errors);
        let name = self.sessions[old].name.clone();
        if let Err(e) = self.front.client().drop_session(&name) {
            errors.push(format!("{name}: drop failed: {e}"));
        }
        match self.create() {
            Ok(fresh) => self.slots[slot] = fresh,
            Err(e) => errors.push(format!("replacing {name}: {e}")),
        }
    }

    /// One sliding-window batch to the session in `slot`, over the socket or
    /// (for the traced run's twin) in-process. Returns the latency on success.
    fn write(
        &mut self,
        slot: usize,
        timed: &mut Timed,
        errors: &mut Vec<String>,
        in_process: bool,
    ) -> Option<f64> {
        let index = self.slots[slot];
        let batch = self.sessions[index].model.slide(self.sizes.k, &mut self.rng);
        let name = self.sessions[index].name.clone();
        let start = Instant::now();
        let result = if in_process {
            self.front.service().submit_batch(&name, batch.clone())
        } else {
            self.front.client().submit_batch(&name, &batch)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let session = &mut self.sessions[index];
        match result {
            Ok(stats) => {
                if stats.updates_rejected > 0 {
                    errors.push(format!("{name}: {} updates rejected", stats.updates_rejected));
                }
                let bound = vertex_bound(self.sizes.n, session.model.live.values().copied());
                timed.record(ms, stats.weight / bound, stats.epoch_rounds as f64, 0.0);
                session.batches.push(batch);
                session.served.push(stats);
                if !in_process {
                    self.op_log.push((index, session.batches.len() - 1));
                }
                Some(ms)
            }
            Err(e) => {
                errors.push(format!("{name}: write failed: {e}"));
                timed.record_failure();
                None
            }
        }
    }

    /// Replays every session's history through a serial `DynamicMatcher`
    /// (sessions in parallel on at most `nproc` threads, each building its
    /// matchers locally) unless the last replay is still current, and checks
    /// each replayed epoch against the ledger row the service reported.
    fn replay(&mut self, errors: &mut Vec<String>) {
        let epochs: Vec<usize> = self.sessions.iter().map(|s| s.batches.len()).collect();
        if self.replay.as_ref().is_none_or(|r| r.epochs != epochs) {
            let threads = nproc().min(2);
            let chunk = self.sessions.len().div_ceil(threads);
            let results: Vec<SessionReplay> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .sessions
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || part.iter().map(replay_session).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("replay thread panicked"))
                    .collect()
            });
            let mut replay = Replay { epochs, figures: Vec::new(), finals: Vec::new() };
            for r in results {
                errors.extend(r.errors);
                replay.figures.push(r.figures);
                replay.finals.push(r.last);
            }
            self.replay = Some(replay);
        }
    }

    fn wire_bytes(&self, session: usize, epoch: usize) -> f64 {
        let s = &self.sessions[session];
        let mut request = ByteWriter::new();
        encode_updates(&mut request, &s.batches[epoch]).expect("batches fit the codec");
        let mut response = ByteWriter::new();
        encode_stats(&mut response, &s.served[epoch]);
        // request: tag | session | no_wait u8 | updates; response: tag | stats.
        (FRAME_AND_TAG + str_bytes(&s.name) + 1 + request.len() + FRAME_AND_TAG + response.len())
            as f64
    }

    /// Writes [`TWIN_ROUNDS`] batches to every live session through
    /// `MatchingService` directly. Returns each write's latency minus the
    /// epoch span inside it.
    fn twin(&mut self, errors: &mut Vec<String>) -> Result<Vec<f64>, String> {
        let mut latencies = Vec::new();
        let mut twin = Timed::default();
        trace::start();
        for _ in 0..TWIN_ROUNDS {
            for slot in 0..self.slots.len() {
                latencies.extend(self.write(slot, &mut twin, errors, true));
            }
        }
        minus_batch_epochs(&latencies, &trace::stop())
    }

    /// Hibernates and revives one live session through a private
    /// `SessionStore` [`IMAGE_ROUNDS`] times: median `save` (image encode,
    /// write, `fsync`) and `load` (read, decode) in ms, and the image size.
    fn image_timings(&self) -> Result<(f64, f64, f64), String> {
        let s = &self.sessions[self.slots[0]];
        let budget = ResourceBudget::unlimited().with_parallelism(1);
        let mut dm =
            DynamicMatcher::new(&s.base, DynamicConfig::default()).map_err(|e| e.to_string())?;
        for batch in &s.batches {
            dm.apply_epoch(batch, &budget).map_err(|e| e.to_string())?;
        }
        let dir = self.dir.join("image-store");
        let mut store = SessionStore::open(&dir).map_err(|e| e.to_string())?;
        let (mut save, mut load) = (Vec::new(), Vec::new());
        for _ in 0..IMAGE_ROUNDS {
            let start = Instant::now();
            store.save(&s.name, &dm).map_err(|e| e.to_string())?;
            save.push(start.elapsed().as_secs_f64() * 1e3);
            let start = Instant::now();
            let (revived, _) = store.load(&s.name).map_err(|e| e.to_string())?;
            load.push(start.elapsed().as_secs_f64() * 1e3);
            if revived.weight().to_bits() != dm.weight().to_bits() {
                return Err(format!("{}: revived weight differs from the hibernated one", s.name));
            }
        }
        let bytes = std::fs::read_dir(&dir)
            .map_err(|e| e.to_string())?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "img"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len() as f64)
            .sum();
        std::fs::remove_dir_all(&dir).ok();
        Ok((median(&save), median(&load), bytes))
    }

    /// Median time of one `SessionStore::append` of a committed batch.
    fn wal_append_us(&self, logged: &[(usize, usize)]) -> Result<f64, String> {
        let dir = self.dir.join("private-store");
        let mut store = SessionStore::open(&dir).map_err(|e| e.to_string())?;
        let s = &self.sessions[0];
        let dm =
            DynamicMatcher::new(&s.base, DynamicConfig::default()).map_err(|e| e.to_string())?;
        store.save(&s.name, &dm).map_err(|e| e.to_string())?;
        let mut times = Vec::with_capacity(logged.len());
        for &(i, epoch) in logged {
            let updates = self.sessions[i].batches[epoch].clone();
            let record = WalRecord::Batch { epoch: epoch as u64, updates };
            let start = Instant::now();
            store.append(&s.name, &record).map_err(|e| e.to_string())?;
            times.push(start.elapsed().as_secs_f64() * 1e6);
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(median(&times))
    }
}

/// One session's replay: per-epoch figures, final matching, disagreements.
struct SessionReplay {
    figures: Vec<ReplayFigures>,
    last: (Entries, u64),
    errors: Vec<String>,
}

fn replay_session(s: &WriteSession) -> SessionReplay {
    let mut out = SessionReplay { figures: Vec::new(), last: (Vec::new(), 0), errors: Vec::new() };
    let budget = ResourceBudget::unlimited().with_parallelism(1);
    let mut dm = match DynamicMatcher::new(&s.base, DynamicConfig::default()) {
        Ok(dm) => dm,
        Err(e) => {
            out.errors.push(format!("{}: replay set-up: {e}", s.name));
            return out;
        }
    };
    for (epoch, (batch, served)) in s.batches.iter().zip(&s.served).enumerate() {
        let report = match dm.apply_epoch(batch, &budget) {
            Ok(report) => report,
            Err(e) => {
                out.errors.push(format!("{}: replay of epoch {epoch}: {e}", s.name));
                return out;
            }
        };
        if report.stats.weight.to_bits() != served.weight.to_bits()
            || report.stats.decision != served.decision
            || report.stats.epoch_rounds != served.epoch_rounds
        {
            out.errors.push(format!(
                "{}: epoch {epoch} served weight {} ({}, {} rounds) but a serial replay gives {} \
                 ({}, {} rounds)",
                s.name,
                served.weight,
                served.decision,
                served.epoch_rounds,
                report.stats.weight,
                report.stats.decision,
                report.stats.epoch_rounds
            ));
        }
        let figures = match &report.solve {
            Some(solve) => {
                let main_rounds = solve.stat("main_rounds").unwrap_or(0.0).max(1.0);
                let per_round = solve.stat("sparsifiers_built").unwrap_or(0.0) / main_rounds;
                let stored = solve.stat("sparsifier_edges_last_round").unwrap_or(0.0);
                let live = dm.overlay().num_live_edges() as f64;
                ReplayFigures {
                    central: solve.peak_central_space() as f64,
                    stored_edges: stored,
                    kept_fraction: stored / (per_round * live).max(1.0),
                }
            }
            None => ReplayFigures::default(),
        };
        out.figures.push(figures);
    }
    out.last = (dm.committed().matching.iter().collect(), dm.weight().to_bits());
    out
}

impl Bench for ServeWrite {
    fn round(&mut self, timed: &mut Timed, errors: &mut Vec<String>) {
        for slot in 0..self.slots.len() {
            if self.sessions[self.slots[slot]].batches.len() > self.sizes.lifetime {
                self.recycle(slot, errors);
            }
            self.write(slot, timed, errors, false);
        }
    }

    fn verify(&mut self, timed: &mut Timed, errors: &mut Vec<String>) {
        let live: Vec<usize> = self.slots.clone();
        for index in live {
            self.sessions[index].retired = self.read_final(index, errors);
        }
        let logged = self.op_log[self.op_log.len().saturating_sub(timed.central.len())..].to_vec();
        self.replay(errors);
        let replay = self.replay.as_ref().expect("replayed above");
        // Central space per timed write, from the bit-identical replay.
        let central: Vec<f64> = logged
            .iter()
            .map(|&(i, epoch)| replay.figures[i].get(epoch).map_or(0.0, |f| f.central))
            .collect();
        let mismatched: Vec<usize> = replay
            .finals
            .iter()
            .zip(&self.sessions)
            .enumerate()
            .filter(|(_, (last, s))| s.retired.as_ref().is_some_and(|read| read != *last))
            .map(|(i, _)| i)
            .collect();
        timed.central.copy_from_slice(&central);
        for i in mismatched {
            errors.push(format!(
                "{}: final matching differs from the serial replay",
                self.sessions[i].name
            ));
        }
    }

    fn layers(
        &mut self,
        traced: &Timed,
        spans: &[SpanRec],
        delta: &RegistryDelta,
        values: &mut BTreeMap<&'static str, f64>,
        errors: &mut Vec<String>,
    ) {
        let ops = traced.latencies_ms.len();
        let logged: Vec<(usize, usize)> = self.op_log[self.op_log.len() - ops..].to_vec();
        let stats: Vec<&EpochStats> =
            logged.iter().map(|&(i, e)| &self.sessions[i].served[e]).collect();
        let solves = delta.counter("solver_solves_total");
        let cap = (2.0 * DynamicConfig::default().p / DynamicConfig::default().eps).ceil() as usize;
        let rounds_of = |d: EpochDecision| -> Vec<f64> {
            stats.iter().filter(|s| s.decision == d).map(|s| s.epoch_rounds as f64).collect()
        };
        let count = |d: EpochDecision| stats.iter().filter(|s| s.decision == d).count() as f64;
        values.insert("mwm-core.solve_ms", trace::median_ms(spans, "solve"));
        values.insert("mwm-core.self_ms", median(&trace::self_ms(spans, "solve", "pass")));
        values.insert("mwm-core.solves", solves);
        let solver_rounds: Vec<f64> =
            stats.iter().filter(|s| s.solver_rounds > 0).map(|s| s.solver_rounds as f64).collect();
        values.insert("mwm-core.rounds", mean(&solver_rounds));
        values.insert(
            "mwm-core.oracle_iterations",
            delta.counter("solver_oracle_iterations_total") / solves.max(1.0),
        );
        values.insert(
            "mwm-core.cap_hits",
            stats.iter().filter(|s| s.solver_rounds >= cap).count() as f64,
        );
        values.insert("mwm-dynamic.epoch_ms", trace::median_ms(spans, "epoch"));
        values.insert("mwm-dynamic.epochs_repair", count(EpochDecision::Repair));
        values.insert("mwm-dynamic.epochs_warm", count(EpochDecision::WarmResolve));
        values.insert("mwm-dynamic.epochs_rebuild", count(EpochDecision::Rebuild));
        values.insert("mwm-dynamic.warm_rounds", mean(&rounds_of(EpochDecision::WarmResolve)));
        // Cold rounds: every session's bootstrap plus any traced rebuild.
        let mut cold: Vec<f64> =
            self.sessions.iter().map(|s| s.served[0].epoch_rounds as f64).collect();
        cold.extend(rounds_of(EpochDecision::Rebuild));
        values.insert("mwm-dynamic.cold_rounds", mean(&cold));
        values.insert(
            "mwm-graph.wire_bytes",
            mean(&logged.iter().map(|&(i, e)| self.wire_bytes(i, e)).collect::<Vec<_>>()),
        );
        values.insert(
            "mwm-persist.revives",
            delta.counter("serve_revives_total") / ops.max(1) as f64,
        );
        match self.wal_append_us(&logged) {
            Ok(us) => {
                values.insert("mwm-persist.wal_append_us", us);
            }
            Err(e) => errors.push(format!("private journal: {e}")),
        }
        match self.image_timings() {
            Ok((save_ms, load_ms, bytes)) => {
                values.insert("mwm-persist.hibernate_ms", save_ms);
                values.insert("mwm-persist.revive_ms", load_ms);
                values.insert("mwm-persist.image_bytes", bytes);
            }
            Err(e) => errors.push(format!("private image store: {e}")),
        }

        // Each socket write minus its own epoch is the front door plus the
        // queue; the in-process twin (the same kind of writes to the same
        // sessions through `MatchingService`; they join the sessions'
        // histories, so the replay below checks them too) is the queue alone.
        let split = minus_batch_epochs(&traced.latencies_ms, spans).and_then(|socket| {
            let queue = self.twin(errors)?;
            Ok((median(&socket), median(&queue)))
        });
        match split {
            Ok((socket, queue)) => {
                values.insert("mwm-serve.net_ms", socket - queue);
                values.insert("mwm-serve.queue_ms", queue);
            }
            Err(e) => errors.push(format!("splitting write latency: {e}")),
        }

        // Sparsifier figures come from the replay, which is bit-identical.
        self.replay(errors);
        let replay = self.replay.as_ref().expect("replayed above");
        let figures: Vec<ReplayFigures> = logged
            .iter()
            .map(|&(i, e)| replay.figures[i].get(e).copied().unwrap_or_default())
            .collect();
        let avg = |f: fn(&ReplayFigures) -> f64| mean(&figures.iter().map(f).collect::<Vec<_>>());
        values.insert("mwm-sparsify.stored_edges", avg(|f| f.stored_edges));
        values.insert("mwm-sparsify.kept_fraction", avg(|f| f.kept_fraction));
    }
}

// ----------------------------------------------------------------- serve-read

struct ReadSizes {
    sessions: usize,
    /// Resident cap: far below `sessions`, so round-robin reads revive.
    resident: usize,
    n: usize,
    m: usize,
    /// History batches per session and their size (repair epochs).
    history: usize,
    k: usize,
}

fn read_sizes(scale: Scale) -> ReadSizes {
    match scale {
        Scale::Full => {
            ReadSizes { sessions: 32, resident: 4, n: 2000, m: 10000, history: 6, k: 20 }
        }
        Scale::Mini => ReadSizes { sessions: 6, resident: 2, n: 40, m: 120, history: 2, k: 1 },
    }
}

/// The sessions' ε: with 1 − 3ε < 0 the solver's own stop rule holds at once,
/// so building many sessions with history stays cheap. Reads run no solver.
const READ_EPS: f64 = 0.45;

struct ReadSession {
    name: String,
    n: usize,
    live: BTreeMap<usize, Edge>,
    bound: f64,
    committed: Committed,
    /// Live edges the service reported for the session: what a revive loads.
    live_edges: f64,
    /// Matched edges of the last read (sizes the response frame).
    matched: usize,
}

pub struct ServeRead {
    front: Front,
    sessions: Vec<ReadSession>,
    store: PathBuf,
}

impl ServeRead {
    pub fn setup(cfg: &RunConfig, index: usize) -> Result<Self, String> {
        let s = read_sizes(cfg.scale);
        let dir = cfg.setup_dir(index)?;
        let store = dir.join("store");
        let config = ServiceConfig {
            workers: 1,
            parallelism: 1,
            store_dir: Some(store.clone()),
            max_resident_sessions: Some(s.resident),
            session_defaults: DynamicConfig { eps: READ_EPS, ..DynamicConfig::default() },
            ..ServiceConfig::default()
        };
        let mut front = Front::start(config, &socket_path(&dir))?;
        let mut rng = gen::rng(cfg.seed, 399);
        let mut sessions = Vec::with_capacity(s.sessions);
        for i in 0..s.sessions {
            let edges = gen::gnm_edges(s.n, s.m, &mut gen::rng(cfg.seed, 300 + i as u64));
            let mut model = gen::WindowModel::new(s.n, &edges);
            let name = format!("r{i:03}");
            let client = front.client();
            client.create_session(&name, &gen::graph_of(s.n, &edges)).map_err(|e| e.to_string())?;
            let mut last = client.submit_batch(&name, &[]).map_err(|e| e.to_string())?;
            for _ in 0..s.history {
                let batch = model.slide(s.k, &mut rng);
                last = client.submit_batch(&name, &batch).map_err(|e| e.to_string())?;
            }
            let stats = client.session_stats(&name).map_err(|e| e.to_string())?;
            if stats.live_edges != model.live.len() {
                return Err(format!(
                    "{name}: {} live edges served, {} in the input",
                    stats.live_edges,
                    model.live.len()
                ));
            }
            sessions.push(ReadSession {
                name,
                n: s.n,
                bound: vertex_bound(s.n, model.live.values().copied()),
                live: model.live,
                committed: Committed {
                    epoch: last.epoch + 1,
                    version: last.version,
                    weight: last.weight,
                },
                live_edges: stats.live_edges as f64,
                matched: 0,
            });
        }
        let mut bench = ServeRead { front, sessions, store };
        let mut errors = Vec::new();
        bench.read(0, &mut Timed::default(), &mut errors);
        match errors.first() {
            Some(e) => Err(format!("warm-up read: {e}")),
            None => Ok(bench),
        }
    }

    fn read(&mut self, i: usize, timed: &mut Timed, errors: &mut Vec<String>) {
        let revives = self.front.service().revives();
        let name = self.sessions[i].name.clone();
        let start = Instant::now();
        let result = self.front.client().matching(&name);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let revived = (self.front.service().revives() - revives) as f64;
        let s = &mut self.sessions[i];
        match result {
            Ok(remote) => {
                let got = Committed {
                    epoch: remote.epoch,
                    version: remote.version,
                    weight: remote.weight,
                };
                if let Err(e) = check_read(s.committed, got).and_then(|()| {
                    check_matching(s.n, &s.live, &remote.entries, remote.weight).map(|_| ())
                }) {
                    errors.push(format!("{name}: {e}"));
                }
                s.matched = remote.entries.len();
                timed.record(ms, remote.weight / s.bound, revived, s.live_edges);
            }
            Err(e) => {
                errors.push(format!("{name}: read failed: {e}"));
                timed.record_failure();
            }
        }
    }

    /// Request plus response frame bytes of one full-matching read.
    fn wire_bytes(&self, s: &ReadSession) -> f64 {
        // response body: epoch u64 | version u64 | weight f64 | count u32 |
        // count × (id u64 | u u32 | v u32 | w f64 | mult u64)
        let response = FRAME_AND_TAG + 8 + 8 + 8 + 4 + 32 * s.matched;
        (FRAME_AND_TAG + str_bytes(&s.name) + response) as f64
    }

    fn image_bytes(&self) -> f64 {
        let sizes: Vec<f64> = std::fs::read_dir(&self.store)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "img"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len() as f64)
                    .collect()
            })
            .unwrap_or_default();
        mean(&sizes)
    }
}

impl Bench for ServeRead {
    fn round(&mut self, timed: &mut Timed, errors: &mut Vec<String>) {
        for i in 0..self.sessions.len() {
            self.read(i, timed, errors);
        }
    }

    fn verify(&mut self, _timed: &mut Timed, errors: &mut Vec<String>) {
        if self.front.service().revives() == 0 {
            errors.push("no read revived a hibernated session".to_string());
        }
    }

    fn layers(
        &mut self,
        traced: &Timed,
        _spans: &[SpanRec],
        delta: &RegistryDelta,
        values: &mut BTreeMap<&'static str, f64>,
        errors: &mut Vec<String>,
    ) {
        let ops = traced.latencies_ms.len();
        let revives = delta.counter("serve_revives_total");
        let latencies = self.front.service().revive_latencies_ms();
        let traced_revives = &latencies[latencies.len().saturating_sub(revives as usize)..];
        values.insert("mwm-persist.revive_ms", median(traced_revives));
        values.insert("mwm-persist.revives", revives / ops.max(1) as f64);
        let (hibernates, hibernate_s) = delta.histogram("serve_hibernate_seconds");
        if hibernates > 0.0 {
            values.insert("mwm-persist.hibernate_ms", 1e3 * hibernate_s / hibernates);
        }
        values.insert("mwm-persist.image_bytes", self.image_bytes());
        values.insert(
            "mwm-graph.wire_bytes",
            mean(&self.sessions.iter().map(|s| self.wire_bytes(s)).collect::<Vec<_>>()),
        );

        // The in-process twin: the same reads through `MatchingService`.
        let mut in_process = Vec::new();
        let mut queue = Vec::new();
        for _ in 0..TWIN_ROUNDS {
            for s in &self.sessions {
                let before = self.front.service().revive_latencies_ms().len();
                let start = Instant::now();
                let result = self.front.service().matching(&s.name);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(snapshot) => {
                        let got = Committed {
                            epoch: snapshot.epoch,
                            version: snapshot.version,
                            weight: snapshot.weight,
                        };
                        if let Err(e) = check_read(s.committed, got) {
                            errors.push(format!("{}: in-process read: {e}", s.name));
                        }
                    }
                    Err(e) => errors.push(format!("{}: in-process read failed: {e}", s.name)),
                }
                in_process.push(ms);
                let revive: f64 = self.front.service().revive_latencies_ms()[before..].iter().sum();
                queue.push(ms - revive);
            }
        }
        values.insert("mwm-serve.net_ms", median(&traced.latencies_ms) - median(&in_process));
        values.insert("mwm-serve.queue_ms", median(&queue));
    }
}
