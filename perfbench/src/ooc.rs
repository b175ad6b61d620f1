//! `ooc-solve`: `out_of_core_matching` over a stream the benchmark spills to
//! disk during set-up (`SpillWriter`) and the pass engine reads back
//! (`SpilledShards`) — readback, pass engine and local-matching kernel; the
//! dual-primal solver does no work here.

use crate::check::{check_bound, check_disjoint};
use crate::report::{median, Timed};
use crate::trace::{RegistryDelta, SpanRec};
use crate::{gen, Bench, RunConfig, Scale};
use dual_primal_matching::engine::ResourceBudget;
use dual_primal_matching::external::{out_of_core_matching, SpillWriter, SpilledShards};
use dual_primal_matching::graph::{Edge, EdgeId, VertexId};
use dual_primal_matching::mapreduce::{EdgeSource, PassEngine};
use std::collections::BTreeMap;
use std::time::Instant;

/// Replacement factor of the local-matching kernel.
const GAMMA: f64 = 0.05;

/// Pass-engine worker threads. One thread keeps the op a single-core
/// measurement: with two, a 2-core host's neighbours doubled the run-to-run
/// spread of the op time.
const WORKERS: usize = 1;

/// Count-only readback passes a traced run times.
const READBACK_PASSES: usize = 5;

struct Sizes {
    n: usize,
    m: usize,
    shards: usize,
    /// Readback batch per reader, in edges.
    io_batch: usize,
    /// Resident-edge budget: readback buffers and coordinator candidates.
    resident_budget: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // 2^19 edges = 12 MiB of records; the budget is 1/16 of the stream.
        Scale::Full => {
            Sizes { n: 512, m: 1 << 19, shards: 64, io_batch: 8192, resident_budget: 1 << 15 }
        }
        Scale::Mini => {
            Sizes { n: 64, m: 1 << 12, shards: 8, io_batch: 128, resident_budget: 1 << 9 }
        }
    }
}

/// The benchmark's stream: edge `id` is a pure function of `(seed, id)`, so
/// it can be regenerated to check results without being stored, and streamed
/// in memory (unspilled) as the reference the spilled solve must equal.
struct Stream {
    n: usize,
    m: usize,
    shards: usize,
    seed: u64,
}

impl Stream {
    fn edge_at(&self, id: EdgeId) -> Edge {
        let h1 = gen::splitmix64(self.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let h2 = gen::splitmix64(h1);
        let h3 = gen::splitmix64(h2);
        let u = (h1 % self.n as u64) as VertexId;
        let mut v = (h2 % (self.n as u64 - 1)) as VertexId;
        if v >= u {
            v += 1;
        }
        Edge::new(u, v, 1.0 + 9.0 * ((h3 >> 11) as f64 / (1u64 << 53) as f64))
    }

    fn bounds(&self, shard: usize) -> (usize, usize) {
        (shard * self.m / self.shards, (shard + 1) * self.m / self.shards)
    }
}

impl EdgeSource for Stream {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn num_shards(&self) -> usize {
        self.shards
    }

    fn shard_len(&self, shard: usize) -> usize {
        let (lo, hi) = self.bounds(shard);
        hi - lo
    }

    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
        let (lo, hi) = self.bounds(shard);
        for id in lo..hi {
            if !visit(id, self.edge_at(id)) {
                return;
            }
        }
    }
}

pub struct OocSolve {
    stream: Stream,
    spilled: SpilledShards,
    spill_s: f64,
    budget: ResourceBudget,
    bound: f64,
    /// Checksum and weight bits of the in-memory run over the unspilled stream.
    reference: (u64, u64),
}

impl OocSolve {
    pub fn setup(cfg: &RunConfig, index: usize) -> Result<Self, String> {
        let s = sizes(cfg.scale);
        let stream =
            Stream { n: s.n, m: s.m, shards: s.shards, seed: gen::splitmix64(cfg.seed ^ 0x00C) };
        let dir = cfg.setup_dir(index)?.join("spill");
        let start = Instant::now();
        let mut writer = SpillWriter::create(&dir, s.n, s.shards).map_err(|e| e.to_string())?;
        let mut maxw = vec![0.0f64; s.n];
        for shard in 0..s.shards {
            let (lo, hi) = stream.bounds(shard);
            for id in lo..hi {
                let e = stream.edge_at(id);
                maxw[e.u as usize] = maxw[e.u as usize].max(e.w);
                maxw[e.v as usize] = maxw[e.v as usize].max(e.w);
                writer.push(shard, id, e).map_err(|e| e.to_string())?;
            }
        }
        let spilled = writer.finish().map_err(|e| e.to_string())?.with_io_batch(s.io_batch);
        let spill_s = start.elapsed().as_secs_f64();
        let memory = out_of_core_matching(&mut PassEngine::new(WORKERS), &stream, GAMMA)
            .map_err(|e| format!("in-memory reference: {e}"))?;
        let mut bench = OocSolve {
            stream,
            spilled,
            spill_s,
            budget: ResourceBudget::unlimited().with_max_central_space(s.resident_budget),
            bound: maxw.iter().sum::<f64>() / 2.0,
            reference: (memory.checksum(), memory.weight.to_bits()),
        };
        let mut errors = Vec::new();
        bench.round(&mut Timed::default(), &mut errors);
        match errors.first() {
            Some(e) => Err(format!("warm-up solve: {e}")),
            None => Ok(bench),
        }
    }

    /// Checks a spilled solve's matching against the regenerated stream.
    fn check(&self, edges: &[(EdgeId, Edge)], weight: f64, checksum: u64) -> Result<(), String> {
        for &(id, e) in edges {
            let fresh = self.stream.edge_at(id);
            if fresh.key() != e.key() || fresh.w.to_bits() != e.w.to_bits() {
                return Err(format!("edge {id} is {e:?} but the stream holds {fresh:?}"));
            }
        }
        check_disjoint(self.stream.n, edges.iter().map(|(_, e)| (e.u, e.v)))?;
        check_bound(weight, self.bound)?;
        if (checksum, weight.to_bits()) != self.reference {
            return Err("the spilled solve differs from the in-memory run".to_string());
        }
        Ok(())
    }

    /// Median time of a count-only batch pass over the spill, and the edges
    /// it counted.
    fn readback(&self) -> Result<(f64, usize), String> {
        let mut times = Vec::with_capacity(READBACK_PASSES);
        let mut counted = 0;
        for _ in 0..READBACK_PASSES {
            let mut engine = PassEngine::new(WORKERS);
            let start = Instant::now();
            let counts = engine
                .pass_batches(&self.spilled, |_| 0usize, |acc, batch| *acc += batch.len())
                .map_err(|e| e.to_string())?;
            times.push(start.elapsed().as_secs_f64() * 1e3);
            counted = counts.iter().sum();
        }
        Ok((median(&times), counted))
    }
}

impl Bench for OocSolve {
    fn round(&mut self, timed: &mut Timed, errors: &mut Vec<String>) {
        let mut engine = PassEngine::new(WORKERS).with_budget(self.budget.pass_budget(0));
        let start = Instant::now();
        let result = out_of_core_matching(&mut engine, &self.spilled, GAMMA);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(m) => {
                self.spilled.charge_io(engine.tracker_mut());
                let outcome = self
                    .budget
                    .check_tracker(engine.tracker())
                    .map_err(|e| format!("resident budget: {e}"))
                    .and_then(|()| self.spilled.check().map_err(|e| e.to_string()))
                    .and_then(|()| self.check(&m.edges, m.weight, m.checksum()));
                if let Err(e) = outcome {
                    errors.push(e);
                }
                timed.record(
                    ms,
                    m.weight / self.bound,
                    engine.passes() as f64,
                    engine.tracker().peak_central_space() as f64,
                );
            }
            Err(e) => {
                errors.push(format!("out-of-core solve failed: {e}"));
                timed.record_failure();
            }
        }
    }

    fn verify(&mut self, _timed: &mut Timed, _errors: &mut Vec<String>) {}

    fn layers(
        &mut self,
        traced: &Timed,
        _spans: &[SpanRec],
        _delta: &RegistryDelta,
        values: &mut BTreeMap<&'static str, f64>,
        errors: &mut Vec<String>,
    ) {
        values.insert("mwm-external.spill_s", self.spill_s);
        match self.readback() {
            Ok((ms, counted)) => {
                if counted != self.stream.m {
                    errors.push(format!("readback counted {counted} of {} edges", self.stream.m));
                }
                let mb = self.spilled.bytes_on_disk() as f64 / (1 << 20) as f64;
                values.insert("mwm-external.readback_ms", ms);
                values.insert("mwm-external.readback_mb_per_s", mb / (ms / 1e3));
                values.insert("mwm-external.kernel_ms", median(&traced.latencies_ms) - ms);
            }
            Err(e) => errors.push(format!("readback pass: {e}")),
        }
    }
}
