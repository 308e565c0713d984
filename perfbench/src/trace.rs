//! The traced run: link the workspace crates, rebuild the workload's
//! world layer by layer, and time the public function of each layer
//! from outside over a sample of the workload's queries.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out at the end, with a per-layer table, under
//! `<workdir>/trace/`.

use crate::check::Reference;
use crate::pool::Draws;
use crate::procs::{self, Server};
use crate::{
    http, rounds, stats, sub_seed, Args, Outcome, RunDir, Workload, MAX_FEATURES, OPEN_PER_ROUND,
    TOP_K,
};
use querygraph_core::cache::{artifact_path, config_fingerprint};
use querygraph_core::expansion::{expanded_titles, CycleExpander, CycleExpanderConfig, Expander};
use querygraph_core::expcache::{CacheKey, ExpansionCache};
use querygraph_core::service::{
    ExpansionRequest, ExpansionResponse, ExpansionTerm, QueryExpander, RetrievedDoc,
};
use querygraph_corpus::imageclef::linking_text;
use querygraph_corpus::ingest::{DumpStream, DumpWriter};
use querygraph_corpus::synth::generate_corpus;
use querygraph_graph::cycles::CycleFinder;
use querygraph_graph::subgraph::induce;
use querygraph_graph::traversal::ball;
use querygraph_retrieval::backend::RetrievalBackend;
use querygraph_retrieval::engine::{SearchEngine, SearchHit, SearchMode};
use querygraph_retrieval::index::IndexBuilder;
use querygraph_retrieval::lm::LmParams;
use querygraph_retrieval::ondisk::{self, ArtifactSource};
use querygraph_retrieval::remote::RemoteEngine;
use querygraph_retrieval::segstore::{self, SegStore};
use querygraph_retrieval::QueryNode;
use querygraph_wiki::synth::generate;
use querygraph_wiki::{ArticleId, KnowledgeBase};
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of each traced query; each layer reports its fastest.
const REPS: usize = 3;
/// Accepted range of (sum of layers) / (in-process expand).
const ACCOUNTED: (f64, f64) = (0.9, 1.1);

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    request: Option<usize>,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: f64::NAN,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its length in microseconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        end - span.start_us
    }

    /// Time `f` as one span; returns its value and length (µs).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, request);
        let value = f();
        (value, self.close(id))
    }

    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                    s.name,
                    s.start_us,
                    s.end_us,
                    opt(s.parent),
                    opt(s.request)
                )
            })
            .collect();
        std::fs::write(path, format!("[\n{}\n]\n", rows.join(",\n")))
    }
}

/// Two `qgx shard` processes over the segment store, one per segment.
struct Fleet {
    children: Vec<Child>,
}

impl Fleet {
    fn spawn(
        qgx: &Path,
        dir: &Path,
        manifest: &segstore::Manifest,
    ) -> Result<(Fleet, RemoteEngine), String> {
        let mut fleet = Fleet {
            children: Vec::new(),
        };
        let mut addrs = Vec::new();
        for (slot, seg) in manifest.segments.iter().enumerate() {
            let mut child = Command::new(qgx)
                .args(["shard", "--segstore"])
                .arg(dir)
                .args(["--seq", &seg.seq.to_string(), "--shard", &slot.to_string()])
                .args(["--fingerprint", &format!("{:016x}", manifest.fingerprint)])
                .args(["--listen", "127.0.0.1:0"])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot launch qgx shard: {e}"))?;
            let stdout = child.stdout.take().expect("piped stdout");
            fleet.children.push(child);
            let mut line = String::new();
            let _ = std::io::BufReader::new(stdout).read_line(&mut line);
            let addr = querygraph_retrieval::remote::server::parse_announce(line.trim())
                .ok_or_else(|| format!("shard {slot} did not announce an address: {line:?}"))?;
            addrs.push(addr);
        }
        let expected: Vec<u64> = manifest
            .segments
            .iter()
            .map(|s| segstore::segment_fp(manifest.fingerprint, s.seq))
            .collect();
        let remote =
            RemoteEngine::connect_with_fingerprints(&addrs, LmParams::default(), &expected)
                .map_err(|e| format!("cannot connect to the shard processes: {e}"))?;
        Ok((fleet, remote))
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        // Closing stdin is the shard's drain signal.
        for child in &mut self.children {
            drop(child.stdin.take());
        }
        for child in &mut self.children {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !matches!(child.try_wait(), Ok(Some(_))) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Per-query layer times (µs, fastest of [`REPS`]) and sizes.
#[derive(Default, Clone)]
struct Layers {
    link: f64,
    ball: f64,
    induce: f64,
    cycles: f64,
    expand: f64,
    query_build: f64,
    search: f64,
    remote: f64,
    serialize: f64,
    service: f64,
    traced_path: f64,
    cache_miss: f64,
    cache_hit: f64,
    http_overhead: f64,
    entities: f64,
    ball_nodes: f64,
    sub_nodes: f64,
    sub_edges: f64,
    cycle_count: f64,
    cap_hits: f64,
    features: f64,
    phrases: f64,
    bytes: f64,
}

fn terms(kb: &KnowledgeBase, articles: &[ArticleId]) -> Vec<ExpansionTerm> {
    articles
        .iter()
        .map(|&article| ExpansionTerm {
            article,
            title: kb.title(article).to_string(),
        })
        .collect()
}

fn docs(hits: &[SearchHit]) -> Vec<RetrievedDoc> {
    hits.iter()
        .map(|h| RetrievedDoc {
            doc: h.doc,
            score: h.score,
        })
        .collect()
}

/// Cache hit ratio of the workload's draws (warm-up then open loop)
/// replayed through an `ExpansionCache` of the served capacity. The
/// cached value is a placeholder: only the key sequence decides hits.
fn replay_hit_ratio(w: &Workload, pool: &[String], seed: u64, seconds: f64) -> f64 {
    let cache = ExpansionCache::new(w.cache);
    let placeholder = ExpansionResponse {
        query: String::new(),
        entities: Vec::new(),
        features: Vec::new(),
        expanded_query: String::new(),
        hits: Vec::new(),
    };
    let warm = Draws::new(pool.len(), w.mix, sub_seed(seed, 2)).take(w.warmup);
    let open =
        Draws::new(pool.len(), w.mix, sub_seed(seed, 3)).take(rounds(seconds) * OPEN_PER_ROUND);
    for &i in warm.iter().chain(&open) {
        let key = CacheKey {
            query: pool[i].trim().to_string(),
            max_features: None,
            top_k: TOP_K,
            mode: SearchMode::Exact.name(),
            epoch: 0,
        };
        let _ = cache.get_or_compute(&key, || Ok(placeholder.clone()));
    }
    cache.hits() as f64 / cache.lookups().max(1) as f64
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let config = w.config();
    let run = RunDir::create(&args.workdir, &format!("{}-trace", w.name))?;
    let mut tr = Tracer::new();
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut problems: Vec<String> = Vec::new();

    // ---- build layers (what set-up spends its time on)
    let build = tr.open("build", None, None);
    let (wiki, wiki_us) = tr.time("wiki.synth", Some(build), None, || generate(&config.wiki));
    let (corpus, corpus_us) = tr.time("corpus.synth", Some(build), None, || {
        generate_corpus(&wiki, &config.corpus)
    });
    let (engine, index_us) = tr.time("retrieval.index.build", Some(build), None, || {
        let mut ib = IndexBuilder::new();
        for (_, doc) in corpus.corpus.iter() {
            ib.add_document(&linking_text(doc));
        }
        SearchEngine::with_params(ib.build(), LmParams::default())
    });
    let kb = &wiki.kb;
    let (warmed, warm_us) = tr.time("retrieval.phrase.warm", Some(build), None, || {
        let mut n = 0usize;
        for article in kb.main_articles() {
            engine.warm_phrase(&querygraph_text::tokenize(kb.title(article)));
            n += 1;
        }
        n
    });
    let cache_dir = run.0.join("index-cache");
    let artifact = artifact_path(&cache_dir, &config);
    let (written, write_us) = tr.time("retrieval.ondisk.write", Some(build), None, || {
        std::fs::create_dir_all(&cache_dir).and_then(|()| {
            ondisk::save_index(
                &artifact,
                engine.index(),
                &engine.export_phrase_cache(),
                config_fingerprint(&config),
            )
        })
    });
    written.map_err(|e| format!("save_index: {e}"))?;
    let artifact_mb = procs::dir_mb(&cache_dir);

    // ---- write path: dump → DumpStream → IndexBuilder → two segments
    let dump = run.0.join("corpus.xml");
    let mut writer = DumpWriter::create(&dump).map_err(|e| format!("dump: {e}"))?;
    for (_, doc) in corpus.corpus.iter() {
        writer.write_doc(doc).map_err(|e| format!("dump: {e}"))?;
    }
    writer.finish().map_err(|e| format!("dump: {e}"))?;
    let store_dir = run.0.join("segstore");
    let fingerprint = config_fingerprint(&config);
    let per_segment = corpus.corpus.len().div_ceil(2);
    let (ingested, ingest_us) = tr.time("corpus.ingest", Some(build), None, || {
        let mut store = SegStore::open(&store_dir, fingerprint).map_err(|e| e.to_string())?;
        let mut builder = IndexBuilder::new();
        let (mut n, mut in_batch) = (0usize, 0usize);
        for doc in DumpStream::from_path(&dump).map_err(|e| e.to_string())? {
            builder.add_document(&linking_text(&doc.map_err(|e| e.to_string())?));
            n += 1;
            in_batch += 1;
            if in_batch == per_segment {
                let full = std::mem::replace(&mut builder, IndexBuilder::new());
                store
                    .commit_segment(&full.build())
                    .map_err(|e| e.to_string())?;
                in_batch = 0;
            }
        }
        if in_batch > 0 {
            store
                .commit_segment(&builder.build())
                .map_err(|e| e.to_string())?;
        }
        Ok::<usize, String>(n)
    });
    let ingested = ingested?;
    let (generation, load_us) = tr.time("retrieval.segstore.load", Some(build), None, || {
        segstore::load_generation(&store_dir, fingerprint, ArtifactSource::Read)
    });
    let manifest = generation
        .map_err(|e| format!("load_generation: {e}"))?
        .ok_or("the segment store never published")?
        .manifest;
    tr.close(build);
    metrics.extend([
        ("wiki.synth_s", wiki_us / 1e6, "s"),
        ("corpus.synth_s", corpus_us / 1e6, "s"),
        ("retrieval.index.build_s", index_us / 1e6, "s"),
        ("retrieval.phrase.warm_s", warm_us / 1e6, "s"),
        ("retrieval.phrase.warm_titles", warmed as f64, "count"),
        ("retrieval.ondisk.write_s", write_us / 1e6, "s"),
        ("retrieval.ondisk.artifact_mb", artifact_mb, "MiB"),
        (
            "corpus.ingest.docs_per_s",
            ingested as f64 / (ingest_us / 1e6),
            "docs/s",
        ),
        ("retrieval.segstore.load_s", load_us / 1e6, "s"),
    ]);

    // ---- inputs: the workload's pool and a sample of distinct draws
    let reference = Reference::new(kb, &engine, TOP_K, MAX_FEATURES);
    let (pool, _) = crate::pool_for(&reference, args.seed)?;
    drop(reference);
    let mut draws = Draws::new(pool.len(), w.mix, sub_seed(args.seed, 3));
    let mut traced: Vec<usize> = Vec::with_capacity(w.traced);
    for _ in 0..w.traced * 1000 {
        let i = draws.next_index();
        if !traced.contains(&i) {
            traced.push(i);
            if traced.len() == w.traced {
                break;
            }
        }
    }

    // ---- the serving processes: shard fleet for remote search, and a
    // `qgx serve` booted from the artifacts written above
    let (fleet, remote) = Fleet::spawn(&args.qgx, &store_dir, &manifest)?;
    let serve_dir = if w.segstore { &store_dir } else { &cache_dir };
    let mut server = Server::spawn(
        &args.qgx,
        &w.serve_flags(serve_dir),
        &run.0.join("serve.log"),
    )?;
    if let Err(e) = server.wait_healthy(Duration::from_secs(60)) {
        server.stop();
        return Err(e);
    }

    let g = kb.graph();
    let cfg = CycleExpanderConfig::default();
    let expander = QueryExpander::builder()
        .retrieve_top(TOP_K)
        .build(kb, &engine);
    let cached = QueryExpander::builder()
        .retrieve_top(TOP_K)
        .expansion_cache(Arc::new(ExpansionCache::new(w.cache.max(4 * traced.len()))))
        .build(kb, &engine);
    let mut conn = http::Conn::new(&server.addr);
    let mut rows: Vec<Layers> = Vec::with_capacity(traced.len());
    let mut http_failed = 0usize;

    for (r, &qi) in traced.iter().enumerate() {
        let text = pool[qi].as_str();
        let request = ExpansionRequest::new(text);
        let root = tr.open("request", None, Some(r));
        let mut best: Option<Layers> = None;
        for _ in 0..REPS {
            let mut l = Layers::default();
            // The production call sequence, as one traced block.
            let path = tr.open("traced_path", Some(root), Some(r));
            let (entities, t) = tr.time("link", Some(path), Some(r), || {
                expander.linker().link_articles(text)
            });
            l.link = t;
            let (features, t) = tr.time("core.expansion.expand", Some(path), Some(r), || {
                CycleExpander {
                    config: cfg.clone(),
                }
                .expand(kb, &entities)
            });
            l.expand = t;
            let (node, t) = tr.time("retrieval.query_build", Some(path), Some(r), || {
                let titles = expanded_titles(kb, &entities, &features);
                let node = QueryNode::phrases_of_titles(&titles);
                let string = node.to_string();
                (node, string)
            });
            l.query_build = t;
            let (node, expanded_query) = node;
            let (hits, t) = tr.time("retrieval.search", Some(path), Some(r), || {
                engine.try_search_with(&node, TOP_K, SearchMode::Exact)
            });
            l.search = t;
            l.traced_path = tr.close(path);
            let hits = hits.map_err(|e| format!("search: {e}"))?;

            // The expander's inner layers, called one by one with its
            // settings (CycleExpander::expand repeats them inside).
            let query_nodes: Vec<u32> = entities
                .iter()
                .map(|&a| kb.article_node(kb.resolve_redirect(a)))
                .collect();
            let (nodes, t) = tr.time("graph.traversal.ball", Some(root), Some(r), || {
                ball(g, &query_nodes, cfg.neighborhood_radius)
            });
            l.ball = t;
            l.ball_nodes = nodes.len() as f64;
            let mut neighborhood = nodes;
            neighborhood.truncate(cfg.max_neighborhood);
            for &qn in &query_nodes {
                if !neighborhood.contains(&qn) {
                    neighborhood.push(qn);
                }
            }
            let (sub, t) = tr.time("graph.subgraph.induce", Some(root), Some(r), || {
                induce(g, &neighborhood)
            });
            l.induce = t;
            l.sub_nodes = sub.node_count() as f64;
            l.sub_edges = sub.graph.edge_count() as f64;
            let local: Vec<u32> = query_nodes
                .iter()
                .filter_map(|&q| sub.local_of(q))
                .collect();
            let (count, t) = tr.time("graph.cycles.enum", Some(root), Some(r), || {
                let mut n = 0usize;
                CycleFinder::new(&sub.graph)
                    .max_len(cfg.max_len)
                    .require_any_of(&local)
                    .limit(cfg.max_cycles)
                    .for_each(|_| n += 1);
                n
            });
            l.cycles = t;
            l.cycle_count = count as f64;
            l.cap_hits = if count >= cfg.max_cycles { 1.0 } else { 0.0 };

            let (remote_hits, t) = tr.time("retrieval.remote.search", Some(root), Some(r), || {
                remote.try_search_with(&node, TOP_K, SearchMode::Exact)
            });
            l.remote = t;
            match remote_hits {
                Ok(remote_hits) if remote_hits == hits => {}
                Ok(_) => problems.push(format!("{text:?}: remote hits differ from in-process")),
                Err(e) => problems.push(format!("{text:?}: remote search: {e}")),
            }

            let response = ExpansionResponse {
                query: text.trim().to_string(),
                entities: terms(kb, &entities),
                features: terms(kb, &features),
                expanded_query,
                hits: docs(&hits),
            };
            let (json, t) = tr.time("core.service.serialize", Some(root), Some(r), || {
                serde_json::to_string(&response)
            });
            l.serialize = t;
            let json = json.map_err(|e| e.to_string())?;
            l.bytes = json.len() as f64;
            l.entities = entities.len() as f64;
            l.features = features.len() as f64;
            l.phrases = node.leaf_count() as f64;

            let (reference, t) = tr.time("core.service.expand", Some(root), Some(r), || {
                expander.expand(&request)
            });
            l.service = t;
            match reference.map(|resp| serde_json::to_string(&resp)) {
                Ok(Ok(expected)) if expected == json => {}
                _ => problems.push(format!(
                    "{text:?}: the traced call sequence does not reproduce QueryExpander::expand"
                )),
            }
            best = Some(match best {
                None => l,
                Some(b) => Layers {
                    link: b.link.min(l.link),
                    ball: b.ball.min(l.ball),
                    induce: b.induce.min(l.induce),
                    cycles: b.cycles.min(l.cycles),
                    expand: b.expand.min(l.expand),
                    query_build: b.query_build.min(l.query_build),
                    search: b.search.min(l.search),
                    remote: b.remote.min(l.remote),
                    serialize: b.serialize.min(l.serialize),
                    service: b.service.min(l.service),
                    traced_path: b.traced_path.min(l.traced_path),
                    ..l
                },
            });
        }
        let mut l = best.expect("REPS >= 1");

        // Expansion cache: the first call misses, the second hits.
        let hits_before = cached.cache().map_or(0, |c| c.hits());
        let (_, miss) = tr.time("core.expcache.miss", Some(root), Some(r), || {
            cached.expand(&request)
        });
        let (_, hit) = tr.time("core.expcache.hit", Some(root), Some(r), || {
            cached.expand(&request)
        });
        if cached.cache().map_or(0, |c| c.hits()) != hits_before + 1 {
            problems.push(format!("{text:?}: expected exactly one cache hit"));
        }
        l.cache_miss = miss;
        l.cache_hit = hit;

        // HTTP: the fastest of REPS POST round trips, less the fastest
        // in-process expand. Each repetition asks for a different (and
        // inert: above the expander's own cap) feature cap, so an
        // expansion cache on the server misses every time.
        let mut rtt = f64::INFINITY;
        for rep in 0..REPS {
            let body = serde_json::to_string(
                &ExpansionRequest::new(text).with_max_features(MAX_FEATURES + 1 + rep),
            )
            .expect("requests serialize");
            let (reply, t) = tr.time("core.http.expand_rtt", Some(root), Some(r), || {
                conn.call("POST", "/expand", body.as_bytes())
            });
            match reply {
                Ok(reply) if reply.status == 200 => rtt = rtt.min(t),
                _ => http_failed += 1,
            }
        }
        l.http_overhead = rtt - l.service;
        tr.close(root);
        rows.push(l);
    }

    let mut healthz: Vec<f64> = Vec::with_capacity(200);
    for _ in 0..200 {
        let (reply, t) = tr.time("core.http.healthz", None, None, || {
            conn.call("GET", "/healthz", b"")
        });
        match reply {
            Ok(reply) if reply.status == 200 => healthz.push(t),
            _ => http_failed += 1,
        }
    }
    drop(conn);
    server.stop();
    drop(fleet);

    let mean = |f: fn(&Layers) -> f64| stats::mean(&rows.iter().map(f).collect::<Vec<_>>());
    let service = mean(|l| l.service);
    let layer_sum = mean(|l| l.link + l.expand + l.query_build + l.search);
    let accounted = layer_sum / service;
    if !(ACCOUNTED.0..=ACCOUNTED.1).contains(&accounted) {
        problems.push(format!(
            "layers account for {:.1}% of in-process expand, outside {:.0}–{:.0}%",
            100.0 * accounted,
            100.0 * ACCOUNTED.0,
            100.0 * ACCOUNTED.1
        ));
    }
    if http_failed > 0 {
        problems.push(format!("{http_failed} traced HTTP request(s) failed"));
    }
    let graph_nodes = g.node_count() as f64;
    metrics.extend([
        ("link.link_us", mean(|l| l.link), "us"),
        ("link.entities", mean(|l| l.entities), "count"),
        ("graph.traversal.ball_us", mean(|l| l.ball), "us"),
        (
            "graph.traversal.ball_nodes",
            mean(|l| l.ball_nodes),
            "count",
        ),
        (
            "graph.traversal.kept_ratio",
            mean(|l| l.ball_nodes) / graph_nodes,
            "ratio",
        ),
        ("graph.subgraph.induce_us", mean(|l| l.induce), "us"),
        ("graph.subgraph.nodes", mean(|l| l.sub_nodes), "count"),
        ("graph.subgraph.edges", mean(|l| l.sub_edges), "count"),
        ("graph.cycles.enum_us", mean(|l| l.cycles), "us"),
        ("graph.cycles.count", mean(|l| l.cycle_count), "count"),
        (
            "graph.cycles.cap_hits",
            rows.iter().map(|l| l.cap_hits).sum(),
            "count",
        ),
        ("core.expansion.expand_us", mean(|l| l.expand), "us"),
        (
            "core.expansion.score_us",
            mean(|l| l.expand - l.ball - l.induce - l.cycles),
            "us",
        ),
        ("core.expansion.features", mean(|l| l.features), "count"),
        ("retrieval.query_build_us", mean(|l| l.query_build), "us"),
        ("retrieval.search_us", mean(|l| l.search), "us"),
        ("retrieval.phrases", mean(|l| l.phrases), "count"),
        ("retrieval.remote.search_us", mean(|l| l.remote), "us"),
        (
            "core.expcache.hit_ratio",
            replay_hit_ratio(w, &pool, args.seed, args.seconds),
            "ratio",
        ),
        ("core.expcache.hit_us", mean(|l| l.cache_hit), "us"),
        ("core.expcache.miss_us", mean(|l| l.cache_miss), "us"),
        ("core.service.expand_us", service, "us"),
        ("core.service.serialize_us", mean(|l| l.serialize), "us"),
        ("core.service.response_bytes", mean(|l| l.bytes), "bytes"),
        (
            "core.http.healthz_rtt_us",
            stats::median(&stats::sorted(&healthz)),
            "us",
        ),
        ("core.http.overhead_us", mean(|l| l.http_overhead), "us"),
        ("trace.accounted_ratio", accounted, "ratio"),
        (
            "trace.overhead_ratio",
            mean(|l| l.traced_path) / service,
            "ratio",
        ),
    ]);

    // ---- written record: spans and the per-layer table
    let out = args.workdir.join("trace");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    tr.write_json(&out.join(format!("{}.spans.json", w.name)))
        .map_err(|e| format!("spans: {e}"))?;
    let share = |us: f64| 100.0 * us / service;
    let mut table = format!(
        "# {} — per-layer times over {} traced queries (mean of per-query fastest of {REPS})\n\n\
         | layer | mean µs | share of in-process expand |\n|---|---:|---:|\n",
        w.name,
        rows.len()
    );
    for (name, us) in [
        ("link (EntityLinker::link_articles)", mean(|l| l.link)),
        ("neighbourhood BFS (traversal::ball)", mean(|l| l.ball)),
        ("induce (subgraph::induce)", mean(|l| l.induce)),
        (
            "cycle enumeration (CycleFinder::for_each)",
            mean(|l| l.cycles),
        ),
        (
            "per-cycle scoring (expand − ball − induce − enum)",
            mean(|l| l.expand - l.ball - l.induce - l.cycles),
        ),
        ("query build", mean(|l| l.query_build)),
        ("retrieval (in process)", mean(|l| l.search)),
        ("sum of layers", layer_sum),
        ("QueryExpander::expand (untraced)", service),
    ] {
        table.push_str(&format!("| {name} | {us:.1} | {:.1}% |\n", share(us)));
    }
    table.push_str(&format!(
        "\nOutside the expand path: remote search {:.1} µs, serialize {:.1} µs, \
         cache hit {:.1} µs / miss {:.1} µs, HTTP overhead {:.1} µs, healthz RTT {:.1} µs.\n",
        mean(|l| l.remote),
        mean(|l| l.serialize),
        mean(|l| l.cache_hit),
        mean(|l| l.cache_miss),
        mean(|l| l.http_overhead),
        stats::median(&stats::sorted(&healthz)),
    ));
    std::fs::write(out.join(format!("{}.layers.md", w.name)), &table)
        .map_err(|e| format!("layers table: {e}"))?;
    eprint!("{table}");
    for p in &problems {
        eprintln!("# CHECK FAILED: {p}");
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: rows.len() * REPS + 200,
        failed: http_failed,
        metrics,
    })
}
