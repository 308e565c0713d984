//! Correctness checks on served responses, made outside the timed
//! phases.
//!
//! * Identity: each checked body must be byte-identical to the response
//!   of an in-process, uncached, monolithic `QueryExpander` built here.
//! * The method's properties, verified with this module's own graph
//!   code (a literal `traverse(n, depth)` and a bounded simple-cycle
//!   search), not the library's `ball` or `CycleFinder`:
//!   at most `max_features` features; none is a query article, a
//!   category or a redirect; each lies within distance 2 of a query
//!   node and on a simple cycle of length ≤ 5 through one.
//! * Hits: at most k, ordered by (score desc, doc asc).
//! * `SearchMode::Pruned` returns the same hits as `Exact`.

use querygraph_core::service::{ExpansionRequest, ExpansionResponse, QueryExpander, RetrievedDoc};
use querygraph_graph::{EdgeType, TypedGraph};
use querygraph_retrieval::backend::RetrievalBackend;
use querygraph_retrieval::engine::SearchMode;
use querygraph_wiki::{ArticleId, KnowledgeBase};
use std::collections::{HashMap, HashSet};

/// Neighbourhood radius and maximum cycle length of the method (§3 of
/// the paper: cycles of length ≤ 5 around the query articles).
pub const RADIUS: u32 = 2;
pub const MAX_CYCLE: usize = 5;

/// `neighbors(n) = {n' : (n, n') ∈ E ∨ (n', n) ∈ E}`, redirect edges
/// excluded (redirects never take part in cycles).
fn neighbors(g: &TypedGraph, n: u32) -> HashSet<u32> {
    g.out_edges(n)
        .chain(g.in_edges(n))
        .filter(|&(_, t)| t != EdgeType::Redirect)
        .map(|(v, _)| v)
        .filter(|&v| v != n)
        .collect()
}

/// Number of distinct non-redirect edges joining `u` and `v`, either
/// direction.
fn edges_between(g: &TypedGraph, u: u32, v: u32) -> usize {
    let one_way = |a: u32, b: u32| {
        g.out_edges(a)
            .filter(|&(w, t)| w == b && t != EdgeType::Redirect)
            .count()
    };
    one_way(u, v) + one_way(v, u)
}

/// `traverse(n, depth) = {n' : distance(n, n') ≤ depth}`, with the
/// distance of each member.
pub fn traverse(g: &TypedGraph, n: u32, depth: u32) -> HashMap<u32, u32> {
    traverse_within(g, n, depth, None)
}

/// [`traverse`] over the subgraph induced by `allowed`, when given.
fn traverse_within(
    g: &TypedGraph,
    n: u32,
    depth: u32,
    allowed: Option<&HashMap<u32, u32>>,
) -> HashMap<u32, u32> {
    let mut dist = HashMap::from([(n, 0)]);
    let mut frontier = vec![n];
    for d in 1..=depth {
        let mut next = Vec::new();
        for &u in &frontier {
            for v in neighbors(g, u) {
                if allowed.is_some_and(|a| !a.contains_key(&v)) {
                    continue;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(d);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Is there a simple cycle of length ≤ `max_len` through both `q` and
/// `f`? A cycle of length 2 needs two distinct edges between its nodes.
///
/// Every node of such a cycle is within `max_len / 2` of `q` along the
/// cycle itself, so the search never leaves `traverse(q, max_len / 2)`.
pub fn on_short_cycle(g: &TypedGraph, q: u32, f: u32, max_len: usize) -> bool {
    if q == f || max_len < 2 {
        return false;
    }
    let to_q = traverse(g, q, (max_len / 2) as u32);
    if !to_q.contains_key(&f) {
        return false;
    }
    let to_f = traverse_within(g, f, (max_len - 1) as u32, Some(&to_q));
    // Every path q → f of `a` edges, then a disjoint return f → q of at
    // most `max_len − a` edges.
    let mut path = vec![q];
    let mut found = false;
    forward(g, f, max_len, &to_f, &to_q, &mut path, &mut found);
    found
}

fn forward(
    g: &TypedGraph,
    f: u32,
    max_len: usize,
    to_f: &HashMap<u32, u32>,
    to_q: &HashMap<u32, u32>,
    path: &mut Vec<u32>,
    found: &mut bool,
) {
    let u = *path.last().expect("path starts at q");
    let used = path.len() - 1;
    if u == f {
        let q = path[0];
        let left = max_len - used;
        if used == 1 {
            if edges_between(g, q, f) >= 2 {
                *found = true;
                return;
            }
        } else if g
            .in_edges(q)
            .chain(g.out_edges(q))
            .any(|(v, t)| v == f && t != EdgeType::Redirect)
        {
            *found = true;
            return;
        }
        if left >= 2 {
            let blocked: HashSet<u32> = path[1..path.len() - 1].iter().copied().collect();
            let mut back = vec![f];
            *found = backward(g, q, left, to_q, &blocked, &mut back);
        }
        return;
    }
    // At least one edge must remain for the way back.
    if used + 1 >= max_len {
        return;
    }
    for v in neighbors(g, u) {
        if *found {
            return;
        }
        if path.contains(&v) {
            continue;
        }
        match to_f.get(&v) {
            Some(&d) if used + 1 + (d as usize) < max_len => {}
            _ => continue,
        }
        path.push(v);
        forward(g, f, max_len, to_f, to_q, path, found);
        path.pop();
    }
}

/// A path from `back[0]` to `q` of 2..=`left` edges avoiding `blocked`.
fn backward(
    g: &TypedGraph,
    q: u32,
    left: usize,
    to_q: &HashMap<u32, u32>,
    blocked: &HashSet<u32>,
    back: &mut Vec<u32>,
) -> bool {
    let u = *back.last().expect("path starts at f");
    let used = back.len() - 1;
    for v in neighbors(g, u) {
        if v == q {
            if used >= 1 {
                return true;
            }
            continue;
        }
        if blocked.contains(&v) || back.contains(&v) {
            continue;
        }
        match to_q.get(&v) {
            Some(&d) if used + 1 + d as usize <= left => {}
            _ => continue,
        }
        back.push(v);
        if backward(g, q, left, to_q, blocked, back) {
            return true;
        }
        back.pop();
    }
    false
}

/// The served body must equal the reference body byte for byte.
pub fn check_identity(expected: &str, got: &[u8]) -> Result<(), String> {
    if got == expected.as_bytes() {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(expected.as_bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(expected.len()));
    Err(format!(
        "body differs from the in-process reference at byte {at} (got {} bytes, expected {})",
        got.len(),
        expected.len()
    ))
}

/// The method's properties on the features of `response`.
pub fn check_features(
    kb: &KnowledgeBase,
    response: &ExpansionResponse,
    max_features: usize,
) -> Result<(), String> {
    if response.features.len() > max_features {
        return Err(format!(
            "{} features, more than {max_features}",
            response.features.len()
        ));
    }
    let g = kb.graph();
    let query: Vec<ArticleId> = response.entities.iter().map(|t| t.article).collect();
    let query_nodes: Vec<u32> = query
        .iter()
        .map(|&a| kb.article_node(kb.resolve_redirect(a)))
        .collect();
    let near: Vec<HashMap<u32, u32>> = query_nodes
        .iter()
        .map(|&q| traverse(g, q, RADIUS))
        .collect();
    for term in &response.features {
        let a = term.article;
        if (a.0 as usize) >= kb.num_articles() {
            return Err(format!("feature {a:?} is not an article"));
        }
        if kb.title(a) != term.title {
            return Err(format!("feature {a:?} has title {:?}", term.title));
        }
        if query.contains(&a) {
            return Err(format!("feature {:?} is a query article", term.title));
        }
        if kb.is_redirect(a) {
            return Err(format!("feature {:?} is a redirect", term.title));
        }
        let f = kb.article_node(a);
        if kb.node_is_category(f) {
            return Err(format!("feature {:?} is a category", term.title));
        }
        if !near.iter().any(|ball| ball.contains_key(&f)) {
            return Err(format!(
                "feature {:?} is farther than {RADIUS} from every query node",
                term.title
            ));
        }
        if !query_nodes
            .iter()
            .any(|&q| on_short_cycle(g, q, f, MAX_CYCLE))
        {
            return Err(format!(
                "feature {:?} lies on no simple cycle of length <= {MAX_CYCLE} through a query node",
                term.title
            ));
        }
    }
    Ok(())
}

/// At most `k` hits, ordered by (score desc, doc asc), finite scores.
pub fn check_hits(hits: &[RetrievedDoc], k: usize) -> Result<(), String> {
    if hits.len() > k {
        return Err(format!("{} hits, more than k = {k}", hits.len()));
    }
    if let Some(h) = hits.iter().find(|h| !h.score.is_finite()) {
        return Err(format!("doc {} has score {}", h.doc, h.score));
    }
    for pair in hits.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let ordered = a.score > b.score || (a.score == b.score && a.doc < b.doc);
        if !ordered {
            return Err(format!(
                "hits out of order: doc {} ({}) before doc {} ({})",
                a.doc, a.score, b.doc, b.score
            ));
        }
    }
    Ok(())
}

/// Pruned retrieval must return exactly the exact-mode hits.
pub fn check_pruned(exact: &[RetrievedDoc], pruned: &[RetrievedDoc]) -> Result<(), String> {
    let same = exact.len() == pruned.len()
        && exact
            .iter()
            .zip(pruned)
            .all(|(a, b)| a.doc == b.doc && a.score.to_bits() == b.score.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "pruned hits differ from exact: {:?} vs {:?}",
            pruned.iter().map(|h| h.doc).collect::<Vec<_>>(),
            exact.iter().map(|h| h.doc).collect::<Vec<_>>()
        ))
    }
}

/// The in-process reference the served bodies are checked against.
pub struct Reference<'w> {
    pub exact: QueryExpander<'w>,
    pruned: QueryExpander<'w>,
    top_k: usize,
    max_features: usize,
    memo: HashMap<String, String>,
}

impl<'w> Reference<'w> {
    pub fn new(
        kb: &'w KnowledgeBase,
        engine: &'w dyn RetrievalBackend,
        top_k: usize,
        max_features: usize,
    ) -> Reference<'w> {
        let builder = QueryExpander::builder().retrieve_top(top_k);
        Reference {
            exact: builder
                .clone()
                .search_mode(SearchMode::Exact)
                .build(kb, engine),
            pruned: builder.search_mode(SearchMode::Pruned).build(kb, engine),
            top_k,
            max_features,
            memo: HashMap::new(),
        }
    }

    /// Does `text` link to at least one entity?
    pub fn links(&self, text: &str) -> bool {
        !self.exact.linker().link_articles(text).is_empty()
    }

    /// Distinct queries checked so far.
    pub fn checked_queries(&self) -> usize {
        self.memo.len()
    }

    /// Every check on one served body for `text`.
    pub fn check(&mut self, text: &str, body: &[u8]) -> Result<(), String> {
        if !self.memo.contains_key(text) {
            let response = self
                .exact
                .expand(&ExpansionRequest::new(text))
                .map_err(|e| format!("reference failed: {e}"))?;
            let pruned = self
                .pruned
                .expand(&ExpansionRequest::new(text))
                .map_err(|e| format!("pruned reference failed: {e}"))?;
            check_pruned(&response.hits, &pruned.hits)?;
            // The wire body is the JSON document plus a newline, the
            // same bytes as a `qgx replay --json` line.
            let mut json = serde_json::to_string(&response).map_err(|e| e.to_string())?;
            json.push('\n');
            self.memo.insert(text.to_string(), json);
        }
        check_identity(&self.memo[text], body)?;
        let served: ExpansionResponse =
            serde_json::from_str(String::from_utf8_lossy(body).trim_end())
                .map_err(|e| format!("served body does not parse: {e}"))?;
        check_features(self.exact.kb(), &served, self.max_features)?;
        check_hits(&served.hits, self.top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use querygraph_core::config::ExperimentConfig;
    use querygraph_core::service::{ExpansionTerm, ServingWorld};
    use querygraph_graph::GraphBuilder;

    /// q=0 – 1 – 2=f is a path; the edge 2 – 0 closes a triangle.
    fn path(close: bool) -> TypedGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 2, EdgeType::Belongs);
        b.add_edge(2, 3, EdgeType::Link);
        b.add_edge(4, 0, EdgeType::Redirect);
        if close {
            b.add_edge(2, 0, EdgeType::Link);
        }
        b.build()
    }

    #[test]
    fn traverse_is_bounded_and_skips_redirects() {
        let g = path(false);
        let ball = traverse(&g, 0, 2);
        assert_eq!(ball.get(&2), Some(&2));
        assert!(!ball.contains_key(&3));
        assert!(!ball.contains_key(&4));
    }

    #[test]
    fn cycle_search_needs_a_closing_edge() {
        assert!(!on_short_cycle(&path(false), 0, 2, 5));
        assert!(on_short_cycle(&path(true), 0, 2, 5));
        assert!(on_short_cycle(&path(true), 0, 1, 5));
        // Too short a bound for the triangle.
        assert!(!on_short_cycle(&path(true), 0, 2, 2));
    }

    #[test]
    fn two_cycles_need_two_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        assert!(!on_short_cycle(&b.build(), 0, 1, 5));
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, EdgeType::Link);
        b.add_edge(1, 0, EdgeType::Link);
        assert!(on_short_cycle(&b.build(), 0, 1, 5));
    }

    #[test]
    fn a_cycle_longer_than_five_does_not_count() {
        // 0-1-2-3-4-5-0 is a hexagon: 3 is at distance 3 and on no
        // cycle of length <= 5.
        let mut b = GraphBuilder::new(6);
        for i in 0..6 {
            b.add_edge(i, (i + 1) % 6, EdgeType::Link);
        }
        let g = b.build();
        assert!(!on_short_cycle(&g, 0, 3, 5));
        assert!(on_short_cycle(&g, 0, 3, 6));
    }

    /// A served response from the tiny world that passes every check,
    /// with its world.
    fn good() -> (ServingWorld, String, ExpansionResponse) {
        let world = ServingWorld::open(&ExperimentConfig::tiny(), None);
        let expander = QueryExpander::builder()
            .retrieve_top(10)
            .build(&world.wiki.kb, &world.engine);
        let kb = &world.wiki.kb;
        let (text, response) = kb
            .main_articles()
            .map(|a| kb.title(a).to_string())
            .find_map(|text| {
                let r = expander.expand(&ExpansionRequest::new(&text)).ok()?;
                (r.features.len() >= 2 && r.hits.len() >= 2).then_some((text, r))
            })
            .expect("a tiny-world query with features and hits");
        drop(expander);
        (world, text, response)
    }

    fn term(kb: &KnowledgeBase, a: ArticleId) -> ExpansionTerm {
        ExpansionTerm {
            article: a,
            title: kb.title(a).to_string(),
        }
    }

    #[test]
    fn the_unplanted_response_passes_every_check() {
        let (world, text, response) = good();
        let mut reference = Reference::new(&world.wiki.kb, &world.engine, 10, 10);
        let body = serde_json::to_string(&response).unwrap() + "\n";
        reference.check(&text, body.as_bytes()).unwrap();
    }

    #[test]
    fn identity_rejects_a_changed_byte() {
        let (world, text, response) = good();
        let mut reference = Reference::new(&world.wiki.kb, &world.engine, 10, 10);
        let mut body = (serde_json::to_string(&response).unwrap() + "\n").into_bytes();
        let last = body.len() - 3;
        body[last] ^= 1;
        assert!(reference
            .check(&text, &body)
            .unwrap_err()
            .contains("differs"));
    }

    #[test]
    fn features_reject_too_many() {
        let (world, _, mut response) = good();
        let extra = response.features[0].clone();
        response.features.extend(std::iter::repeat_n(extra, 10));
        let err = check_features(&world.wiki.kb, &response, 10).unwrap_err();
        assert!(err.contains("more than 10"), "{err}");
    }

    #[test]
    fn features_reject_a_query_article() {
        let (world, _, mut response) = good();
        response.features[0] = response.entities[0].clone();
        let err = check_features(&world.wiki.kb, &response, 10).unwrap_err();
        assert!(err.contains("query article"), "{err}");
    }

    #[test]
    fn features_reject_a_redirect() {
        let (world, _, mut response) = good();
        let kb = &world.wiki.kb;
        let redirect = (0..kb.num_articles() as u32)
            .map(ArticleId)
            .find(|&a| kb.is_redirect(a))
            .expect("the tiny world has redirects");
        response.features[0] = term(kb, redirect);
        let err = check_features(kb, &response, 10).unwrap_err();
        assert!(err.contains("redirect"), "{err}");
    }

    #[test]
    fn features_reject_a_distant_article() {
        let (world, _, mut response) = good();
        let kb = &world.wiki.kb;
        let q = kb.article_node(response.entities[0].article);
        let ball = traverse(kb.graph(), q, RADIUS);
        let far = kb
            .main_articles()
            .find(|&a| !ball.contains_key(&kb.article_node(a)))
            .expect("an article beyond distance 2");
        response.features[0] = term(kb, far);
        let err = check_features(kb, &response, 10).unwrap_err();
        assert!(err.contains("farther"), "{err}");
    }

    #[test]
    fn features_reject_an_article_on_no_short_cycle() {
        // Q -> A -> B -> Q is a triangle; F hangs off A, at distance 2
        // from Q but on no cycle at all. Each article has a category of
        // its own, which closes no cycle.
        let mut b = querygraph_wiki::KbBuilder::new();
        let q = b.add_article("Q");
        let a = b.add_article("A");
        let bb = b.add_article("B");
        let f = b.add_article("F");
        b.link(q, a);
        b.link(a, bb);
        b.link(bb, q);
        b.link(a, f);
        for (article, name) in [(q, "Cq"), (a, "Ca"), (bb, "Cb"), (f, "Cf")] {
            let c = b.add_category(name);
            b.belongs(article, c);
        }
        let kb = b.build().expect("a valid knowledge base");
        let mut response = ExpansionResponse {
            query: "Q".to_string(),
            entities: vec![term(&kb, q)],
            features: vec![term(&kb, bb), term(&kb, a)],
            expanded_query: String::new(),
            hits: Vec::new(),
        };
        check_features(&kb, &response, 10).unwrap();
        response.features.push(term(&kb, f));
        let err = check_features(&kb, &response, 10).unwrap_err();
        assert!(err.contains("no simple cycle"), "{err}");
    }

    #[test]
    fn hits_reject_more_than_k() {
        let (_, _, response) = good();
        let err = check_hits(&response.hits, 1).unwrap_err();
        assert!(err.contains("more than k"), "{err}");
    }

    #[test]
    fn hits_reject_a_wrong_order() {
        let (_, _, mut response) = good();
        response.hits.swap(0, 1);
        let err = check_hits(&response.hits, 10).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
        let mut tied = response.hits.clone();
        tied.sort_by_key(|h| std::cmp::Reverse(h.doc));
        for h in &mut tied {
            h.score = -1.0;
        }
        assert!(check_hits(&tied, 10).is_err());
    }

    #[test]
    fn pruned_rejects_a_different_hit() {
        let (_, _, response) = good();
        let mut pruned = response.hits.clone();
        pruned[0].score += 1e-12;
        assert!(check_pruned(&response.hits, &pruned).is_err());
        pruned.truncate(1);
        assert!(check_pruned(&response.hits, &pruned).is_err());
        assert!(check_pruned(&response.hits, &response.hits).is_ok());
    }
}
