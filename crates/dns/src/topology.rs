//! Hierarchical DNS topologies: a tree of caching resolvers with the border
//! server as vantage point (Fig. 1 of the paper).
//!
//! A lookup issued by a client walks up from its local resolver towards the
//! border. Any non-expired cache entry along the way absorbs it (it becomes
//! invisible). If it reaches the border, it is recorded as an
//! [`ObservedLookup`] attributed to the *last forwarding server* — exactly
//! the `⟨t, s, d⟩` tuple BotMeter consumes — and the authoritative answer is
//! then cached at every node along the path.
//!
//! One [`Topology`] serves both record layouts through [`TopologyLookup`]:
//! name-keyed [`RawLookup`]s filter through `DnsCache<DomainName>` caches,
//! id-resident [`CompactLookup`]s through `DnsCache<DomainId>` caches.

use crate::authority::{Answer, Authority};
use crate::cache::{CacheStats, DnsCache};
use crate::intern::{DomainId, DomainInterner};
use crate::name::DomainName;
use crate::record::{
    ClientId, CompactLookup, CompactObserved, ObservedLookup, RawLookup, ServerId,
};
use crate::time::SimInstant;
use crate::ttl::TtlPolicy;
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Identifier of the border (root) server in every topology.
const BORDER: ServerId = ServerId(0);

/// A lookup record a [`Topology`] can route: the name-keyed [`RawLookup`]
/// or the id-resident [`CompactLookup`]. It names the key the resolver
/// caches probe and the record the border sees.
pub trait TopologyLookup {
    /// The cache key: [`DomainName`] or [`DomainId`].
    type Key: Clone + Eq + Hash + Ord + Send + Sync;
    /// The border-visible record this lookup becomes.
    type Observed: Send;

    /// When the client issued the query.
    fn t(&self) -> SimInstant;
    /// The issuing client.
    fn client(&self) -> ClientId;
    /// The queried domain as the caches key it.
    fn key(&self) -> &Self::Key;
    /// The domain's fingerprint, which picks a key's shard on the
    /// parallel path.
    fn key_id(key: &Self::Key) -> DomainId;
    /// The record the border sees when `server` forwards this lookup.
    fn observe(&self, server: ServerId) -> Self::Observed;
}

impl TopologyLookup for RawLookup {
    type Key = DomainName;
    type Observed = ObservedLookup;

    fn t(&self) -> SimInstant {
        self.t
    }

    fn client(&self) -> ClientId {
        self.client
    }

    fn key(&self) -> &DomainName {
        &self.domain
    }

    fn key_id(key: &DomainName) -> DomainId {
        key.id()
    }

    fn observe(&self, server: ServerId) -> ObservedLookup {
        ObservedLookup::new(self.t, server, self.domain.clone())
    }
}

impl TopologyLookup for CompactLookup {
    type Key = DomainId;
    type Observed = CompactObserved;

    fn t(&self) -> SimInstant {
        self.t
    }

    fn client(&self) -> ClientId {
        self.client
    }

    fn key(&self) -> &DomainId {
        &self.domain
    }

    fn key_id(key: &DomainId) -> DomainId {
        *key
    }

    fn observe(&self, server: ServerId) -> CompactObserved {
        CompactObserved::new(self.t, server, self.domain)
    }
}

/// Answers a border cache miss for one key layout. Every [`Authority`]
/// answers name keys directly; an id-keyed topology takes
/// `(&DomainInterner, authority)` and resolves the id to its canonical
/// name first — the only place the id layout touches text.
pub trait BorderAuthority<K> {
    /// The authoritative answer for `key` at time `t`.
    fn answer(&self, t: SimInstant, key: &K) -> Answer;
}

impl<A: Authority> BorderAuthority<DomainName> for A {
    fn answer(&self, t: SimInstant, key: &DomainName) -> Answer {
        self.resolve(t, key)
    }
}

impl<A: Authority> BorderAuthority<DomainId> for (&DomainInterner, A) {
    fn answer(&self, t: SimInstant, key: &DomainId) -> Answer {
        let name = self
            .0
            .resolve(*key)
            .expect("hot-path domains are interned before replay");
        self.1.resolve(t, name)
    }
}

#[derive(Debug, Clone)]
struct Node<K> {
    parent: Option<ServerId>,
    cache: DnsCache<K>,
}

/// Errors from topology construction or client routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Referenced a server id that does not exist.
    UnknownServer(ServerId),
    /// Tried to attach clients to (or parent a node under) the border in an
    /// unsupported way.
    BorderNotALeaf,
    /// A lookup arrived from a client with no assigned resolver and no
    /// default leaf is configured.
    UnroutedClient(ClientId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownServer(s) => write!(f, "unknown server {s}"),
            TopologyError::BorderNotALeaf => {
                write!(f, "the border server cannot serve clients directly")
            }
            TopologyError::UnroutedClient(c) => {
                write!(f, "no resolver assigned for {c} and no default leaf set")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for [`Topology`]. The border server (id 0) always exists.
///
/// # Example
///
/// ```
/// use botmeter_dns::{Topology, TopologyBuilder, TtlPolicy};
/// let mut b = TopologyBuilder::new(TtlPolicy::paper_default());
/// let site_a = b.add_resolver_under_border();
/// let site_b = b.add_resolver_under_border();
/// let floor = b.add_resolver(site_a)?; // a second caching level
/// let mut topo: Topology = b.build();
/// topo.set_default_leaf(site_b)?;
/// assert_eq!(topo.local_servers().len(), 3);
/// # let _ = floor;
/// # Ok::<(), botmeter_dns::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    ttl: TtlPolicy,
    /// Each node's upstream server, indexed by server id.
    parents: Vec<Option<ServerId>>,
}

impl TopologyBuilder {
    /// Starts a topology containing only the border server.
    pub fn new(ttl: TtlPolicy) -> Self {
        TopologyBuilder {
            ttl,
            parents: vec![None],
        }
    }

    /// Adds a resolver forwarding directly to the border; returns its id.
    pub fn add_resolver_under_border(&mut self) -> ServerId {
        self.add_resolver(BORDER).expect("border always exists")
    }

    /// Adds a resolver forwarding to `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownServer`] if `parent` was never
    /// created.
    pub fn add_resolver(&mut self, parent: ServerId) -> Result<ServerId, TopologyError> {
        if parent.0 as usize >= self.parents.len() {
            return Err(TopologyError::UnknownServer(parent));
        }
        let id = ServerId(self.parents.len() as u32);
        self.parents.push(Some(parent));
        Ok(id)
    }

    /// Finalises the topology, with caches keyed by `K` (inferred from the
    /// records it processes).
    pub fn build<K>(self) -> Topology<K> {
        Topology {
            ttl: self.ttl,
            nodes: self
                .parents
                .into_iter()
                .map(|parent| Node {
                    parent,
                    cache: DnsCache::default(),
                })
                .collect(),
            client_map: HashMap::new(),
            default_leaf: None,
            obs: Obs::noop(),
            scratch_path: Vec::with_capacity(4),
        }
    }
}

/// A tree of caching resolvers rooted at the border vantage point.
///
/// See the crate-level documentation for the forwarding model. The cache
/// key `K` follows the records processed: [`DomainName`] for
/// [`RawLookup`]s, [`DomainId`] for [`CompactLookup`]s. The id layout's
/// per-lookup path touches no `Arc` refcounts and, in steady state,
/// allocates nothing; it consults its [`DomainInterner`] only on a border
/// cache miss. Every cache is unbounded in that layout's use, so id-keyed
/// filtering is bit-identical to name-keyed filtering (id equality ≡ name
/// equality; the interner panics at intern time on a fingerprint
/// collision). The name-keyed cache still compares text on equal ids.
///
/// # Example
///
/// ```
/// use botmeter_dns::{
///     ClientId, RawLookup, SimInstant, StaticAuthority, Topology, TtlPolicy,
/// };
/// let mut topo = Topology::single_local(TtlPolicy::paper_default());
/// let auth = StaticAuthority::empty();
/// let raw = RawLookup::new(SimInstant::ZERO, ClientId(1), "nx.example".parse()?);
///
/// // First lookup reaches the border ...
/// assert!(topo.process(&raw, &auth)?.is_some());
/// // ... an identical one a moment later is absorbed by the local cache.
/// let raw2 = RawLookup::new(SimInstant::from_millis(10), ClientId(2), "nx.example".parse()?);
/// assert!(topo.process(&raw2, &auth)?.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Topology<K = DomainName> {
    ttl: TtlPolicy,
    nodes: Vec<Node<K>>,
    client_map: HashMap<ClientId, ServerId>,
    default_leaf: Option<ServerId>,
    obs: Obs,
    /// Reused walk path, so steady-state processing allocates nothing.
    scratch_path: Vec<ServerId>,
}

impl<K: Clone + Eq + Hash + Ord + Send + Sync> Topology<K> {
    /// The simplest topology in the paper's evaluation: one local resolver
    /// under the border, serving every client by default.
    pub fn single_local(ttl: TtlPolicy) -> Self {
        let mut b = TopologyBuilder::new(ttl);
        let local = b.add_resolver_under_border();
        let mut t = b.build();
        t.set_default_leaf(local).expect("local resolver exists");
        t
    }

    /// A one-level topology with `n` local resolvers under the border
    /// (clients must be assigned, or a default leaf set, before processing).
    pub fn star(ttl: TtlPolicy, n: usize) -> Self {
        let mut b = TopologyBuilder::new(ttl);
        for _ in 0..n {
            b.add_resolver_under_border();
        }
        b.build()
    }

    /// The border server's id (always `ServerId(0)`).
    pub fn border(&self) -> ServerId {
        BORDER
    }

    /// Ids of all non-border resolvers.
    pub fn local_servers(&self) -> Vec<ServerId> {
        (1..self.nodes.len() as u32).map(ServerId).collect()
    }

    /// Routes every client without an explicit assignment to `leaf`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownServer`] for a nonexistent id,
    /// [`TopologyError::BorderNotALeaf`] for the border.
    pub fn set_default_leaf(&mut self, leaf: ServerId) -> Result<(), TopologyError> {
        self.check_leaf(leaf)?;
        self.default_leaf = Some(leaf);
        Ok(())
    }

    /// Assigns one client to a specific local resolver.
    ///
    /// # Errors
    ///
    /// Same as [`set_default_leaf`](Self::set_default_leaf).
    pub fn assign_client(&mut self, client: ClientId, leaf: ServerId) -> Result<(), TopologyError> {
        self.check_leaf(leaf)?;
        self.client_map.insert(client, leaf);
        Ok(())
    }

    fn check_leaf(&self, leaf: ServerId) -> Result<(), TopologyError> {
        if leaf == BORDER {
            return Err(TopologyError::BorderNotALeaf);
        }
        if leaf.0 as usize >= self.nodes.len() {
            return Err(TopologyError::UnknownServer(leaf));
        }
        Ok(())
    }

    /// The resolver a client's lookups enter at.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnroutedClient`] if the client has no assignment
    /// and no default leaf is set.
    pub fn route(&self, client: ClientId) -> Result<ServerId, TopologyError> {
        self.client_map
            .get(&client)
            .copied()
            .or(self.default_leaf)
            .ok_or(TopologyError::UnroutedClient(client))
    }

    /// Processes one raw lookup through the hierarchy.
    ///
    /// Returns `Ok(Some(observed))` if the lookup reached the border (and is
    /// therefore visible to BotMeter), `Ok(None)` if some cache absorbed it.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnroutedClient`] if the client cannot be routed.
    pub fn process<R, A>(
        &mut self,
        raw: &R,
        authority: A,
    ) -> Result<Option<R::Observed>, TopologyError>
    where
        R: TopologyLookup<Key = K>,
        A: BorderAuthority<K>,
    {
        let entry = self.route(raw.client())?;
        let t = raw.t();
        let key = raw.key();

        // Walk up, collecting the path of caches below the border.
        let mut path = std::mem::take(&mut self.scratch_path);
        path.clear();
        let mut current = entry;
        loop {
            if self.nodes[current.0 as usize]
                .cache
                .lookup(t, key)
                .is_some()
            {
                self.scratch_path = path;
                return Ok(None); // absorbed below the vantage point
            }
            path.push(current);
            match self.nodes[current.0 as usize].parent {
                Some(parent) if parent == BORDER => break,
                Some(parent) => current = parent,
                None => break, // entry somehow was the border: defensive
            }
        }

        let forwarder = *path.last().expect("path has at least the entry node");

        // Resolve at/above the border (the border's own cache does not
        // affect visibility, only upstream traffic, which we don't model).
        let answer = self.resolve_at_border(t, key, authority);

        // The response propagates back down; every node on the path caches it.
        for node in &path {
            self.nodes[node.0 as usize]
                .cache
                .store(t, key.clone(), answer, &self.ttl);
        }
        self.scratch_path = path;
        Ok(Some(raw.observe(forwarder)))
    }

    fn resolve_at_border<A: BorderAuthority<K>>(
        &mut self,
        t: SimInstant,
        key: &K,
        authority: A,
    ) -> Answer {
        let border = &mut self.nodes[BORDER.0 as usize];
        if let Some(hit) = border.cache.lookup(t, key) {
            return hit.answer;
        }
        let answer = authority.answer(t, key);
        border.cache.store(t, key.clone(), answer, &self.ttl);
        answer
    }

    /// Attaches an observability handle; subsequent
    /// [`process_trace`](Self::process_trace) calls report per-server cache
    /// deltas (`cache.s{id}.*`) and border admission counters
    /// (`topology.lookups` / `topology.admitted` / `topology.filtered`)
    /// through it. The default handle is the no-op one.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Runs a whole raw trace (assumed time-ordered) through the hierarchy
    /// under `policy` and returns the border-visible sub-trace; see
    /// [`process_trace_into`](Self::process_trace_into).
    ///
    /// # Errors
    ///
    /// Same as [`process_trace_into`](Self::process_trace_into).
    pub fn process_trace<R, A>(
        &mut self,
        raws: &[R],
        authority: A,
        policy: ExecPolicy,
    ) -> Result<Vec<R::Observed>, TopologyError>
    where
        R: TopologyLookup<Key = K> + Sync,
        A: BorderAuthority<K> + Copy + Sync,
    {
        let mut out = Vec::new();
        self.process_trace_into(raws, authority, policy, &mut out)?;
        Ok(out)
    }

    /// Runs a whole raw trace (assumed time-ordered) through the hierarchy
    /// under `policy` and appends the border-visible sub-trace to `out` —
    /// the caller owns (and can recycle) the output buffer, keeping the
    /// sequential steady state allocation-free. Sequential and parallel
    /// policies produce bit-identical output and cache state.
    ///
    /// The parallel path shards the trace by [`DomainId`]: cache visibility
    /// is a per-domain property when every cache is unbounded (the
    /// simulated topologies), because entries are domain-keyed and never
    /// evicted by other domains' traffic. All lookups for one domain land
    /// in one shard with relative order preserved, which reproduces the
    /// sequential outcome bit-for-bit; the shards' observed lookups are
    /// stitched back into trace order afterwards, the shards' cache entries
    /// and stat deltas merged into `self`. It falls back to sequential
    /// processing when a capacity-bounded cache is present (evictions
    /// couple domains), when only one worker thread is configured, or when
    /// the trace is too short to be worth sharding.
    ///
    /// # Errors
    ///
    /// Fails if any lookup's client is unroutable. (The parallel path
    /// pre-routes and leaves the caches unchanged on error, whereas
    /// sequential processing stops mid-trace.)
    pub fn process_trace_into<R, A>(
        &mut self,
        raws: &[R],
        authority: A,
        policy: ExecPolicy,
        out: &mut Vec<R::Observed>,
    ) -> Result<(), TopologyError>
    where
        R: TopologyLookup<Key = K> + Sync,
        A: BorderAuthority<K> + Copy + Sync,
    {
        const MIN_PARALLEL_TRACE: usize = 2048;
        let base_stats: Option<Vec<CacheStats>> = self
            .obs
            .enabled()
            .then(|| self.nodes.iter().map(|n| n.cache.stats()).collect());
        let admitted_before = out.len();

        let shards = policy.worker_threads();
        let bounded = self.nodes.iter().any(|n| n.cache.capacity().is_some());
        if shards <= 1 || bounded || raws.len() < MIN_PARALLEL_TRACE {
            for raw in raws {
                if let Some(obs) = self.process(raw, authority)? {
                    out.push(obs);
                }
            }
        } else {
            self.process_trace_sharded(raws, authority, shards, out)?;
        }

        if let Some(base) = base_stats {
            self.push_cache_deltas(&base);
            self.obs.counter_add("topology.lookups", raws.len() as u64);
            let admitted = out.len() - admitted_before;
            self.obs.counter_add("topology.admitted", admitted as u64);
            self.obs
                .counter_add("topology.filtered", (raws.len() - admitted) as u64);
        }
        Ok(())
    }

    fn process_trace_sharded<R, A>(
        &mut self,
        raws: &[R],
        authority: A,
        shards: usize,
        out: &mut Vec<R::Observed>,
    ) -> Result<(), TopologyError>
    where
        R: TopologyLookup<Key = K> + Sync,
        A: BorderAuthority<K> + Copy + Sync,
    {
        for raw in raws {
            self.route(raw.client())?;
        }

        let shard_of = move |key: &K| (R::key_id(key).0 % shards as u64) as usize;
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, raw) in raws.iter().enumerate() {
            parts[shard_of(raw.key())].push(i);
        }

        let base_stats: Vec<CacheStats> = self.nodes.iter().map(|n| n.cache.stats()).collect();
        let template: &Self = self;
        let shard_results = botmeter_exec::run_indexed_with(
            ExecPolicy::with_threads(shards),
            &self.obs,
            shards,
            |s| {
                let mut topo = template.clone();
                let mut seen: Vec<(usize, R::Observed)> = Vec::new();
                for &i in &parts[s] {
                    let visible = topo
                        .process(&raws[i], authority)
                        .expect("every client pre-routed");
                    if let Some(o) = visible {
                        seen.push((i, o));
                    }
                }
                (topo, seen)
            },
        );

        // Stitch observations back into trace order. Each shard's list is
        // already ascending in trace index, so this is a k-way merge; a sort
        // by unique index gives the same result with less code.
        let mut indexed: Vec<(usize, R::Observed)> = Vec::new();
        for (s, (shard_topo, seen)) in shard_results.into_iter().enumerate() {
            indexed.extend(seen);
            for (n, shard_node) in shard_topo.nodes.into_iter().enumerate() {
                self.nodes[n]
                    .cache
                    .absorb_shard(shard_node.cache, base_stats[n], |d: &K| shard_of(d) == s);
            }
        }
        indexed.sort_by_key(|(i, _)| *i);
        out.extend(indexed.into_iter().map(|(_, o)| o));
        Ok(())
    }

    /// Pushes the difference between the current per-node cache stats and
    /// `base` into the recorder as `cache.s{id}.*` counters. Batched at
    /// trace-batch boundaries so the per-lookup hot path stays free of
    /// recording calls; only non-zero deltas are pushed.
    fn push_cache_deltas(&self, base: &[CacheStats]) {
        for (n, node) in self.nodes.iter().enumerate() {
            let now = node.cache.stats();
            let prev = base[n];
            let fields = [
                ("pos_hits", now.positive_hits - prev.positive_hits),
                ("neg_hits", now.negative_hits - prev.negative_hits),
                ("misses", now.misses - prev.misses),
                (
                    "expired_evictions",
                    now.expired_evictions - prev.expired_evictions,
                ),
                (
                    "capacity_evictions",
                    now.capacity_evictions - prev.capacity_evictions,
                ),
            ];
            for (field, delta) in fields {
                if delta > 0 {
                    self.obs.counter_add(&format!("cache.s{n}.{field}"), delta);
                }
            }
        }
    }

    /// Cache statistics of one node.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn cache_stats(&self, server: ServerId) -> CacheStats {
        self.nodes[server.0 as usize].cache.stats()
    }

    /// Clears every cache in the hierarchy.
    pub fn clear_caches(&mut self) {
        for node in &mut self.nodes {
            node.cache.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::StaticAuthority;
    use crate::time::SimDuration;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn raw(ms: u64, client: u32, name: &str) -> RawLookup {
        RawLookup::new(SimInstant::from_millis(ms), ClientId(client), d(name))
    }

    #[test]
    fn single_local_filters_duplicates() {
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        let first = topo.process(&raw(0, 1, "nx.example"), &auth).unwrap();
        assert!(first.is_some());
        assert_eq!(first.unwrap().server, ServerId(1));
        // Different client, same domain, within negative TTL: absorbed.
        assert!(topo
            .process(&raw(1000, 2, "nx.example"), &auth)
            .unwrap()
            .is_none());
        // After negative TTL expiry: visible again.
        let later = 2 * 3_600_000 + 1;
        assert!(topo
            .process(&raw(later, 3, "nx.example"), &auth)
            .unwrap()
            .is_some());
    }

    #[test]
    fn star_attributes_forwarding_server() {
        let mut topo = Topology::star(TtlPolicy::paper_default(), 2);
        let servers = topo.local_servers();
        topo.assign_client(ClientId(1), servers[0]).unwrap();
        topo.assign_client(ClientId(2), servers[1]).unwrap();
        let auth = StaticAuthority::empty();

        let a = topo
            .process(&raw(0, 1, "nx.example"), &auth)
            .unwrap()
            .unwrap();
        assert_eq!(a.server, servers[0]);
        // Same domain via the *other* resolver: its own cache is cold, so it
        // still reaches the border and is attributed to server 2.
        let b = topo
            .process(&raw(5, 2, "nx.example"), &auth)
            .unwrap()
            .unwrap();
        assert_eq!(b.server, servers[1]);
    }

    #[test]
    fn two_level_hierarchy_masks_at_middle() {
        let mut b = TopologyBuilder::new(TtlPolicy::paper_default());
        let site = b.add_resolver_under_border();
        let floor1 = b.add_resolver(site).unwrap();
        let floor2 = b.add_resolver(site).unwrap();
        let mut topo = b.build();
        topo.assign_client(ClientId(1), floor1).unwrap();
        topo.assign_client(ClientId(2), floor2).unwrap();
        let auth = StaticAuthority::empty();

        // Client 1's lookup reaches the border, attributed to `site`
        // (the last forwarder below the border).
        let obs = topo
            .process(&raw(0, 1, "nx.example"), &auth)
            .unwrap()
            .unwrap();
        assert_eq!(obs.server, site);

        // Client 2 goes through floor2 (cold) but hits site's warm cache:
        // absorbed in the middle of the hierarchy.
        assert!(topo
            .process(&raw(10, 2, "nx.example"), &auth)
            .unwrap()
            .is_none());
        // floor2 cached nothing (the lookup never got answered through it?
        // No: absorption means site's cached answer is served; floor2 does
        // not learn it in our model). A repeat via floor2 is absorbed again
        // at site.
        assert!(topo
            .process(&raw(20, 2, "nx.example"), &auth)
            .unwrap()
            .is_none());
    }

    #[test]
    fn routing_errors() {
        let mut topo = Topology::star(TtlPolicy::paper_default(), 1);
        let auth = StaticAuthority::empty();
        let err = topo.process(&raw(0, 9, "nx.example"), &auth).unwrap_err();
        assert_eq!(err, TopologyError::UnroutedClient(ClientId(9)));
        assert_eq!(
            topo.assign_client(ClientId(1), ServerId(0)),
            Err(TopologyError::BorderNotALeaf)
        );
        assert_eq!(
            topo.assign_client(ClientId(1), ServerId(42)),
            Err(TopologyError::UnknownServer(ServerId(42)))
        );
        assert!(err.to_string().contains("client-9"));
    }

    #[test]
    fn positive_answers_cached_longer() {
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::from_domains([d("c2.example")]);
        assert!(topo
            .process(&raw(0, 1, "c2.example"), &auth)
            .unwrap()
            .is_some());
        // 12 hours later: still inside the 1-day positive TTL.
        let t = SimDuration::from_hours(12).as_millis();
        assert!(topo
            .process(&raw(t, 2, "c2.example"), &auth)
            .unwrap()
            .is_none());
    }

    #[test]
    fn process_trace_preserves_order_and_filters() {
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        let trace = vec![
            raw(0, 1, "a.example"),
            raw(10, 1, "b.example"),
            raw(20, 2, "a.example"), // absorbed
            raw(30, 2, "c.example"),
        ];
        let obs = topo
            .process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        let names: Vec<&str> = obs.iter().map(|o| o.domain.as_str()).collect();
        assert_eq!(names, vec!["a.example", "b.example", "c.example"]);
    }

    #[test]
    fn clear_caches_resets_filtering() {
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        assert!(topo
            .process(&raw(0, 1, "a.example"), &auth)
            .unwrap()
            .is_some());
        topo.clear_caches();
        assert!(topo
            .process(&raw(1, 1, "a.example"), &auth)
            .unwrap()
            .is_some());
    }

    #[test]
    fn cache_stats_survive_clear_caches_and_stay_counter_consistent() {
        let (obs, registry) = Obs::collecting();
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        topo.set_obs(obs);
        let auth = StaticAuthority::empty();
        let trace: Vec<RawLookup> = (0..64u64)
            .map(|i| raw(i * 10, 1, &format!("d{}.example", i % 8)))
            .collect();
        topo.process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        let local = topo.local_servers()[0];
        let before = topo.cache_stats(local);
        assert!(before.hits() > 0 && before.misses > 0);

        // Clearing drops cached entries but not the lifetime statistics —
        // they track the same totals the pushed obs counters do.
        topo.clear_caches();
        assert_eq!(topo.cache_stats(local), before);
        let snap = registry.snapshot();
        let prefix = format!("cache.s{}.", local.0);
        assert_eq!(
            snap.counter(&format!("{prefix}neg_hits")),
            Some(before.negative_hits)
        );
        assert_eq!(
            snap.counter(&format!("{prefix}misses")),
            Some(before.misses)
        );

        // Further traffic keeps the cumulative stats and the pushed deltas
        // in lock-step: counter totals equal the stats totals at all times.
        topo.process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        let after = topo.cache_stats(local);
        assert!(after.misses > before.misses);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(&format!("{prefix}neg_hits")),
            Some(after.negative_hits)
        );
        assert_eq!(snap.counter(&format!("{prefix}misses")), Some(after.misses));
    }

    #[test]
    fn parallel_trace_matches_sequential_exactly() {
        // A trace long enough to clear the parallel threshold, with heavy
        // domain re-use so cache state actually matters.
        let build_trace = || {
            let mut trace = Vec::new();
            for i in 0..4000u64 {
                let name = format!("d{}.example", i % 97);
                trace.push(raw(i * 10, (i % 7) as u32, &name));
            }
            trace
        };
        let auth = StaticAuthority::from_domains([d("d3.example"), d("d55.example")]);

        let mut seq_topo = Topology::single_local(TtlPolicy::paper_default());
        let seq = seq_topo
            .process_trace(&build_trace(), &auth, ExecPolicy::Sequential)
            .unwrap();

        let mut par_topo = Topology::single_local(TtlPolicy::paper_default());
        let par = par_topo
            .process_trace(&build_trace(), &auth, ExecPolicy::with_threads(4))
            .unwrap();

        assert_eq!(seq, par, "parallel filtering must be bit-identical");
        let local = seq_topo.local_servers()[0];
        assert_eq!(seq_topo.cache_stats(local), par_topo.cache_stats(local));
        assert_eq!(
            seq_topo.cache_stats(ServerId(0)),
            par_topo.cache_stats(ServerId(0))
        );
    }

    #[test]
    fn parallel_trace_leaves_caches_usable() {
        // After a parallel run the merged caches must keep filtering like
        // sequentially-warmed ones.
        let mut trace = Vec::new();
        for i in 0..3000u64 {
            trace.push(raw(i, (i % 3) as u32, &format!("d{}.example", i % 11)));
        }
        let auth = StaticAuthority::empty();
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        topo.process_trace(&trace, &auth, ExecPolicy::parallel())
            .unwrap();
        // Every one of the 11 domains is now negatively cached.
        let t_after = 3000 + 10;
        for k in 0..11 {
            assert!(topo
                .process(&raw(t_after, 1, &format!("d{k}.example")), &auth)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn parallel_trace_short_input_falls_back() {
        let auth = StaticAuthority::empty();
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let obs = topo
            .process_trace(&[raw(0, 1, "a.example")], &auth, ExecPolicy::parallel())
            .unwrap();
        assert_eq!(obs.len(), 1);
    }

    #[test]
    fn trace_metrics_report_cache_deltas_and_admission() {
        let (handle, registry) = Obs::collecting();
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        topo.set_obs(handle);
        let auth = StaticAuthority::from_domains([d("live.example")]);
        let trace = vec![
            raw(0, 1, "live.example"),
            raw(10, 2, "live.example"), // positive cache hit at the local
            raw(20, 1, "nx.example"),
            raw(30, 2, "nx.example"), // negative cache hit at the local
        ];
        let seen = topo
            .process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        assert_eq!(seen.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("topology.lookups"), Some(4));
        assert_eq!(snap.counter("topology.admitted"), Some(2));
        assert_eq!(snap.counter("topology.filtered"), Some(2));
        // The local resolver is node 1.
        assert_eq!(snap.counter("cache.s1.pos_hits"), Some(1));
        assert_eq!(snap.counter("cache.s1.neg_hits"), Some(1));
        assert_eq!(snap.counter("cache.s1.misses"), Some(2));
        // Counters agree with the in-cache source of truth.
        let stats = topo.cache_stats(topo.local_servers()[0]);
        assert_eq!(stats.positive_hits, 1);
        assert_eq!(stats.negative_hits, 1);
        assert_eq!(stats.misses, 2);
    }

    /// One resolver tree built in both record layouts, plus the ids of all
    /// its servers; clients 0..7 are spread over the leaves.
    fn layouts(shape: &str) -> (Topology, Topology<DomainId>, Vec<ServerId>) {
        fn build<K: Clone + Eq + Hash + Ord + Send + Sync>(shape: &str) -> Topology<K> {
            let ttl = TtlPolicy::paper_default();
            match shape {
                "single_local" => Topology::single_local(ttl),
                "star" => {
                    let mut topo = Topology::star(ttl, 3);
                    let leaves = topo.local_servers();
                    for c in 0..7u32 {
                        topo.assign_client(ClientId(c), leaves[c as usize % 3])
                            .unwrap();
                    }
                    topo
                }
                _ => {
                    let mut b = TopologyBuilder::new(ttl);
                    let site_a = b.add_resolver_under_border();
                    let site_b = b.add_resolver_under_border();
                    let floors = [
                        b.add_resolver(site_a).unwrap(),
                        b.add_resolver(site_a).unwrap(),
                        b.add_resolver(site_b).unwrap(),
                    ];
                    let mut topo = b.build();
                    for c in 0..6u32 {
                        topo.assign_client(ClientId(c), floors[c as usize % 3])
                            .unwrap();
                    }
                    // Client 6 enters straight at a site.
                    topo.set_default_leaf(site_b).unwrap();
                    topo
                }
            }
        }
        let named = build::<DomainName>(shape);
        let mut servers = vec![named.border()];
        servers.extend(named.local_servers());
        (named, build::<DomainId>(shape), servers)
    }

    #[test]
    fn compact_topology_matches_name_keyed_filtering_bit_for_bit() {
        let mut interner = crate::DomainInterner::new();
        let mut trace = Vec::new();
        for i in 0..4000u64 {
            let name = interner.intern(d(&format!("d{}.example", i % 97)));
            trace.push(RawLookup::new(
                SimInstant::from_millis(i * 10),
                ClientId((i % 7) as u32),
                name,
            ));
        }
        let compact: Vec<CompactLookup> = trace.iter().map(|r| r.compact()).collect();
        let auth = StaticAuthority::from_domains([d("d3.example"), d("d55.example")]);

        for shape in ["single_local", "star", "two_level"] {
            for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(4)] {
                let (mut legacy, mut fast, servers) = layouts(shape);
                let expect = legacy.process_trace(&trace, &auth, policy).unwrap();
                let got = fast
                    .process_trace(&compact, (&interner, &auth), policy)
                    .unwrap();

                let hydrated: Vec<ObservedLookup> = got
                    .iter()
                    .map(|o| o.hydrate(&interner).expect("interned"))
                    .collect();
                assert_eq!(hydrated, expect, "{shape}, policy {policy:?}");
                for s in servers {
                    assert_eq!(
                        fast.cache_stats(s),
                        legacy.cache_stats(s),
                        "{shape}, policy {policy:?}, server {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn compact_topology_pushes_the_same_counters() {
        let mut interner = crate::DomainInterner::new();
        let live = interner.intern(d("live.example"));
        let nx = interner.intern(d("nx.example"));
        let auth = StaticAuthority::from_domains([d("live.example")]);
        let trace = [
            CompactLookup::new(SimInstant::from_millis(0), ClientId(1), live.id()),
            CompactLookup::new(SimInstant::from_millis(10), ClientId(2), live.id()),
            CompactLookup::new(SimInstant::from_millis(20), ClientId(1), nx.id()),
            CompactLookup::new(SimInstant::from_millis(30), ClientId(2), nx.id()),
        ];
        let (handle, registry) = Obs::collecting();
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        topo.set_obs(handle);
        let mut out = Vec::new();
        topo.process_trace_into(&trace, (&interner, &auth), ExecPolicy::Sequential, &mut out)
            .unwrap();
        assert_eq!(out.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("topology.lookups"), Some(4));
        assert_eq!(snap.counter("topology.admitted"), Some(2));
        assert_eq!(snap.counter("topology.filtered"), Some(2));
        assert_eq!(snap.counter("cache.s1.pos_hits"), Some(1));
        assert_eq!(snap.counter("cache.s1.neg_hits"), Some(1));
        assert_eq!(snap.counter("cache.s1.misses"), Some(2));
    }

    #[test]
    fn cache_stats_accessible_per_node() {
        let mut topo = Topology::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        topo.process(&raw(0, 1, "a.example"), &auth).unwrap();
        topo.process(&raw(1, 1, "a.example"), &auth).unwrap();
        let local = topo.local_servers()[0];
        let s = topo.cache_stats(local);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses, 1);
    }
}
