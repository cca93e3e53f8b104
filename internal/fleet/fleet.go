package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"calib/api"
	"calib/internal/obs"
)

// Member is one backend in the roster: a stable name (the ring hashes
// names, so renaming a node moves its keys; re-addressing it does not)
// and the base URL its /v1 API answers on.
type Member struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config parameterizes New. Members may be empty at construction when
// a roster watcher will supply membership (cmd/isedfleet -roster).
type Config struct {
	// Members is the initial roster.
	Members []Member
	// Policy names the routing policy: "hash-affinity" (default),
	// "least-loaded", or "round-robin".
	Policy string
	// Replicas is the virtual-node count per member (0 =
	// DefaultReplicas).
	Replicas int
	// ProbeInterval spaces health probes per node (0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0 = 2s).
	ProbeTimeout time.Duration
	// FailAfter consecutive failures (probe or forward) eject a node
	// (0 = 3).
	FailAfter int
	// ReadmitAfter consecutive successful probes readmit an ejected
	// node (0 = 2).
	ReadmitAfter int
	// RetryAfter is the hint returned when every candidate node
	// refused or failed (0 = 1s).
	RetryAfter time.Duration
	// MaxBody bounds router-side request bodies in bytes (0 = 16 MiB).
	MaxBody int64
	// Replication is the replication factor: how many ring-successive
	// nodes (the owner included) hold each solved key's cached result.
	// 0 or 1 disables replication entirely — byte-for-byte today's
	// single-copy routing. cmd/isedfleet defaults its -replication
	// flag to DefaultReplication.
	Replication int
	// HintDir persists hinted-handoff entries across router restarts
	// ("" = memory only). Only read when replication is enabled.
	HintDir string
	// HintCap bounds hinted-handoff entries per ejected node; the
	// oldest hint is dropped past it (0 = 512).
	HintCap int
	// ReplicationQueue bounds the pending replica-write queue; the
	// oldest write is dropped past it (0 = 1024).
	ReplicationQueue int
	// HTTPClient is the shared forwarding transport (nil = a transport
	// with a deep idle pool per backend, sized for high fan-in).
	HTTPClient *http.Client
	// Metrics receives the fleet_* series (nil = a private registry).
	Metrics *obs.Registry
	// Logf receives membership and health transitions (nil = silent).
	// Every routing-relevant state change is logged through it so the
	// fleet's decisions are replayable from the daemon's stderr.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyHashAffinity
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 16 << 20
	}
	if c.HintCap <= 0 {
		c.HintCap = 512
	}
	if c.ReplicationQueue <= 0 {
		c.ReplicationQueue = 1024
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 256,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Node is one backend plus its health state. Nodes survive ring
// rebuilds: a roster rewrite that keeps a name keeps its Node, so
// ejection state and probe history are not reset by unrelated
// membership changes.
type Node struct {
	Name string
	URL  string

	// state is the health state machine's output: healthy nodes are in
	// the routing set; ejected nodes are out; warming nodes have
	// recovered but are receiving their hinted-handoff backlog and warm
	// transfer before re-entering routing (replication only — without
	// it, readmission flips ejected -> healthy directly).
	state atomic.Int32
	// fails / oks are the consecutive-outcome counters feeding the
	// state machine (guarded by mu: transitions must be atomic with
	// the counter check).
	mu    sync.Mutex
	fails int
	oks   int

	// probedInFlight is the backend's in_flight gauge from its last
	// health probe; outstanding counts this router's own live forwards.
	// least-loaded routing sums both.
	probedInFlight atomic.Int64
	outstanding    atomic.Int64
}

// Node health states (Node.state).
const (
	nodeHealthy int32 = iota
	nodeEjected
	nodeWarming
)

// Healthy reports whether the node is in the routing set.
func (n *Node) Healthy() bool { return n.state.Load() == nodeHealthy }

// Warming reports whether the node is in its post-recovery warming
// pass (hint replay + warm transfer), not yet routable.
func (n *Node) Warming() bool { return n.state.Load() == nodeWarming }

// Load is the least-loaded policy's ordering key: the backend's
// probed in-flight gauge plus this router's own outstanding forwards
// to it (the probe lags; the local count does not).
func (n *Node) Load() int64 { return n.probedInFlight.Load() + n.outstanding.Load() }

// view is one immutable membership snapshot: the ring plus the node
// set it was built from. Fleet swaps views atomically on roster
// changes; request handling loads the pointer once and works on a
// consistent snapshot throughout.
type view struct {
	ring   *Ring
	nodes  []*Node // roster order
	byName map[string]*Node
}

// Fleet is the routing core: membership, health, policy, and the
// forwarding loop the Router builds on. Create with New, then Start
// the prober; Close stops it.
type Fleet struct {
	cfg    Config
	view   atomic.Pointer[view]
	policy Policy

	probeWG     sync.WaitGroup
	probeCancel context.CancelFunc

	// ctx scopes the replication and warming machinery to the fleet's
	// lifetime; Close cancels it before waiting the workers out.
	ctx    context.Context
	cancel context.CancelFunc
	warmWG sync.WaitGroup
	// repl / hints are the replication write-behind queue and the
	// hinted-handoff store, nil/unused when Config.Replication <= 1.
	repl  *replicator
	hints *hintStore

	nodesG    *obs.Gauge
	healthyG  *obs.Gauge
	warmingG  *obs.Gauge
	inflightG *obs.Gauge
	ejects    *obs.Counter
	readmits  *obs.Counter
	probeFail *obs.Counter
	rebuilds  *obs.Counter
	exhausted *obs.Counter

	replicaPeeks  *obs.Counter
	replicaHits   *obs.Counter
	warmTransfers *obs.Counter
	warmEntries   *obs.Counter
	warmErrors    *obs.Counter

	fwdSecs *obs.Histogram
	spill   map[string]*obs.Counter // by reason, resolved once
}

// DefaultReplication is the replication factor cmd/isedfleet uses when
// -replication is not given: every key lives on its owner plus one
// ring successor.
const DefaultReplication = 2

// New builds a Fleet from cfg. The initial ring is built synchronously
// so routing works before the first probe tick; call Start to begin
// health probing.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	obs.DeclareFleet(cfg.Metrics)
	pol, err := PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:           cfg,
		policy:        pol,
		nodesG:        cfg.Metrics.Gauge(obs.MFleetNodes),
		healthyG:      cfg.Metrics.Gauge(obs.MFleetHealthyNodes),
		warmingG:      cfg.Metrics.Gauge(obs.MFleetWarmingNodes),
		inflightG:     cfg.Metrics.Gauge(obs.MFleetInflight),
		ejects:        cfg.Metrics.Counter(obs.MFleetEjects),
		readmits:      cfg.Metrics.Counter(obs.MFleetReadmits),
		probeFail:     cfg.Metrics.Counter(obs.MFleetProbeFails),
		rebuilds:      cfg.Metrics.Counter(obs.MFleetRebuilds),
		exhausted:     cfg.Metrics.Counter(obs.MFleetExhausted),
		replicaPeeks:  cfg.Metrics.Counter(obs.MFleetReplicaPeeks),
		replicaHits:   cfg.Metrics.Counter(obs.MFleetReplicaHits),
		warmTransfers: cfg.Metrics.Counter(obs.MFleetWarmTransfers),
		warmEntries:   cfg.Metrics.Counter(obs.MFleetWarmEntries),
		warmErrors:    cfg.Metrics.Counter(obs.MFleetWarmErrors),
		fwdSecs:       cfg.Metrics.Histogram(obs.MFleetForwardSeconds, nil),
		spill:         make(map[string]*obs.Counter, 3),
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for _, reason := range []string{SpillUnhealthy, SpillShed, SpillError} {
		f.spill[reason] = cfg.Metrics.CounterWith(obs.MFleetSpillover, "reason", reason)
	}
	if cfg.Replication >= 2 {
		f.hints = newHintStore(cfg.HintDir, cfg.HintCap, cfg.Metrics, cfg.Logf)
		f.repl = newReplicator(f, cfg.ReplicationQueue)
	}
	f.view.Store(&view{ring: NewRing(nil, cfg.Replicas), byName: map[string]*Node{}})
	if len(cfg.Members) > 0 {
		if err := f.SetMembers(cfg.Members); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// ValidateMembers rejects rosters the ring cannot hash: empty or
// duplicate names, empty URLs.
func ValidateMembers(members []Member) error {
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m.Name == "" {
			return fmt.Errorf("fleet member with empty name (url %q)", m.URL)
		}
		if m.URL == "" {
			return fmt.Errorf("fleet member %q with empty url", m.Name)
		}
		if _, dup := seen[m.Name]; dup {
			return fmt.Errorf("duplicate fleet member name %q", m.Name)
		}
		seen[m.Name] = struct{}{}
	}
	return nil
}

// SetMembers installs a new roster: the ring is rebuilt and swapped in
// atomically (requests in flight finish on the old view), nodes whose
// names survive keep their health state, and every add/remove is
// logged. Called at construction, by the roster watcher, and by tests.
func (f *Fleet) SetMembers(members []Member) error {
	if err := ValidateMembers(members); err != nil {
		return err
	}
	old := f.view.Load()
	names := make([]string, 0, len(members))
	nodes := make([]*Node, 0, len(members))
	byName := make(map[string]*Node, len(members))
	for _, m := range members {
		names = append(names, m.Name)
		n := old.byName[m.Name]
		switch {
		case n == nil:
			n = &Node{Name: m.Name, URL: m.URL}
			f.cfg.Logf("fleet: node %s added (%s)", m.Name, m.URL)
		case n.URL != m.URL:
			// Re-addressed: keep health state, follow the new URL.
			f.cfg.Logf("fleet: node %s re-addressed %s -> %s", m.Name, n.URL, m.URL)
			n.URL = m.URL
		}
		nodes = append(nodes, n)
		byName[m.Name] = n
	}
	for name := range old.byName {
		if _, kept := byName[name]; !kept {
			f.cfg.Logf("fleet: node %s removed", name)
		}
	}
	v := &view{ring: NewRing(names, f.cfg.Replicas), nodes: nodes, byName: byName}
	f.view.Store(v)
	f.rebuilds.Inc()
	f.nodesG.Set(float64(len(nodes)))
	f.updateHealthyGauge(v)
	f.cfg.Logf("fleet: ring rebuilt: %d nodes, %d points, policy %s",
		v.ring.Len(), v.ring.Points(), f.policy.Name())
	return nil
}

// Members returns the current roster.
func (f *Fleet) Members() []Member {
	v := f.view.Load()
	out := make([]Member, 0, len(v.nodes))
	for _, n := range v.nodes {
		out = append(out, Member{Name: n.Name, URL: n.URL})
	}
	return out
}

// Metrics returns the registry the fleet reports into.
func (f *Fleet) Metrics() *obs.Registry { return f.cfg.Metrics }

// Owner returns the affinity owner's name for a canonical key ("" on
// an empty fleet) — exposed for tests and the fleet-aware client.
func (f *Fleet) Owner(key uint64) string { return f.view.Load().ring.Owner(key) }

func (f *Fleet) updateHealthyGauge(v *view) {
	healthy, warming := 0, 0
	for _, n := range v.nodes {
		switch n.state.Load() {
		case nodeHealthy:
			healthy++
		case nodeWarming:
			warming++
		}
	}
	f.healthyG.Set(float64(healthy))
	f.warmingG.Set(float64(warming))
}

// Start launches the health prober: one goroutine, probing every node
// roughly each ProbeInterval (±10% jitter per tick, so a rack of
// routers restarted together — or one router over a large fleet — does
// not fire its probe bursts in phase forever). Stop with Close.
func (f *Fleet) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.probeCancel = cancel
	f.probeWG.Add(1)
	go func() {
		defer f.probeWG.Done()
		t := time.NewTimer(probeJitter(f.cfg.ProbeInterval))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				f.ProbeAll(ctx)
				t.Reset(probeJitter(f.cfg.ProbeInterval))
			}
		}
	}()
}

// probeJitter draws one probe delay uniformly from [0.9d, 1.1d].
func probeJitter(d time.Duration) time.Duration {
	span := int64(d) / 5
	return time.Duration(int64(d) - span/2 + rand.Int64N(span+1))
}

// Close stops the prober, the replication worker, and any in-flight
// warming passes, and waits for them all.
func (f *Fleet) Close() {
	if f.probeCancel != nil {
		f.probeCancel()
		f.probeWG.Wait()
	}
	f.cancel()
	if f.repl != nil {
		f.repl.close()
	}
	f.warmWG.Wait()
}

// ProbeAll probes every node once, concurrently. Exported so tests
// (and the roster watcher after a membership change) can drive the
// health state machine without waiting out the ticker.
func (f *Fleet) ProbeAll(ctx context.Context) {
	v := f.view.Load()
	var wg sync.WaitGroup
	for _, n := range v.nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			f.probe(ctx, n)
		}(n)
	}
	wg.Wait()
	f.updateHealthyGauge(f.view.Load())
}

// probe hits one node's /v1/healthz. A 200 with a parsable body is a
// success and refreshes the in-flight gauge; anything else — transport
// failure, non-200 (including 503 draining: a draining backend should
// stop receiving routed work exactly like a dead one) — is a failure.
func (f *Fleet) probe(ctx context.Context, n *Node) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/v1/healthz", nil)
	if err != nil {
		f.reportFailure(n, "probe", err)
		return
	}
	resp, err := f.cfg.HTTPClient.Do(req)
	if err != nil {
		f.reportFailure(n, "probe", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		f.reportFailure(n, "probe", fmt.Errorf("healthz status %d", resp.StatusCode))
		return
	}
	var h api.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h); err != nil {
		f.reportFailure(n, "probe", err)
		return
	}
	n.probedInFlight.Store(int64(h.InFlight))
	f.reportSuccess(n)
}

// reportFailure feeds one failure (probe or forward transport error)
// into the node's state machine: FailAfter consecutive failures eject.
func (f *Fleet) reportFailure(n *Node, via string, err error) {
	f.probeFail.Inc()
	n.mu.Lock()
	n.oks = 0
	n.fails++
	// A warming node can be ejected too: its warming pass notices the
	// state change at flip time and abandons the readmission.
	eject := n.fails >= f.cfg.FailAfter && n.state.Load() != nodeEjected
	if eject {
		n.state.Store(nodeEjected)
	}
	n.mu.Unlock()
	if eject {
		f.ejects.Inc()
		f.updateHealthyGauge(f.view.Load())
		f.cfg.Logf("fleet: node %s ejected after %d consecutive failures (%s: %v)",
			n.Name, f.cfg.FailAfter, via, err)
	}
}

// reportServed feeds one forward or replication success in: it resets
// a healthy node's failure streak and nothing else. Only probes move
// an ejected node toward readmission: a request that was in flight
// when its node died can still come back successful after later
// failures ejected the node, and must not readmit a dead backend.
func (f *Fleet) reportServed(n *Node) {
	n.mu.Lock()
	if n.state.Load() == nodeHealthy {
		n.fails = 0
	}
	n.mu.Unlock()
}

// reportSuccess feeds one successful probe in: a healthy node's
// failure streak resets; an ejected node needs ReadmitAfter
// consecutive successful probes to return (one lucky probe against a
// flapping backend is not recovery). With replication enabled,
// recovery enters the warming state first — the node gets its
// hinted-handoff backlog and a warm transfer before it re-enters
// routing.
func (f *Fleet) reportSuccess(n *Node) {
	n.mu.Lock()
	n.fails = 0
	readmit, beginWarm := false, false
	if n.state.Load() == nodeEjected {
		n.oks++
		if n.oks >= f.cfg.ReadmitAfter {
			if f.repl != nil {
				n.state.Store(nodeWarming)
				beginWarm = true
			} else {
				n.state.Store(nodeHealthy)
				readmit = true
			}
		}
	}
	n.mu.Unlock()
	if beginWarm {
		f.startWarming(n)
	}
	if readmit {
		f.readmits.Inc()
		f.updateHealthyGauge(f.view.Load())
		f.cfg.Logf("fleet: node %s readmitted after %d successful probes", n.Name, f.cfg.ReadmitAfter)
	}
}

// startWarming launches one recovered node's warming pass on its own
// goroutine (Fleet.Close waits it out). The node stays out of routing
// until warm flips it healthy.
func (f *Fleet) startWarming(n *Node) {
	f.updateHealthyGauge(f.view.Load())
	f.cfg.Logf("fleet: node %s warming after %d successful probes (%d hints pending)",
		n.Name, f.cfg.ReadmitAfter, f.hints.count(n.Name))
	f.warmWG.Add(1)
	go func() {
		defer f.warmWG.Done()
		f.warm(n)
	}()
}

// Spillover reasons (the reason label of fleet_spillover_total).
const (
	SpillUnhealthy = "unhealthy" // the affinity owner was ejected at selection time
	SpillShed      = "shed"      // the affinity owner answered 429
	SpillError     = "error"     // forwarding to the affinity owner failed (transport or 5xx)
)
