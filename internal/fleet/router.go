package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/ise"
	"calib/internal/obs"
)

// Forwarded-request headers. The router annotates every forward so a
// backend's decision log tells the whole story (internal/server
// records both), and annotates every response so clients see where
// their request landed and where its cache affinity lives.
const (
	// HeaderNode names the backend a request was forwarded to (request
	// direction) or served by (response direction).
	HeaderNode = "X-Fleet-Node"
	// HeaderOwner is the owner-hint: the node the consistent-hash ring
	// assigns this request's canonical key — where its cached schedule
	// lives. When it differs from HeaderNode, the request spilled.
	HeaderOwner = "X-Fleet-Owner"
	// HeaderRoute is "affinity" when the serving node is the owner,
	// "spillover:<reason>" otherwise, or the policy name for the
	// key-oblivious policies. Replication adds "replica-peek" (request
	// direction: a cache peek at a replica before admitting a spillover
	// solve) and "replica-hit" (response direction: the peek found the
	// schedule — no solve was admitted anywhere).
	HeaderRoute = "X-Fleet-Route"
	// HeaderPeek marks a /v1/solve forward as a cache peek: hit answers
	// normally, miss answers 204 instead of admitting a solve. Must
	// match internal/server's HeaderPeek (the packages share the wire,
	// not code).
	HeaderPeek = "X-Fleet-Peek"
)

// Router is the HTTP front of a Fleet: it serves the same /v1 surface
// as a single ised daemon, canonicalizes each instance once, and
// forwards to backends by canonical key. It is an http.Handler.
type Router struct {
	f     *Fleet
	mux   *http.ServeMux
	start time.Time

	reqSolve, reqBatch, reqHealthz *obs.Counter
}

// NewRouter builds the HTTP layer over f.
func NewRouter(f *Fleet) *Router {
	met := f.cfg.Metrics
	rt := &Router{
		f:          f,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		reqSolve:   met.CounterWith(obs.MFleetRequests, "endpoint", "solve"),
		reqBatch:   met.CounterWith(obs.MFleetRequests, "endpoint", "batch"),
		reqHealthz: met.CounterWith(obs.MFleetRequests, "endpoint", "healthz"),
	}
	rt.mux.HandleFunc("/v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("/v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// routeScratch is the pooled per-request working set: the read buffer,
// the canonicalization arena, and the decode target (same reuse
// discipline as internal/server's reqScratch — nothing that escapes
// the request may alias it).
type routeScratch struct {
	cs   canon.Scratch
	inst ise.Instance
	req  api.SolveRequest
	body bytes.Buffer
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

func (rs *routeScratch) reset() {
	jobs := rs.inst.Jobs[:cap(rs.inst.Jobs)]
	for i := range jobs {
		jobs[i] = ise.Job{}
	}
	rs.inst = ise.Instance{Jobs: jobs[:0]}
	rs.req = api.SolveRequest{Instance: &rs.inst}
}

// routerID mints request IDs for calls that arrived without one, with
// the same process-unique scheme as the backends.
var (
	routerIDSeq  atomic.Uint64
	routerIDBase = mix64(uint64(time.Now().UnixNano())) ^ 0xf1ee7 // distinct stream from any backend
)

func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validID(id) {
		return id
	}
	return fmt.Sprintf("%016x", routerIDBase^mix64(routerIDSeq.Add(1)))
}

// validID mirrors the backends' request-ID grammar (internal/server):
// 1..128 bytes of [0-9A-Za-z._-].
func validID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.reqSolve.Inc()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		rt.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"), id, 0)
		return
	}
	rs := routePool.Get().(*routeScratch)
	defer routePool.Put(rs)
	rs.reset()
	if err := rt.readJSON(w, r, &rs.body, &rs.req); err != nil {
		rt.fail(w, http.StatusBadRequest, err, id, 0)
		return
	}
	inst := rs.req.Instance
	if inst != nil && inst.T == 0 && inst.M == 0 && len(inst.Jobs) == 0 {
		inst = nil // "instance" absent: decoder never touched the arena
	}
	if inst == nil {
		rt.fail(w, http.StatusBadRequest, errors.New("missing \"instance\""), id, 0)
		return
	}
	if err := inst.Validate(); err != nil {
		rt.fail(w, http.StatusBadRequest, err, id, 0)
		return
	}
	key := rs.cs.Canonicalize(inst).Key
	rt.route(w, r, "/v1/solve", key, id, rs.body.Bytes())
}

// route runs the forward loop for one request body: candidates in
// policy order, spillover counted, first conclusive backend answer
// streamed back.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, path string, key uint64, id string, body []byte) {
	f := rt.f
	v := f.view.Load()
	owner, order := rt.candidates(v, key)
	if len(order) == 0 {
		f.exhausted.Inc()
		rt.fail(w, http.StatusServiceUnavailable, errors.New("fleet has no nodes"), id, f.cfg.RetryAfter)
		return
	}
	var (
		spillReason string // first divergence reason, for the counter + header
		hint        time.Duration
		lastErr     error
		sawRefusal  bool
	)
	if owner != nil && !owner.Healthy() {
		spillReason = SpillUnhealthy
	}
	peeked := false
	for _, n := range order {
		// Owner miss under hash-affinity: before admitting a solve on a
		// non-owner, ask the key's replicas whether one already holds
		// the schedule. One peek round per request, ahead of the first
		// off-owner forward.
		if f.repl != nil && !peeked && n != owner &&
			path == "/v1/solve" && f.policy.Name() == PolicyHashAffinity {
			peeked = true
			if rt.peekReplicas(w, r, v, key, id, body, owner) {
				return
			}
		}
		resp, err := rt.forward(r, n, path, id, body, owner,
			routeLabel(f.policy.Name(), n, owner, spillReason), false)
		if err != nil {
			lastErr = err
			if n == owner && spillReason == "" {
				spillReason = SpillError
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			// The node is alive and refusing; remember its backoff ask
			// and try the next replica — that is the whole point of
			// having one.
			if h := retryAfter(resp); h > hint {
				hint = h
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			sawRefusal = true
			lastErr = fmt.Errorf("node %s refused with %d", n.Name, resp.StatusCode)
			if n == owner && spillReason == "" {
				if resp.StatusCode == http.StatusTooManyRequests {
					spillReason = SpillShed
				} else {
					spillReason = SpillError
				}
			}
			continue
		}
		// Conclusive answer (success or a terminal 4xx/500 that would
		// fail identically anywhere).
		if n != owner && spillReason != "" {
			f.spillCount(spillReason)
		}
		route := routeLabel(f.policy.Name(), n, owner, spillReason)
		if f.repl != nil && path == "/v1/solve" && resp.StatusCode == http.StatusOK {
			rt.relayReplicating(w, resp, n, owner, route, key, body)
		} else {
			rt.relay(w, resp, n, owner, route)
		}
		return
	}
	f.exhausted.Inc()
	if spillReason != "" {
		f.spillCount(spillReason)
	}
	status := http.StatusBadGateway
	ra := time.Duration(0)
	if sawRefusal {
		status = http.StatusServiceUnavailable
		ra = hint
		if ra <= 0 {
			ra = f.cfg.RetryAfter
		}
	}
	rt.fail(w, status, fmt.Errorf("all %d candidate nodes failed: %w", len(order), lastErr), id, ra)
}

// spillCount bumps fleet_spillover_total under the hash-affinity
// policy only: for the key-oblivious policies, serving off-owner is
// the policy working, not affinity being lost.
func (f *Fleet) spillCount(reason string) {
	if f.policy.Name() != PolicyHashAffinity {
		return
	}
	if c := f.spill[reason]; c != nil {
		c.Inc()
	}
}

// candidates resolves the try order for a key on view v: the ring's
// replica sequence filtered to healthy nodes, shaped by the policy,
// with the raw ring sequence as the no-healthy-nodes last resort
// (probes lag recoveries; trying beats refusing).
func (rt *Router) candidates(v *view, key uint64) (owner *Node, order []*Node) {
	seqNames := v.ring.Sequence(key, 0)
	if len(seqNames) == 0 {
		return nil, nil
	}
	seq := make([]*Node, 0, len(seqNames))
	healthy := make([]*Node, 0, len(seqNames))
	for _, name := range seqNames {
		n := v.byName[name]
		if n == nil {
			continue
		}
		seq = append(seq, n)
		if n.Healthy() {
			healthy = append(healthy, n)
		}
	}
	if len(seq) == 0 {
		return nil, nil
	}
	owner = seq[0]
	if len(healthy) == 0 {
		return owner, seq
	}
	return owner, rt.f.policy.Order(key, healthy)
}

// forward performs one attempt against one node. Transport failures
// feed the health state machine; HTTP answers of any status count as
// the node being alive.
func (rt *Router) forward(r *http.Request, n *Node, path, id string, body []byte, owner *Node, route string, peek bool) (*http.Response, error) {
	f := rt.f
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, n.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	req.Header.Set(HeaderNode, n.Name)
	if owner != nil {
		req.Header.Set(HeaderOwner, owner.Name)
	}
	req.Header.Set(HeaderRoute, route)
	if peek {
		req.Header.Set(HeaderPeek, "1")
	}
	n.outstanding.Add(1)
	f.inflightG.Add(1)
	t0 := time.Now()
	resp, err := f.cfg.HTTPClient.Do(req)
	f.fwdSecs.Observe(time.Since(t0).Seconds())
	f.inflightG.Add(-1)
	n.outstanding.Add(-1)
	if err != nil {
		f.reportFailure(n, "forward", err)
		return nil, fmt.Errorf("node %s: %w", n.Name, err)
	}
	f.reportServed(n)
	return resp, nil
}

// routeLabel renders the X-Fleet-Route annotation for a forward to n.
func routeLabel(policy string, n, owner *Node, spillReason string) string {
	if n == owner {
		return "affinity"
	}
	if policy == PolicyHashAffinity {
		if spillReason == "" {
			spillReason = SpillError
		}
		return "spillover:" + spillReason
	}
	return policy
}

// relay streams a backend response to the client, annotated with the
// fleet headers.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, n, owner *Node, route string) {
	defer resp.Body.Close()
	rt.relayHeaders(w, resp, n, owner, route)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) relayHeaders(w http.ResponseWriter, resp *http.Response, n, owner *Node, route string) {
	h := w.Header()
	for _, name := range []string{"Content-Type", "Retry-After", "Content-Length"} {
		if val := resp.Header.Get(name); val != "" {
			h.Set(name, val)
		}
	}
	h.Set(HeaderNode, n.Name)
	if owner != nil {
		h.Set(HeaderOwner, owner.Name)
	}
	h.Set(HeaderRoute, route)
}

// relayReplicating relays a 200 solve response through a buffer so the
// response bytes can also be handed to the replication queue (write-
// behind: the client is answered first, replicas converge after).
// Responses too large for the router's own body bound are relayed but
// not replicated.
func (rt *Router) relayReplicating(w http.ResponseWriter, resp *http.Response, n, owner *Node, route string, key uint64, reqBody []byte) {
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, rt.f.cfg.MaxBody+1))
	rt.relayHeaders(w, resp, n, owner, route)
	w.WriteHeader(resp.StatusCode)
	w.Write(buf)
	if err == nil && int64(len(buf)) <= rt.f.cfg.MaxBody {
		rt.f.enqueueSolve(key, n.Name, reqBody, buf)
	}
}

// peekReplicas asks the key's replicas (ring successors, owner
// excluded) for a cached schedule before the caller admits a spillover
// solve. A hit is relayed as X-Fleet-Route: replica-hit and ends the
// request; a miss (204) falls through to solving.
func (rt *Router) peekReplicas(w http.ResponseWriter, r *http.Request, v *view, key uint64, id string, body []byte, owner *Node) bool {
	f := rt.f
	for _, name := range v.ring.Sequence(key, f.cfg.Replication) {
		n := v.byName[name]
		if n == nil || n == owner || !n.Healthy() {
			continue
		}
		f.replicaPeeks.Inc()
		resp, err := rt.forward(r, n, "/v1/solve", id, body, owner, "replica-peek", true)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			f.replicaHits.Inc()
			rt.relay(w, resp, n, owner, "replica-hit")
			return true
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}
	return false
}

// retryAfter reads a refusal's backoff hint (delay-seconds form; the
// backends emit nothing else).
func retryAfter(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.reqBatch.Inc()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		rt.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"), id, 0)
		return
	}
	rs := routePool.Get().(*routeScratch)
	defer routePool.Put(rs)
	var req api.BatchRequest
	if err := rt.readJSON(w, r, &rs.body, &req); err != nil {
		rt.fail(w, http.StatusBadRequest, err, id, 0)
		return
	}
	if len(req.Instances) == 0 {
		rt.fail(w, http.StatusBadRequest, errors.New("empty \"instances\""), id, 0)
		return
	}

	// Split the batch by each row's affinity owner so every sub-batch
	// lands where its cache entries live, then reassemble in request
	// order. Rows that cannot route (nil/invalid) fail locally with the
	// same wording a backend would use.
	resp := &api.BatchResponse{Results: make([]*api.BatchResult, len(req.Instances)), RequestID: id}
	type group struct {
		key     uint64 // first row's canonical key: routes the sub-batch
		rows    []int  // original indices, in request order
		sub     api.BatchRequest
		nodeKey string
	}
	groups := map[string]*group{}
	var orderedGroups []*group
	for i, inst := range req.Instances {
		if inst == nil {
			resp.Results[i] = &api.BatchResult{Error: "missing instance"}
			continue
		}
		if err := inst.Validate(); err != nil {
			resp.Results[i] = &api.BatchResult{Error: err.Error()}
			continue
		}
		key := rs.cs.Canonicalize(inst).Key
		ownerName := rt.f.view.Load().ring.Owner(key)
		g := groups[ownerName]
		if g == nil {
			g = &group{key: key, nodeKey: ownerName, sub: api.BatchRequest{SolveOptions: req.SolveOptions}}
			groups[ownerName] = g
			orderedGroups = append(orderedGroups, g)
		}
		g.rows = append(g.rows, i)
		g.sub.Instances = append(g.sub.Instances, inst)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards resp.Results scatter
	for gi, g := range orderedGroups {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			results, err := rt.routeSubBatch(r, g.key, fmt.Sprintf("%s.g%d", id, gi), &g.sub)
			mu.Lock()
			defer mu.Unlock()
			for ri, row := range g.rows {
				switch {
				case err != nil:
					resp.Results[row] = &api.BatchResult{Error: err.Error()}
				case ri < len(results) && results[ri] != nil:
					resp.Results[row] = results[ri]
				default:
					resp.Results[row] = &api.BatchResult{Error: "backend returned no result for row"}
				}
			}
		}(gi, g)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, resp)
}

// routeSubBatch forwards one per-owner sub-batch with the same
// candidate walk as route, returning the backend's row results.
func (rt *Router) routeSubBatch(r *http.Request, key uint64, id string, sub *api.BatchRequest) ([]*api.BatchResult, error) {
	f := rt.f
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, fmt.Errorf("encoding sub-batch: %w", err)
	}
	owner, order := rt.candidates(f.view.Load(), key)
	if len(order) == 0 {
		f.exhausted.Inc()
		return nil, errors.New("fleet has no nodes")
	}
	var spillReason string
	if owner != nil && !owner.Healthy() {
		spillReason = SpillUnhealthy
	}
	var lastErr error
	for _, n := range order {
		resp, err := rt.forward(r, n, "/v1/batch", id, body, owner,
			routeLabel(f.policy.Name(), n, owner, spillReason), false)
		if err != nil {
			lastErr = err
			if n == owner && spillReason == "" {
				spillReason = SpillError
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			lastErr = fmt.Errorf("node %s refused with %d", n.Name, resp.StatusCode)
			if n == owner && spillReason == "" {
				if resp.StatusCode == http.StatusTooManyRequests {
					spillReason = SpillShed
				} else {
					spillReason = SpillError
				}
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
			return nil, fmt.Errorf("node %s: status %d: %s", n.Name, resp.StatusCode, bytes.TrimSpace(raw))
		}
		var out api.BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding node %s batch response: %w", n.Name, err)
		}
		if n != owner && spillReason != "" {
			f.spillCount(spillReason)
		}
		return out.Results, nil
	}
	f.exhausted.Inc()
	if spillReason != "" {
		f.spillCount(spillReason)
	}
	return nil, fmt.Errorf("all %d candidate nodes failed: %w", len(order), lastErr)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.reqHealthz.Inc()
	if r.Method != http.MethodGet {
		rt.fail(w, http.StatusMethodNotAllowed, errors.New("use GET"), "", 0)
		return
	}
	v := rt.f.view.Load()
	fh := &api.FleetHealth{
		Policy:        rt.f.policy.Name(),
		RingPoints:    v.ring.Points(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for _, n := range v.nodes {
		fn := api.FleetNode{
			Name:     n.Name,
			URL:      n.URL,
			Healthy:  n.Healthy(),
			Warming:  n.Warming(),
			InFlight: int(n.probedInFlight.Load()),
		}
		if fn.Healthy {
			fh.HealthyNodes++
		}
		fh.Nodes = append(fh.Nodes, fn)
	}
	status := http.StatusOK
	switch {
	case len(fh.Nodes) == 0 || fh.HealthyNodes == 0:
		fh.Status = "down"
		status = http.StatusServiceUnavailable
	case fh.HealthyNodes < len(fh.Nodes):
		fh.Status = "degraded"
	default:
		fh.Status = "ok"
	}
	writeJSON(w, status, fh)
}

// readJSON slurps the size-capped body into the pooled buffer and
// unmarshals from it (same shape as the backends' reader).
func (rt *Router) readJSON(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, rt.f.cfg.MaxBody)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := json.Unmarshal(buf.Bytes(), dst); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// fail writes an api.Error, attaching Retry-After when ra > 0.
func (rt *Router) fail(w http.ResponseWriter, status int, err error, id string, ra time.Duration) {
	body := &api.Error{Error: err.Error(), RequestID: id}
	if ra > 0 {
		secs := int((ra + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body.RetryAfterSeconds = secs
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
