package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"calib/api"
	"calib/internal/bounds"
	"calib/internal/cache"
	"calib/internal/canon"
	"calib/internal/core"
	"calib/internal/decomp"
	"calib/internal/fleet"
	"calib/internal/ise"
	"calib/internal/lp"
	"calib/internal/mm"
	"calib/internal/obs"
	"calib/internal/robust"
	"calib/internal/shortwin"
	"calib/internal/tise"
)

// span is one timed call, kept in memory until the traced pass ends.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans around the benchmark's own calls into each
// layer. Nothing inside the program is instrumented. A nil tracer
// records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// finish computes every span's self time: its duration minus the time
// its children cover (children of one span never overlap here, since
// every call is sequential).
func (t *tracer) finish() {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start - child[i]
	}
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.Self)
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanCost measures what recording one span costs, for
// trace.overhead_ratio.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("x", i, -1))
	}
	return time.Since(t0) / n
}

// solveRobust runs core.SolveRobust as ised's default solve does
// (calib.SolveRobust with zero Options: greedy MM box, dense float64
// LP, Direct rows, no decomposition parallelism, telemetry into met)
// under the daemon's default 30s limit.
func solveRobust(inst *ise.Instance, met *obs.Registry) (*core.RobustResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return core.SolveRobust(inst, core.RobustOptions{Options: core.Options{
		MM: mm.Greedy{}, Engine: tise.Float64, Strategy: tise.Direct,
		Control: robust.NewControl(ctx, 0, met), Metrics: met,
	}})
}

// cachedAnswer is the in-process cache value: a canonical-frame
// schedule plus the fields the response carries.
type cachedAnswer struct {
	sched      *ise.Schedule
	calib      int
	lower      int
	components int
	degraded   bool
	exact      bool
}

// tracedResult is what the traced pass measures.
type tracedResult struct {
	Requests, Solves int
	Self             map[string]time.Duration
	// Totals of the root spans: the request path and the breakdown.
	RequestTotal, BreakdownTotal time.Duration
	Spans                        int
	Wall                         time.Duration
}

// tracedPass replays reqs in process, through the same public calls
// the ised request path makes, and times each call:
//
//	request: [fleet.ring_owner] → server.decode → ise.instance_validate →
//	         canon.canonicalize → cache.lookup → core.solve_robust →
//	         bounds.lower → ise.validate (decanonicalize + Validate) →
//	         server.encode
//
// Every solve is then broken down per component, without the
// robustness ladder:
//
//	solve: decomp.split → core.partition → tise.build → lp.solve →
//	       tise.round → tise.edf → shortwin.solve
//
// and the breakdown's calibration count must equal core.Solve's, so
// the spans measure the program's own work. The request path's
// answers must equal the daemons' (want, by request index; nil skips).
func tracedPass(ctx context.Context, w *workloadSpec, warm, reqs []*request, want []outcome) (*tracedResult, *tracer, error) {
	tr := newTracer()
	c := cache.New[*cachedAnswer](4096, nil) // ised's default capacity
	met := obs.NewRegistry()                 // ised solves with telemetry on
	var ring *fleet.Ring
	if w.Fleet {
		var names []string
		for i := 0; i < FleetBackends; i++ {
			names = append(names, fmt.Sprintf("b%d", i))
		}
		ring = fleet.NewRing(names, 0)
	}
	var cs canon.Scratch
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	res := &tracedResult{}
	t0 := time.Now()
	all := append(append([]*request(nil), warm...), reqs...)
	for i, r := range all {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		timed := i >= len(warm)
		idx := i - len(warm)
		t := tr // the hot set is solved untimed, as during the daemons' set-up
		if !timed {
			t = nil
		}
		root := t.begin("request", idx, -1)
		if ring != nil {
			s := t.begin("fleet.ring_owner", idx, root)
			ring.Owner(r.Key)
			t.end(s)
		}
		s := t.begin("server.decode", idx, root)
		var req api.SolveRequest
		err := json.Unmarshal(r.Body, &req)
		t.end(s)
		if err != nil || req.Instance == nil {
			return nil, nil, fmt.Errorf("request %d: decoding: %v", idx, err)
		}
		inst := req.Instance
		s = t.begin("ise.instance_validate", idx, root)
		err = inst.Validate()
		t.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("request %d: %w", idx, err)
		}
		s = t.begin("canon.canonicalize", idx, root)
		cn := cs.Canonicalize(inst)
		t.end(s)
		s = t.begin("cache.lookup", idx, root)
		ans, hit := c.Get(cn.Key)
		t.end(s)
		if !hit {
			s = t.begin("core.solve_robust", idx, root)
			rr, err := solveRobust(cn.Instance.Clone(), met)
			t.end(s)
			if err != nil {
				return nil, nil, fmt.Errorf("request %d: core.SolveRobust: %w", idx, err)
			}
			s = t.begin("bounds.lower", idx, root)
			lower := bounds.Calibrations(cn.Instance)
			t.end(s)
			ans = &cachedAnswer{sched: rr.Schedule, calib: rr.Schedule.NumCalibrations(), lower: lower,
				components: rr.Components, degraded: rr.Degraded, exact: rr.Exact}
			c.Put(cn.Key, ans)
		}
		s = t.begin("ise.validate", idx, root)
		sched := cn.Decanonicalize(ans.sched)
		err = ise.Validate(inst, sched)
		t.end(s)
		if err != nil {
			return nil, nil, fmt.Errorf("request %d: decanonicalized schedule: %w", idx, err)
		}
		s = t.begin("server.encode", idx, root)
		out.Reset()
		err = enc.Encode(&api.SolveResponse{
			Schedule: sched, Calibrations: ans.calib, MachinesUsed: sched.MachinesUsed(),
			LowerBound: ans.lower, Components: ans.components, Degraded: ans.degraded,
			Exact: ans.exact, Cached: hit, Key: fmt.Sprintf("%016x", cn.Key),
		})
		t.end(s)
		t.end(root)
		if err != nil {
			return nil, nil, err
		}
		if !timed {
			continue
		}
		res.Requests++
		if want != nil && want[idx].OK && want[idx].Calib != ans.calib {
			return nil, nil, fmt.Errorf("request %d: in-process answer has %d calibrations, the daemon's %d",
				idx, ans.calib, want[idx].Calib)
		}
		if hit {
			continue
		}
		res.Solves++
		if err := breakdown(tr, idx, inst); err != nil {
			return nil, nil, fmt.Errorf("request %d: %w", idx, err)
		}
	}
	res.Wall = time.Since(t0)
	tr.finish()
	res.Self = tr.selfByName()
	for _, sp := range tr.spans {
		switch sp.Name {
		case "request":
			res.RequestTotal += time.Duration(sp.End - sp.Start)
		case "solve":
			res.BreakdownTotal += time.Duration(sp.End - sp.Start)
		}
	}
	res.Spans = len(tr.spans)
	return res, tr, nil
}

// breakdown solves inst component by component through the pipeline's
// public stages, timing each, and checks the total against core.Solve
// (run untimed, outside any span).
func breakdown(tr *tracer, idx int, inst *ise.Instance) error {
	root := tr.begin("solve", idx, -1)
	s := tr.begin("decomp.split", idx, root)
	comps := decomp.Split(inst)
	tr.end(s)
	total := 0
	for _, comp := range comps {
		s = tr.begin("core.partition", idx, root)
		long, short, _, _ := comp.Inst.PartitionAt(shortwin.Gamma * comp.Inst.T)
		tr.end(s)
		if long.N() > 0 {
			n, err := longWindow(tr, idx, root, long)
			if err != nil {
				return err
			}
			total += n
		}
		if short.N() > 0 {
			s = tr.begin("shortwin.solve", idx, root)
			sr, err := shortwin.Solve(short, shortwin.Options{MM: mm.Greedy{}})
			tr.end(s)
			if err != nil {
				return fmt.Errorf("shortwin.Solve: %w", err)
			}
			total += sr.Schedule.NumCalibrations()
		}
	}
	tr.end(root)
	ref, err := core.Solve(inst, core.Options{MM: mm.Greedy{}, Parallelism: 1})
	if err != nil {
		return fmt.Errorf("core.Solve: %w", err)
	}
	if got := ref.Schedule.NumCalibrations(); got != total {
		return fmt.Errorf("stage breakdown gives %d calibrations, core.Solve %d", total, got)
	}
	return nil
}

// longWindow is tise.Solve's default path (Float64 engine, Direct
// rows, m' = 3m) spelled out stage by stage.
func longWindow(tr *tracer, idx, root int, long *ise.Instance) (int, error) {
	mPrime := 3 * long.M
	s := tr.begin("tise.build", idx, root)
	points := tise.CalibrationPoints(long)
	prob, cVar, _ := tise.BuildLP(long, mPrime, points)
	tr.end(s)
	s = tr.begin("lp.solve", idx, root)
	sol, err := lp.Solve(prob)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("lp.Solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("lp.Solve: status %v", sol.Status)
	}
	s = tr.begin("tise.round", idx, root)
	c := make([]float64, len(points))
	for i, v := range cVar {
		c[i] = sol.X[v]
	}
	cal, err := tise.AssignRoundRobin(tise.RoundCalibrations(points, c), 3*mPrime, long.T)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("tise.AssignRoundRobin: %w", err)
	}
	s = tr.begin("tise.edf", idx, root)
	sched, err := tise.AssignJobsEDF(long, cal)
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("tise.AssignJobsEDF: %w", err)
	}
	return sched.NumCalibrations(), nil
}
