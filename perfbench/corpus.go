package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"calib/api"
	"calib/internal/bounds"
	"calib/internal/canon"
	"calib/internal/decomp"
	"calib/internal/ise"
	"calib/internal/shortwin"
	"calib/internal/tise"
	"calib/internal/workload"
)

// family is one instance generator of a workload's mix:
// workload.Family with a fixed size, machine count and T = 10.
type family struct {
	Name string
	N, M int
}

// workloadSpec describes one named workload. RATIONALE.md explains
// each choice; the numbers here are the whole definition.
type workloadSpec struct {
	Name string
	// Families are drawn round-robin, so every prefix of the corpus
	// has the same mix. On fleet-mixed they make the hot set.
	Families []family
	// PerSecond sizes the corpus: --seconds × PerSecond requests in
	// all, the nominal closed-loop rate on a 2-CPU host, split evenly
	// over the rounds. The work of a run is fixed by (seed, seconds),
	// never by the clock.
	PerSecond float64
	// Callers is the number of closed-loop callers.
	Callers int
	// Rounds is how many times a timed run sends the whole corpus,
	// each time to freshly started daemons, so every round does the
	// same work. A request's latency is the fastest of its rounds.
	Rounds int
	// MaxCells and MinComponentJobs, when set, make the generator
	// redraw any instance whose largest decomp component's long-window
	// LP would have more than MaxCells dense tableau cells
	// (rows × (rows + columns)), or that has a component of fewer than
	// MinComponentJobs jobs. The first bounds a request's memory, so
	// peak_rss_mb does not hinge on the one largest instance a seed
	// happens to draw; the second keeps components off the exact
	// branch-and-bound rung, whose cost is heavy-tailed (see
	// RATIONALE.md).
	MaxCells, MinComponentJobs int
	// Fleet runs the workload through isedfleet in front of
	// FleetBackends ised daemons.
	Fleet bool
	// HotSet, WriteEvery and Writes shape fleet-mixed: reads are twins
	// of HotSet instances (solved during set-up), and every
	// WriteEvery-th request is instead a fresh instance of Writes.
	HotSet, WriteEvery int
	Writes             family
}

// FleetBackends is the number of ised daemons behind isedfleet.
const FleetBackends = 3

// calLen is the calibration length T of every generated instance.
const calLen = 10

var workloads = []workloadSpec{
	{
		Name: "lp-miss",
		Families: []family{
			{"long", 12, 2}, {"mixed", 28, 2}, {"clustered", 64, 2}, {"poisson", 28, 2},
		},
		PerSecond:        150,
		Callers:          1,
		Rounds:           3,
		MaxCells:         600_000,
		MinComponentJobs: 13, // the exact rung takes components of up to 12 jobs
	},
	{
		Name:      "shortwin-miss",
		Families:  []family{{"short", 80, 4}, {"crossing", 120, 2}},
		PerSecond: 700,
		Callers:   1,
		Rounds:    3,
	},
	{
		Name:       "fleet-mixed",
		Families:   []family{{"crossing", 40, 2}},
		PerSecond:  1500,
		Callers:    2,
		Rounds:     5,
		Fleet:      true,
		HotSet:     256,
		WriteEvery: 50,
		Writes:     family{"short", 400, 10},
	},
}

func workloadByName(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Request kinds.
const (
	kindMiss  = "miss"  // fresh instance on a miss workload
	kindRead  = "read"  // twin of a hot-set instance (fleet-mixed)
	kindWrite = "write" // fresh instance on fleet-mixed
	kindWarm  = "warm"  // hot-set instance, sent during set-up
)

// request is one generated call: the instance, the exact bytes sent,
// and what the checks need to know about it.
type request struct {
	Kind   string
	Family string
	Inst   *ise.Instance
	Body   []byte // JSON api.SolveRequest
	Key    uint64 // canonical key
	Lower  int    // bounds.Calibrations
	Shift  ise.Time
}

// corpus is a workload's generated input: Warm is sent during set-up
// (fleet-mixed only), Timed is the measured pass.
type corpus struct {
	Warm  []*request
	Timed []*request
}

// corpusSize is the number of requests one round sends in a run of
// the given length.
func (w *workloadSpec) corpusSize(seconds int) int {
	n := int(math.Ceil(float64(seconds) * w.PerSecond / float64(w.Rounds)))
	if n < 20 {
		n = 20
	}
	return n
}

// buildCorpus generates the workload's requests from seed. Equal
// (workload, seed, seconds) give byte-identical corpora. On the miss
// workloads, and for fleet-mixed writes, every canonical key is
// distinct; a duplicate is an error, never silently skipped.
func buildCorpus(w *workloadSpec, seed int64, seconds int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	n := w.corpusSize(seconds)
	c := &corpus{}
	fresh := map[uint64]bool{}
	next := 0
	freshReq := func(kind string) (*request, error) {
		f := w.Writes
		if kind != kindWrite {
			f = w.Families[next%len(w.Families)]
			next++
		}
		var inst *ise.Instance
		for inst == nil || !w.admits(inst) {
			var err error
			if inst, err = workload.Family(rng, f.Name, workload.FamilyConfig{N: f.N, M: f.M, T: calLen}); err != nil {
				return nil, err
			}
		}
		r, err := newRequest(kind, f.Name, inst)
		if err != nil {
			return nil, err
		}
		if fresh[r.Key] {
			return nil, fmt.Errorf("%s: seed %d generated a duplicate canonical key %016x", w.Name, seed, r.Key)
		}
		fresh[r.Key] = true
		return r, nil
	}
	if !w.Fleet {
		for i := 0; i < n; i++ {
			r, err := freshReq(kindMiss)
			if err != nil {
				return nil, err
			}
			c.Timed = append(c.Timed, r)
		}
		return c, nil
	}
	for i := 0; i < w.HotSet; i++ {
		r, err := freshReq(kindWarm)
		if err != nil {
			return nil, err
		}
		c.Warm = append(c.Warm, r)
	}
	for i := 0; i < n; i++ {
		var r *request
		var err error
		if i%w.WriteEvery == w.WriteEvery-1 {
			r, err = freshReq(kindWrite)
		} else {
			hot := c.Warm[rng.Intn(len(c.Warm))]
			r, err = newRequest(kindRead, hot.Family, twin(rng, hot.Inst))
			if err == nil && r.Key != hot.Key {
				err = fmt.Errorf("twin key %016x differs from its hot instance's %016x", r.Key, hot.Key)
			}
		}
		if err != nil {
			return nil, err
		}
		c.Timed = append(c.Timed, r)
	}
	return c, nil
}

// admits reports whether inst meets the workload's MaxCells and
// MinComponentJobs. The LP size is tise.BuildLP's over each
// component's long-window jobs, with m' = 3m as tise.Solve uses.
func (w *workloadSpec) admits(inst *ise.Instance) bool {
	if w.MaxCells == 0 && w.MinComponentJobs == 0 {
		return true
	}
	for _, comp := range decomp.Split(inst) {
		if comp.Inst.N() < w.MinComponentJobs {
			return false
		}
		long, _, _, _ := comp.Inst.PartitionAt(shortwin.Gamma * comp.Inst.T)
		if long.N() == 0 || w.MaxCells == 0 {
			continue
		}
		prob, _, _ := tise.BuildLP(long, 3*long.M, tise.CalibrationPoints(long))
		if r := prob.NumRows(); r*(r+prob.NumVars()) > w.MaxCells {
			return false
		}
	}
	return true
}

// twin returns an instance equivalent to inst up to a uniform time
// shift and a permutation of its jobs: the same canonical key, so the
// service answers it from its cache.
func twin(rng *rand.Rand, inst *ise.Instance) *ise.Instance {
	delta := ise.Time(1 + rng.Intn(1000))
	out := ise.NewInstance(inst.T, inst.M)
	for _, k := range rng.Perm(inst.N()) {
		j := inst.Jobs[k]
		out.AddJob(j.Release+delta, j.Deadline+delta, j.Processing)
	}
	return out
}

func newRequest(kind, fam string, inst *ise.Instance) (*request, error) {
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("generated %s instance: %w", fam, err)
	}
	body, err := json.Marshal(&api.SolveRequest{Instance: inst})
	if err != nil {
		return nil, err
	}
	lo, _ := inst.Span()
	return &request{
		Kind:   kind,
		Family: fam,
		Inst:   inst,
		Body:   body,
		Key:    canon.Key(inst),
		Lower:  bounds.Calibrations(inst),
		Shift:  lo,
	}, nil
}

// digest is the SHA-256 of every body the corpus sends, in order; it
// identifies the corpus in the run's diagnostics.
func (c *corpus) digest() string {
	h := sha256.New()
	for _, part := range [][]*request{c.Warm, c.Timed} {
		for _, r := range part {
			h.Write(r.Body)
			h.Write([]byte{'\n'})
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
