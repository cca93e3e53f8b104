package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"calib"
	"calib/api"
	"calib/internal/canon"
	"calib/internal/ise"
)

func TestCorpusIsByteIdenticalPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := buildCorpus(&w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := buildCorpus(&w, 7, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(a.Timed) != len(b.Timed) || len(a.Warm) != len(b.Warm) {
			t.Fatalf("%s: corpus sizes differ between two builds", w.Name)
		}
		for i := range a.Timed {
			if !bytes.Equal(a.Timed[i].Body, b.Timed[i].Body) {
				t.Fatalf("%s: request %d differs between two builds of seed 7", w.Name, i)
			}
		}
		if a.digest() != b.digest() {
			t.Fatalf("%s: digests differ", w.Name)
		}
		other, err := buildCorpus(&w, 8, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if other.digest() == a.digest() {
			t.Errorf("%s: seeds 7 and 8 give the same corpus", w.Name)
		}
	}
}

func TestCorpusKeys(t *testing.T) {
	for _, w := range workloads {
		c, err := buildCorpus(&w, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		hot := map[uint64]bool{}
		for _, r := range c.Warm {
			hot[r.Key] = true
		}
		seen := map[uint64]bool{}
		reads := 0
		for i, r := range c.Timed {
			switch r.Kind {
			case kindRead:
				reads++
				if !hot[r.Key] {
					t.Fatalf("%s: read %d is not a twin of a hot-set instance", w.Name, i)
				}
			default:
				if seen[r.Key] || hot[r.Key] {
					t.Fatalf("%s: %s request %d repeats a canonical key", w.Name, r.Kind, i)
				}
				seen[r.Key] = true
			}
		}
		if w.Fleet && reads == 0 {
			t.Fatalf("%s: no reads", w.Name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchFile mirrors BENCHMARK.json.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestMetricCatalog(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}

	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("BENCHMARK.json: %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %d", names, len(workloads))
	}
}

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// daemons builds ised and isedfleet once per test binary.
func daemons(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("starts daemons")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-bin")
		for _, cmd := range []string{"ised", "isedfleet"} {
			if buildErr != nil {
				return
			}
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "calib/cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = fmt.Errorf("go build %s: %v: %s", cmd, err, out)
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// TestSmoke runs every workload for one second, untraced and traced,
// through the full print-and-check path.
func TestSmoke(t *testing.T) {
	bin := daemons(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "5", "--seconds", "1", "--trace", trace,
				"-bin", bin, "-out", t.TempDir()}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var s summary
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&s); err != nil {
				t.Fatalf("%s: last line %q: %v", w.Name, lines[len(lines)-1], err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Fatalf("%s trace %s: %+v", w.Name, trace, s)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			if len(s.Metrics) != len(want) {
				t.Fatalf("%s trace %s: %d metrics, want %d", w.Name, trace, len(s.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := s.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Fatalf("%s trace %s: metric %s = %+v", w.Name, trace, d.Name, got)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, got.Value)
				}
			}
		}
	}
}

// TestExactRepeat runs the miss workloads twice on one seed: the
// ratios and the /metrics count deltas must repeat exactly.
func TestExactRepeat(t *testing.T) {
	bin := daemons(t)
	for _, name := range []string{"lp-miss", "shortwin-miss"} {
		w, _ := workloadByName(name)
		var prev *counts
		for i := 0; i < 2; i++ {
			var log bytes.Buffer
			rep, err := runWorkload(context.Background(), w, options{seed: 11, seconds: 2, binDir: bin}, &log)
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, log.String())
			}
			if !rep.Correct {
				t.Fatalf("%s: checks failed\n%s", name, log.String())
			}
			if prev != nil && !reflect.DeepEqual(*prev, rep.Counts) {
				t.Fatalf("%s: counts differ between two runs of seed 11:\n%+v\n%+v", name, *prev, rep.Counts)
			}
			prev = &rep.Counts
		}
		if prev.Pivots == 0 && name == "lp-miss" {
			t.Errorf("lp-miss ran no LP pivots")
		}
	}
}

// TestCheckerRejects feeds the answer checker a correct answer and
// broken copies of it.
func TestCheckerRejects(t *testing.T) {
	w, _ := workloadByName("fleet-mixed")
	c, err := buildCorpus(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hot, tw *request
	for _, r := range c.Timed {
		if r.Kind == kindRead {
			tw = r
			break
		}
	}
	for _, r := range c.Warm {
		if tw != nil && r.Key == tw.Key {
			hot = r
		}
	}
	if hot == nil {
		t.Fatal("no read twins a hot-set instance")
	}
	sol, err := calib.SolveRobust(hot.Inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(r *request, edit func(*api.SolveResponse)) []byte {
		cn := canon.Canonicalize(hot.Inst)
		sched := canon.Canonicalize(r.Inst).Decanonicalize(mustRecanon(t, cn, sol.Schedule))
		resp := &api.SolveResponse{Schedule: sched, Calibrations: sol.Calibrations,
			MachinesUsed: sched.MachinesUsed(), LowerBound: sol.LowerBound, Key: fmt.Sprintf("%016x", r.Key)}
		if edit != nil {
			edit(resp)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	chk := newChecker()
	if err := chk.check(hot, 200, answer(hot, nil), &scratch{}); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if err := chk.check(tw, 200, answer(tw, nil), &scratch{}); err != nil {
		t.Fatalf("correct twin answer rejected: %v", err)
	}
	for name, edit := range map[string]func(*api.SolveResponse){
		"calibration count": func(r *api.SolveResponse) { r.Calibrations++ },
		"lower bound":       func(r *api.SolveResponse) { r.LowerBound-- },
		"key":               func(r *api.SolveResponse) { r.Key = "0000000000000000" },
		"missing job":       func(r *api.SolveResponse) { r.Schedule.Placements = r.Schedule.Placements[1:] },
		"twin differs": func(r *api.SolveResponse) {
			r.Schedule.Calibrations = append(r.Schedule.Calibrations, ise.Calibration{Machine: 0, Start: 1 << 40})
			r.Calibrations++
		},
	} {
		if err := chk.check(tw, 200, answer(tw, edit), &scratch{}); err == nil {
			t.Errorf("%s: broken answer accepted", name)
		}
	}
	if err := chk.check(tw, 500, []byte(`{"error":"x"}`), &scratch{}); err == nil {
		t.Error("HTTP 500 accepted")
	}
}

// mustRecanon maps a schedule for the original instance of cn into
// cn's canonical frame.
func mustRecanon(t *testing.T, cn *canon.Canonical, s *ise.Schedule) *ise.Schedule {
	t.Helper()
	out, err := cn.Recanonicalize(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
