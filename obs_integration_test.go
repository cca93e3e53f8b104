package calib_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"calib"
)

// TestTracedSolveEndToEnd runs the full pipeline with telemetry on and
// checks the acceptance surface: the span tree covers every phase
// (partition, LP, rounding, EDF, MM) and the metrics JSON parses and
// carries the headline series, including the pre-declared ones.
func TestTracedSolveEndToEnd(t *testing.T) {
	inst := calib.NewInstance(10, 2)
	// Long-window jobs (window >= 2T = 20) drive partition/lp/rounding/
	// edf; short-window jobs drive the mm spans.
	inst.AddJob(0, 40, 5)
	inst.AddJob(5, 50, 8)
	inst.AddJob(30, 60, 6)
	inst.AddJob(0, 15, 4)
	inst.AddJob(2, 14, 3)
	inst.AddJob(20, 33, 5)

	tr := calib.NewTrace("solve")
	met := calib.NewMetrics()
	sol, err := calib.Solve(inst, &calib.Options{
		MMBox:   calib.MMLPSearch,
		Trace:   tr,
		Metrics: met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	var text bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"solve", "partition", "lp", "rounding", "edf", "mm"} {
		if !strings.Contains(text.String(), phase) {
			t.Errorf("span tree missing phase %q:\n%s", phase, text.String())
		}
	}
	var tree bytes.Buffer
	if err := tr.WriteJSON(&tree); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(tree.Bytes()) {
		t.Errorf("trace JSON invalid:\n%s", tree.String())
	}

	var js bytes.Buffer
	if err := met.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(js.Bytes(), &dump); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, js.String())
	}
	for _, key := range []string{
		"lp_pivots_total", "lp_warm_start_hits_total",
		"lp_cold_fallback_total", "decomp_components",
		"decomp_component_seconds", "solve_seconds",
		"tise_resolves_total", "mm_lp_probes_total",
	} {
		if _, ok := dump[key]; !ok {
			t.Errorf("metrics JSON missing %q:\n%s", key, js.String())
		}
	}
	if v, _ := dump["lp_pivots_total"].(float64); v <= 0 {
		t.Errorf("lp_pivots_total = %v, want > 0", dump["lp_pivots_total"])
	}
	if v, _ := dump["tise_resolves_total"].(float64); v <= 0 {
		t.Errorf("tise_resolves_total = %v, want > 0", dump["tise_resolves_total"])
	}
	if v, _ := dump["mm_lp_probes_total"].(float64); v <= 0 {
		t.Errorf("mm_lp_probes_total = %v, want > 0", dump["mm_lp_probes_total"])
	}
	hist, _ := dump["solve_seconds"].(map[string]any)
	if hist == nil {
		t.Fatalf("solve_seconds is not a histogram: %v", dump["solve_seconds"])
	}
	if c, _ := hist["count"].(float64); c != 1 {
		t.Errorf("solve_seconds count = %v, want 1", hist["count"])
	}
}

// TestDecomposedSolveMetrics exercises the parallel path: a gapped
// instance must report its component count and fill the per-component
// histogram once per component.
func TestDecomposedSolveMetrics(t *testing.T) {
	inst := calib.NewInstance(10, 1)
	// Three clusters separated by gaps > T, so decomp.Split finds
	// three components.
	inst.AddJob(0, 25, 5)
	inst.AddJob(2, 30, 4)
	inst.AddJob(100, 130, 6)
	inst.AddJob(105, 135, 5)
	inst.AddJob(200, 228, 7)

	tr := calib.NewTrace("solve")
	met := calib.NewMetrics()
	sol, err := calib.Solve(inst, &calib.Options{
		Parallelism: 2,
		Trace:       tr,
		Metrics:     met,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	var js bytes.Buffer
	if err := met.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(js.Bytes(), &dump); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, js.String())
	}
	if v, _ := dump["decomp_components"].(float64); v != 3 {
		t.Errorf("decomp_components = %v, want 3", dump["decomp_components"])
	}
	if v, _ := dump["decomp_tasks_total"].(float64); v != 3 {
		t.Errorf("decomp_tasks_total = %v, want 3", dump["decomp_tasks_total"])
	}
	hist, _ := dump["decomp_component_seconds"].(map[string]any)
	if hist == nil {
		t.Fatalf("decomp_component_seconds is not a histogram: %v", dump["decomp_component_seconds"])
	}
	if c, _ := hist["count"].(float64); c != 3 {
		t.Errorf("decomp_component_seconds count = %v, want 3", hist["count"])
	}
	if v, _ := dump["decomp_pool_busy_max"].(float64); v < 1 {
		t.Errorf("decomp_pool_busy_max = %v, want >= 1", dump["decomp_pool_busy_max"])
	}
	var text bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(text.String(), "component"); got < 3 {
		t.Errorf("span tree has %d component spans, want >= 3:\n%s", got, text.String())
	}
}
