package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// telemetryFixture mixes long-window jobs (window >= 2T) with short
// ones so a traced solve exercises every pipeline phase.
const telemetryFixture = `{"t": 10, "m": 2, "jobs": [
  {"id": 0, "release": 0, "deadline": 40, "processing": 5},
  {"id": 1, "release": 5, "deadline": 50, "processing": 8},
  {"id": 2, "release": 0, "deadline": 15, "processing": 4},
  {"id": 3, "release": 20, "deadline": 33, "processing": 5}
]}`

func TestRunTraceAndMetricsFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-trace", "-metrics"},
		strings.NewReader(telemetryFixture), &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	msg := errBuf.String()
	for _, phase := range []string{"isesolve", "solve", "partition", "lp", "rounding", "edf", "mm"} {
		if !strings.Contains(msg, phase) {
			t.Errorf("-trace output missing span %q:\n%s", phase, msg)
		}
	}
	for _, key := range []string{
		"lp_pivots_total", "lp_warm_start_hits_total",
		"lp_cold_fallback_total", "decomp_components",
	} {
		if !strings.Contains(msg, key) {
			t.Errorf("-metrics output missing %q:\n%s", key, msg)
		}
	}
}

func TestRunTelemetryFileOutputs(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "trace.json")
	metricsFile := filepath.Join(dir, "metrics.json")
	var out, errBuf bytes.Buffer
	err := run([]string{"-trace-json", traceFile, "-metrics-out", metricsFile},
		strings.NewReader(telemetryFixture), &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}

	traceData, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tree struct {
		Name     string            `json:"name"`
		Children []json.RawMessage `json:"children"`
	}
	if err := json.Unmarshal(traceData, &tree); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, traceData)
	}
	if tree.Name != "isesolve" || len(tree.Children) == 0 {
		t.Errorf("trace tree = %q with %d children, want isesolve with children", tree.Name, len(tree.Children))
	}

	metricsData, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var dump map[string]any
	if err := json.Unmarshal(metricsData, &dump); err != nil {
		t.Fatalf("metrics JSON does not parse: %v\n%s", err, metricsData)
	}
	if v, _ := dump["lp_pivots_total"].(float64); v <= 0 {
		t.Errorf("lp_pivots_total = %v, want > 0", dump["lp_pivots_total"])
	}
}

// TestRunQuietWithoutFlags pins the default-off contract at the CLI
// level: no telemetry flags, no telemetry output.
func TestRunQuietWithoutFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run(nil, strings.NewReader(telemetryFixture), &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"lp_pivots_total", "partition", "telemetry"} {
		if strings.Contains(errBuf.String(), banned) {
			t.Errorf("telemetry leaked without flags (%q):\n%s", banned, errBuf.String())
		}
	}
}
