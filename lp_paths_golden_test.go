package calib_test

// Differential golden test for the float LP path. The table in
// testdata/golden/lp_paths.json records, per workload cell, the
// calibration count and LP objective of the default pipeline
// (core.Solve), of the facade with the LP-rounding MM box, and of the
// branch-and-bound integral LP. Any change to the LP engine must
// reproduce every count exactly and every objective to 1e-6.
//
// The file was generated by deleting it and running
//
//	go test -run TestLPPathsGolden .
//
// (a missing file is written from the current code and the test then
// fails, so a regeneration is never silent). Never regenerate it to
// make a differing cell pass: a difference is a behaviour change.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"calib"
	"calib/internal/core"
	"calib/internal/ise"
	"calib/internal/tise"
	"calib/internal/workload"
)

const lpPathsGolden = "testdata/golden/lp_paths.json"

// lpPathCell is one recorded run.
type lpPathCell struct {
	Name         string  `json:"name"`
	Calibrations int     `json:"calibrations"`
	LPObjective  float64 `json:"lp_objective"`
	// Found is the integral LP's proven-optimal flag (ilp cells only).
	Found bool `json:"found,omitempty"`
}

var (
	lpPathFamilies = []string{"mixed", "long", "clustered", "poisson", "crossing"}
	lpPathSizes    = []int{20, 40, 80}
	lpPathSeeds    = []int64{1, 2, 3}
	// The integral cells use seeds whose branch and bound closes in a
	// few hundred nodes, so every cell is a proven optimum.
	ilpSizes = []int{4, 6}
	ilpSeeds = []int64{2, 3, 4, 5}
)

func lpPathInstance(t *testing.T, family string, n int, seed int64) *ise.Instance {
	t.Helper()
	inst, err := workload.Family(rand.New(rand.NewSource(seed)), family,
		workload.FamilyConfig{N: n, M: 2, T: 10})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// longOnly keeps the long-window jobs of inst.
func longOnly(inst *ise.Instance) *ise.Instance {
	out := ise.NewInstance(inst.T, inst.M)
	for _, j := range inst.Jobs {
		if j.IsLong(inst.T) {
			out.AddJob(j.Release, j.Deadline, j.Processing)
		}
	}
	return out
}

// computeLPPaths runs every cell; skipLarge drops the n=80 cells.
func computeLPPaths(t *testing.T, skipLarge bool) []lpPathCell {
	t.Helper()
	var cells []lpPathCell
	for _, fam := range lpPathFamilies {
		for _, n := range lpPathSizes {
			if skipLarge && n >= 80 {
				continue
			}
			for _, seed := range lpPathSeeds {
				inst := lpPathInstance(t, fam, n, seed)
				key := fmt.Sprintf("%s/n%d/s%d", fam, n, seed)
				res, err := core.Solve(inst, core.Options{})
				if err != nil {
					t.Fatalf("core %s: %v", key, err)
				}
				cells = append(cells, lpPathCell{Name: "core/" + key,
					Calibrations: res.Schedule.NumCalibrations(), LPObjective: res.LPObjective})
				sol, err := calib.Solve(inst, &calib.Options{MMBox: calib.MMLPRound})
				if err != nil {
					t.Fatalf("lp-round %s: %v", key, err)
				}
				cells = append(cells, lpPathCell{Name: "lpround/" + key,
					Calibrations: sol.Calibrations, LPObjective: sol.LPObjective})
			}
		}
	}
	for _, n := range ilpSizes {
		for _, seed := range ilpSeeds {
			inst := longOnly(lpPathInstance(t, "long", n, seed))
			key := fmt.Sprintf("long/n%d/s%d", n, seed)
			res, err := tise.SolveIntegralLP(inst, 3*inst.M, 20000)
			if err != nil {
				t.Fatalf("ilp %s: %v", key, err)
			}
			cells = append(cells, lpPathCell{Name: "ilp/" + key,
				Calibrations: int(math.Round(res.Objective)), LPObjective: res.LPObjective, Found: res.Found})
		}
	}
	return cells
}

func TestLPPathsGolden(t *testing.T) {
	raw, err := os.ReadFile(lpPathsGolden)
	if errors.Is(err, fs.ErrNotExist) {
		cells := computeLPPaths(t, false)
		out, _ := json.MarshalIndent(cells, "", "  ")
		if err := os.MkdirAll(filepath.Dir(lpPathsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lpPathsGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s (%d cells); review and commit it", lpPathsGolden, len(cells))
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []lpPathCell
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]lpPathCell, len(want))
	for _, c := range want {
		byName[c.Name] = c
	}
	got := computeLPPaths(t, testing.Short())
	for _, g := range got {
		w, ok := byName[g.Name]
		if !ok {
			t.Errorf("%s: no golden cell", g.Name)
			continue
		}
		if g.Calibrations != w.Calibrations {
			t.Errorf("%s: calibrations = %d, golden %d", g.Name, g.Calibrations, w.Calibrations)
		}
		if math.Abs(g.LPObjective-w.LPObjective) > 1e-6 {
			t.Errorf("%s: LP objective = %.9f, golden %.9f", g.Name, g.LPObjective, w.LPObjective)
		}
		if g.Found != w.Found {
			t.Errorf("%s: found = %v, golden %v", g.Name, g.Found, w.Found)
		}
	}
}
