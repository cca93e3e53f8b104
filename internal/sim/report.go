package sim

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"calib/internal/server"
)

// ReportSchema versions the capacity report JSON. Bump it on any
// field change so baseline comparisons fail loudly instead of
// silently reading zeros.
const ReportSchema = "ise-capacity/v1"

// Report is the capacity report for one workload across policies —
// the stable JSON written to BENCH_capacity.json. Every quantity is
// virtual (no wall-clock reading appears anywhere), which is what
// makes two runs of the same seed byte-identical.
type Report struct {
	Schema            string         `json:"schema"`
	Name              string         `json:"name"`
	Seed              int64          `json:"seed"`
	Requests          int            `json:"requests"`
	VirtualDurationMS float64        `json:"virtual_duration_ms"`
	Policies          []PolicyReport `json:"policies"`
}

// PolicyReport is one policy's outcome totals and per-class latency.
type PolicyReport struct {
	Name         string  `json:"name"`
	MaxInflight  int     `json:"max_inflight"`
	MaxQueue     int     `json:"max_queue"`
	QueueWaitMS  float64 `json:"queue_wait_ms"`
	CacheEntries int     `json:"cache_entries"`

	Requests  int `json:"requests"`
	Shed      int `json:"shed"`
	Queued    int `json:"queued"`
	CacheHits int `json:"cache_hits"`
	Followers int `json:"followers"`
	Solves    int `json:"solves"`
	Errors    int `json:"errors"`

	ShedRate     float64 `json:"shed_rate"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	Classes []ClassReport `json:"classes"`
}

// ClassReport is one class's latency and SLO reading under a policy.
// Latency quantiles are over answered requests only; shed requests
// are excluded from latency but always burn SLO budget.
type ClassReport struct {
	Name      string  `json:"name"`
	Requests  int     `json:"requests"`
	Shed      int     `json:"shed"`
	P50MS     float64 `json:"p50_ms"`
	P90MS     float64 `json:"p90_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
	MaxMS     float64 `json:"max_ms"`
	SLOMS     float64 `json:"slo_ms"`
	Objective float64 `json:"objective"`
	// Attainment is the fraction of the class's requests (shed
	// included) answered within SLOMS; BurnRate is the standard
	// error-budget reading (1-attainment)/(1-objective).
	Attainment float64 `json:"slo_attainment"`
	BurnRate   float64 `json:"slo_burn_rate"`
}

// Simulate runs the workload under each policy and assembles the
// report. tlog, when non-nil, records the run's decision trace and
// requires exactly one policy — a trace interleaving several policies
// would replay as one workload and mean nothing.
func Simulate(w *Workload, seed int64, policies []PolicySpec, tlog *server.TraceLog) (*Report, error) {
	if len(policies) == 0 {
		return nil, fmt.Errorf("sim: no policies to run")
	}
	if tlog != nil && len(policies) != 1 {
		return nil, fmt.Errorf("sim: trace recording needs exactly one policy, got %d", len(policies))
	}
	rep := &Report{
		Schema:   ReportSchema,
		Name:     w.Name,
		Seed:     seed,
		Requests: len(w.Requests),
	}
	for _, pol := range policies {
		outs, endNS, err := runPolicy(w, pol, RunOptions{TraceLog: tlog})
		if err != nil {
			return nil, fmt.Errorf("sim: policy %s: %w", pol.Name, err)
		}
		if ms := float64(endNS) / 1e6; ms > rep.VirtualDurationMS {
			rep.VirtualDurationMS = round3(ms)
		}
		rep.Policies = append(rep.Policies, buildPolicyReport(w, pol, outs))
	}
	return rep, nil
}

func buildPolicyReport(w *Workload, pol PolicySpec, outs []outcome) PolicyReport {
	pol = pol.withDefaults()
	pr := PolicyReport{
		Name:         pol.Name,
		MaxInflight:  pol.MaxInflight,
		MaxQueue:     pol.MaxQueue,
		QueueWaitMS:  pol.QueueWaitMS,
		CacheEntries: pol.CacheEntries,
		Requests:     len(outs),
	}
	type agg struct {
		lat        []float64 // answered latencies, ms
		total      int
		shed, good int
	}
	aggs := make([]agg, len(w.Classes))
	for _, o := range outs {
		a := &aggs[o.req.Class]
		a.total++
		if o.queuedNS > 0 {
			pr.Queued++
		}
		switch o.kind {
		case kindShed:
			pr.Shed++
			a.shed++
			continue
		case kindHit:
			pr.CacheHits++
		case kindFollower:
			pr.Followers++
		case kindLeader:
			pr.Solves++
		case kindError:
			pr.Errors++
		}
		ms := float64(o.latencyNS) / 1e6
		a.lat = append(a.lat, ms)
		if o.kind != kindError && ms <= w.Classes[o.req.Class].SLOMS {
			a.good++
		}
	}
	if pr.Requests > 0 {
		pr.ShedRate = round4(float64(pr.Shed) / float64(pr.Requests))
	}
	if served := pr.Requests - pr.Shed; served > 0 {
		pr.CacheHitRate = round4(float64(pr.CacheHits+pr.Followers) / float64(served))
	}
	for ci, c := range w.Classes {
		a := &aggs[ci]
		cr := ClassReport{
			Name: c.Name, Requests: a.total, Shed: a.shed,
			SLOMS: c.SLOMS, Objective: c.Objective,
		}
		if len(a.lat) > 0 {
			sort.Float64s(a.lat)
			cr.P50MS = round3(quantile(a.lat, 0.50))
			cr.P90MS = round3(quantile(a.lat, 0.90))
			cr.P99MS = round3(quantile(a.lat, 0.99))
			sum := 0.0
			for _, v := range a.lat {
				sum += v
			}
			cr.MeanMS = round3(sum / float64(len(a.lat)))
			cr.MaxMS = round3(a.lat[len(a.lat)-1])
		}
		if a.total > 0 {
			cr.Attainment = round4(float64(a.good) / float64(a.total))
			cr.BurnRate = round3((1 - cr.Attainment) / (1 - c.Objective))
		}
		pr.Classes = append(pr.Classes, cr)
	}
	return pr
}

// quantile reads the q-quantile from sorted values by the
// nearest-rank method — exact and deterministic, no interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func round3(v float64) float64 { return math.Round(v*1e3) / 1e3 }
func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// WriteReport writes the report as indented JSON with a trailing
// newline — the exact bytes the CI determinism gate diffs.
func WriteReport(path string, rep *Report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// LoadBaseline reads a baseline report for the named workload from
// path. The file may be a single report or the merged
// {"runs": [...]} form scripts/capacitygate.sh commits as
// BENCH_capacity.json.
func LoadBaseline(path, name string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var merged struct {
		Runs []*Report `json:"runs"`
	}
	if err := json.Unmarshal(buf, &merged); err == nil && len(merged.Runs) > 0 {
		for _, r := range merged.Runs {
			if r.Name == name {
				return r, nil
			}
		}
		return nil, fmt.Errorf("%s: no baseline run named %q", path, name)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Name != name {
		return nil, fmt.Errorf("%s: baseline is for %q, not %q", path, rep.Name, name)
	}
	return &rep, nil
}

// Regression floors: a relative regression below these absolute
// deltas is noise, not a capacity change.
const (
	p99FloorMS    = 0.5
	shedRateFloor = 0.01
)

// Compare gates cur against base: any policy whose per-class p99 or
// whose shed rate regressed by more than tol (relative) past the
// absolute noise floor is a violation. New policies or classes absent
// from the baseline pass (the baseline is updated by committing the
// new report); a schema mismatch fails everything.
func Compare(base, cur *Report, tol float64) []string {
	var bad []string
	if base.Schema != cur.Schema {
		return []string{fmt.Sprintf("schema mismatch: baseline %q vs current %q (regenerate the baseline)", base.Schema, cur.Schema)}
	}
	basePol := map[string]*PolicyReport{}
	for i := range base.Policies {
		basePol[base.Policies[i].Name] = &base.Policies[i]
	}
	for i := range cur.Policies {
		cp := &cur.Policies[i]
		bp, ok := basePol[cp.Name]
		if !ok {
			continue
		}
		if limit := bp.ShedRate*(1+tol) + shedRateFloor; cp.ShedRate > limit {
			bad = append(bad, fmt.Sprintf("%s/%s: shed_rate %.4f exceeds baseline %.4f (+%.0f%% + %.2f floor)",
				cur.Name, cp.Name, cp.ShedRate, bp.ShedRate, tol*100, shedRateFloor))
		}
		baseClass := map[string]*ClassReport{}
		for j := range bp.Classes {
			baseClass[bp.Classes[j].Name] = &bp.Classes[j]
		}
		for j := range cp.Classes {
			cc := &cp.Classes[j]
			bc, ok := baseClass[cc.Name]
			if !ok {
				continue
			}
			if limit := bc.P99MS*(1+tol) + p99FloorMS; cc.P99MS > limit {
				bad = append(bad, fmt.Sprintf("%s/%s/%s: p99 %.3fms exceeds baseline %.3fms (+%.0f%% + %.1fms floor)",
					cur.Name, cp.Name, cc.Name, cc.P99MS, bc.P99MS, tol*100, p99FloorMS))
			}
		}
	}
	return bad
}
