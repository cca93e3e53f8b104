package sim

import (
	"encoding/json"
	"fmt"
	"os"

	"calib/internal/ise"
)

// Spec is the JSON workload specification consumed by cmd/isesim (see
// docs/SIMULATOR.md for the file format and testdata/sim/ for the
// pinned CI specs). A spec names the workload (classes of clients
// with arrival processes and instance families), the virtual cost
// model, and the candidate serving policies to compare.
type Spec struct {
	// Name labels the report ("steady", "burst").
	Name string `json:"name"`
	// Seed is the default PRNG seed (-seed overrides it).
	Seed int64 `json:"seed"`
	// DurationMS is the virtual time horizon: arrivals are generated
	// until it is exhausted.
	DurationMS float64 `json:"duration_ms"`
	// Cost is the virtual cost model shared by all classes.
	Cost CostModel `json:"cost"`
	// Classes are the client populations.
	Classes []ClassSpec `json:"classes"`
	// Policies are the serving configurations to evaluate.
	Policies []PolicySpec `json:"policies"`
}

// CostModel maps requests to virtual durations. A leader solve costs
// BaseUS + PerJobUS per job, scaled by a uniform jitter of ±Jitter
// drawn per request; cache hits cost HitUS and singleflight followers
// pay FollowerUS on top of waiting for their leader.
type CostModel struct {
	BaseUS     float64 `json:"base_us"`
	PerJobUS   float64 `json:"per_job_us"`
	Jitter     float64 `json:"jitter"`
	HitUS      float64 `json:"hit_us"`
	FollowerUS float64 `json:"follower_us"`
}

func (c CostModel) withDefaults() CostModel {
	if c.BaseUS <= 0 {
		c.BaseUS = 500
	}
	if c.PerJobUS < 0 {
		c.PerJobUS = 0
	}
	if c.Jitter < 0 || c.Jitter >= 1 {
		c.Jitter = 0
	}
	if c.HitUS <= 0 {
		c.HitUS = 30
	}
	if c.FollowerUS <= 0 {
		c.FollowerUS = 50
	}
	return c
}

// ArrivalSpec is a renewal arrival process: inter-arrival gaps are
// drawn i.i.d. from the named distribution with mean 1/RatePerSec.
type ArrivalSpec struct {
	// Process is "poisson" (exponential gaps), "gamma", or "weibull".
	// Gamma with Shape > 1 models steadier-than-Poisson arrivals;
	// Weibull with Shape < 1 models bursts.
	Process string `json:"process"`
	// RatePerSec is the mean arrival rate.
	RatePerSec float64 `json:"rate_per_sec"`
	// Shape is the gamma/weibull shape parameter (default 2).
	Shape float64 `json:"shape,omitempty"`
}

// InstanceSpec configures a class's instance population: Distinct
// unique instances drawn from a cmd/isegen workload family, sampled
// uniformly per request. Distinct controls cache-hit potential — the
// smaller it is relative to the request count, the hotter the cache.
type InstanceSpec struct {
	Family   string   `json:"family"`
	N        int      `json:"n"`
	M        int      `json:"m"`
	T        ise.Time `json:"t"`
	Distinct int      `json:"distinct"`
	LongProb float64  `json:"long_prob,omitempty"`
	Clusters int      `json:"clusters,omitempty"`
}

// ClassSpec is one client population.
type ClassSpec struct {
	Name      string       `json:"name"`
	Arrival   ArrivalSpec  `json:"arrival"`
	Instances InstanceSpec `json:"instances"`
	// SLOMS is the class's latency SLO threshold in milliseconds
	// (default 100); a shed request always burns budget.
	SLOMS float64 `json:"slo_ms,omitempty"`
	// Objective is the target fraction of requests under SLOMS
	// (default 0.99).
	Objective float64 `json:"objective,omitempty"`
	// Budget is the per-solve work budget passed with each request
	// (0 = server default). Budgets, not timeouts, are how simulated
	// solves are limited: they are deterministic.
	Budget int64 `json:"budget,omitempty"`
}

// PolicySpec is one serving configuration under test: the knobs of
// server.Config the capacity analysis varies.
type PolicySpec struct {
	Name string `json:"name"`
	// MaxInflight bounds concurrent virtual solves (default 4).
	MaxInflight int `json:"max_inflight"`
	// MaxQueue bounds the virtual admission queue (0 = no queue:
	// shed the moment no slot is free).
	MaxQueue int `json:"max_queue"`
	// QueueWaitMS is the longest virtual queue wait before a shed.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// CacheEntries sizes the schedule cache (0 = server default,
	// < 0 = disable storage).
	CacheEntries int `json:"cache_entries"`
}

func (p PolicySpec) withDefaults() PolicySpec {
	if p.MaxInflight <= 0 {
		p.MaxInflight = 4
	}
	return p
}

// LoadSpec reads and validates a spec file.
func LoadSpec(path string) (*Spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Validate checks the spec and fills defaults in place.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("spec missing name")
	}
	if s.DurationMS <= 0 {
		return fmt.Errorf("spec %s: duration_ms must be positive", s.Name)
	}
	if len(s.Classes) == 0 {
		return fmt.Errorf("spec %s: no classes", s.Name)
	}
	if len(s.Policies) == 0 {
		return fmt.Errorf("spec %s: no policies", s.Name)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	s.Cost = s.Cost.withDefaults()
	seen := map[string]bool{}
	for i := range s.Classes {
		c := &s.Classes[i]
		if c.Name == "" {
			return fmt.Errorf("spec %s: class %d missing name", s.Name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("spec %s: duplicate class %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Arrival.Process {
		case "poisson", "gamma", "weibull":
		case "":
			c.Arrival.Process = "poisson"
		default:
			return fmt.Errorf("spec %s: class %s: unknown arrival process %q", s.Name, c.Name, c.Arrival.Process)
		}
		if c.Arrival.RatePerSec <= 0 {
			return fmt.Errorf("spec %s: class %s: rate_per_sec must be positive", s.Name, c.Name)
		}
		if c.Arrival.Shape <= 0 {
			c.Arrival.Shape = 2
		}
		ins := &c.Instances
		if ins.Family == "" {
			ins.Family = "mixed"
		}
		if ins.N <= 0 {
			ins.N = 16
		}
		if ins.M <= 0 {
			ins.M = 2
		}
		if ins.T < 2 {
			ins.T = 10
		}
		if ins.Distinct <= 0 {
			ins.Distinct = 32
		}
		if c.SLOMS <= 0 {
			c.SLOMS = 100
		}
		if c.Objective <= 0 || c.Objective >= 1 {
			c.Objective = 0.99
		}
	}
	seen = map[string]bool{}
	for i := range s.Policies {
		p := &s.Policies[i]
		if p.Name == "" {
			return fmt.Errorf("spec %s: policy %d missing name", s.Name, i)
		}
		if seen[p.Name] {
			return fmt.Errorf("spec %s: duplicate policy %q", s.Name, p.Name)
		}
		seen[p.Name] = true
		s.Policies[i] = p.withDefaults()
	}
	return nil
}

// Policy returns the named policy, or an error listing the valid
// names (the -compare flag resolves through here).
func (s *Spec) Policy(name string) (PolicySpec, error) {
	for _, p := range s.Policies {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, len(s.Policies))
	for i, p := range s.Policies {
		names[i] = p.Name
	}
	return PolicySpec{}, fmt.Errorf("unknown policy %q (spec has %v)", name, names)
}
