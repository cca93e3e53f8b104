// Command perfbench is the repository's benchmark. It starts the real
// daemons (cmd/ised, and cmd/isedfleet for fleet-mixed) on loopback,
// sends one workload's seeded corpus from closed-loop callers, checks
// every answer, and prints the end-to-end metrics; with --trace 1 it
// instead prints per-layer metrics, measured from the daemons'
// responses and /metrics and from an in-process traced replay of the
// same corpus. RATIONALE.md explains the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds the
// benchmark and the daemons first:
//
//	bash perfbench/run.sh --workload lp-miss --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Human-readable tables and host-noise diagnostics go to standard
// error. The exit code is non-zero when any answer fails its checks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minSetups is how many times a timed run sets its daemons up at
// least; setup_s is the median.
const minSetups = 9

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	outDir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: lp-miss, shortwin-miss or fleet-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "corpus seed")
	fs.IntVar(&o.seconds, "seconds", 20, "run length: the corpus holds seconds × the workload's nominal rate requests")
	fs.IntVar(&trace, "trace", 0, "1 = print per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.binDir, "bin", ".bench_build", "directory holding the ised and isedfleet binaries")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	o.trace = trace == 1
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runWorkload(ctx, w, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep.summary(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// counts are a round's exact counts: for a fixed seed they repeat
// exactly on lp-miss and shortwin-miss, round after round and run
// after run, so a later change may cite them.
type counts struct {
	OKRatio, QualityRatio, UndegradedRatio float64
	// /metrics deltas summed over the backends. Components is summed
	// from the answers, because decomp_components is a last-value
	// gauge.
	Pivots, Fallbacks, CacheMisses, Components float64
	RungAnswers                                map[string]float64
}

// report is everything one run measured.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Counts    counts
}

func (r *report) summary(trace bool) summary {
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, r.EndToEnd
	if trace {
		defs, vals = perLayer, r.PerLayer
	}
	for _, d := range defs {
		s.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return s
}

// round is one timed pass over the corpus on freshly started daemons.
type round struct {
	pass          *passResult
	before, after counters
	rss           float64 // sum of the daemons' VmHWM, MiB
	counts        counts
	queued        []int64 // admission waits (traced runs only)
}

// runWorkload is one run: generate the corpus, then send it in
// w.Rounds rounds (one in a traced run), each on freshly started
// daemons, check every answer, and (traced runs) replay the corpus in
// process. Extra set-ups without a pass bring a timed run's set-ups
// to minSetups.
func runWorkload(ctx context.Context, w *workloadSpec, o options, log io.Writer) (*report, error) {
	c, err := buildCorpus(w, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d requests per round, %d hot-set requests, corpus sha256 %.16s\n",
		w.Name, o.seed, len(c.Timed), len(c.Warm), c.digest())
	rounds, setupsWanted := w.Rounds, minSetups
	if o.trace {
		rounds, setupsWanted = 1, 1
	}
	chk := newChecker()
	var setups []float64
	var rs []*round
	for i := 0; i < rounds || len(setups) < setupsWanted; i++ {
		dp, setup, err := setUp(ctx, w, o.binDir, c, chk, i)
		if err == nil && i < rounds {
			var r *round
			if r, err = timedRound(ctx, w, dp, c, chk, i, o.trace, log); err == nil {
				rs = append(rs, r)
			}
		}
		dp.stop()
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}

	if !w.Fleet {
		for i, r := range rs[1:] {
			if !reflect.DeepEqual(r.counts, rs[0].counts) {
				chk.record(fmt.Errorf("round %d's exact counts %+v differ from round 0's %+v", i+1, r.counts, rs[0].counts))
			}
		}
	}
	rep := &report{Attempted: rounds * len(c.Timed), Failed: chk.failed, Correct: chk.failed == 0, Counts: rs[0].counts}
	for _, e := range chk.errs {
		fmt.Fprintln(log, "perfbench: check failed:", e)
	}
	rep.EndToEnd = endToEndMetrics(c, rs, median(setups), log)
	fmt.Fprintf(log, "perfbench: set-ups (s): %v\n", roundAll(setups))
	fmt.Fprintf(log, "perfbench: exact counts: %+v\n", rep.Counts)

	if o.trace {
		last := rs[len(rs)-1]
		rep.PerLayer, err = perLayerMetrics(ctx, w, c, last, o, log)
		if err != nil {
			return nil, err
		}
		printTable(log, perLayer, rep.PerLayer)
	} else {
		printTable(log, endToEnd, rep.EndToEnd)
	}
	return rep, nil
}

// setUp starts the workload's daemons and, on fleet-mixed, sends the
// hot set, which must be solved fresh. It returns the deployment and
// the set-up time. Replication of the hot set finishes after the
// set-up time is taken but before setUp returns, so it never spills
// into a timed pass.
func setUp(ctx context.Context, w *workloadSpec, binDir string, c *corpus, chk *checker, i int) (*deployment, float64, error) {
	t0 := time.Now()
	dp, err := deploy(ctx, w, binDir)
	if err != nil {
		return nil, 0, err
	}
	if len(c.Warm) > 0 {
		warm := runPass(ctx, dp.entry(), c.Warm, 1, chk, fmt.Sprintf("warm%d-", i))
		if chk.failed > 0 {
			return dp, 0, fmt.Errorf("hot-set warm-up failed: %s", strings.Join(chk.errs, "; "))
		}
		for k, oc := range warm.Outcomes {
			if oc.Cached {
				return dp, 0, fmt.Errorf("hot-set request %d was answered from a cache", k)
			}
		}
	}
	setup := time.Since(t0).Seconds()
	return dp, setup, dp.waitReplicationIdle(ctx)
}

// timedRound sends the corpus once to dp and collects what the
// metrics need. The host-noise diagnostics are printed beside it.
func timedRound(ctx context.Context, w *workloadSpec, dp *deployment, c *corpus, chk *checker, i int, trace bool, log io.Writer) (*round, error) {
	r := &round{}
	var err error
	if r.before, err = dp.scrapeAll(); err != nil {
		return nil, err
	}
	steal0, ref0 := stealTicks(), refLoop()
	r.pass = runPass(ctx, dp.entry(), c.Timed, w.Callers, chk, fmt.Sprintf("pb%d-", i))
	ref1, steal1 := refLoop(), stealTicks()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := dp.waitReplicationIdle(ctx); err != nil {
		return nil, err
	}
	if r.after, err = dp.scrapeAll(); err != nil {
		return nil, err
	}
	for _, d := range dp.all() {
		mb, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.rss += mb
	}
	if trace {
		if r.queued, err = admissionWaits(dp.backends); err != nil {
			return nil, err
		}
	}
	r.counts = exactCounts(w, c, r)
	steal := "unavailable"
	if steal0 >= 0 && steal1 >= 0 {
		steal = fmt.Sprintf("%d ms", (steal1-steal0)*10) // USER_HZ is 100 on Linux
	}
	fmt.Fprintf(log, "perfbench: round %d: pass %.2f s; noise: steal during pass %s, reference loop %.1f ms before, %.1f ms after\n",
		i, r.pass.Wall.Seconds(), steal, ms(ref0), ms(ref1))
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

func printTable(log io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(log, "  %-28s %14.6g %-6s (%s is better)\n", d.Name, vals[d.Name], d.Unit, d.Better)
	}
}

// tailRank is the 0-based rank of the highest percentile that has at
// least ten samples beyond it.
func tailRank(n int) int {
	if n <= 10 {
		return n - 1
	}
	return n - 11
}

// endToEndMetrics computes the end-to-end metrics of a run's rounds.
// Every round sends the same requests to fresh daemons, so a request's
// latency is taken as the fastest of its rounds: a burst of host
// contention that slows one round leaves the others' answers to speak
// for it. p50_ms and tail_ms are quantiles of those per-request
// latencies, throughput_rps is the fastest round's, and peak_rss_mb the
// median round's.
func endToEndMetrics(c *corpus, rs []*round, setup float64, log io.Writer) map[string]float64 {
	m := map[string]float64{"setup_s": setup}
	var lat []time.Duration
	for i := range c.Timed {
		best := time.Duration(-1)
		for _, r := range rs {
			if oc := r.pass.Outcomes[i]; oc.OK && (best < 0 || oc.Latency < best) {
				best = oc.Latency
			}
		}
		if best >= 0 {
			lat = append(lat, best)
		}
	}
	lat = sortedDurations(lat)
	var rps, rss, p50s []float64
	for _, r := range rs {
		ok := 0
		var own []time.Duration
		for _, oc := range r.pass.Outcomes {
			if oc.OK {
				ok++
				own = append(own, oc.Latency)
			}
		}
		rps = append(rps, float64(ok)/r.pass.Wall.Seconds())
		rss = append(rss, r.rss)
		if own = sortedDurations(own); len(own) > 0 {
			p50s = append(p50s, ms(own[(len(own)-1)/2]))
		}
	}
	m["peak_rss_mb"] = median(rss)
	m["throughput_rps"] = rps[0]
	for _, v := range rps {
		m["throughput_rps"] = max(m["throughput_rps"], v)
	}
	if n := len(lat); n > 0 {
		k := tailRank(n)
		m["p50_ms"], m["tail_ms"] = ms(lat[(n-1)/2]), ms(lat[k])
		fmt.Fprintf(log, "perfbench: %d rounds of %d requests; tail_ms is rank %d of %d (p%.2f)\n",
			len(rs), len(c.Timed), k+1, n, 100*float64(k+1)/float64(n))
	}
	fmt.Fprintf(log, "perfbench: per round p50_ms %v throughput_rps %v peak_rss_mb %v\n",
		roundAll(p50s), roundAll(rps), roundAll(rss))
	cn := rs[0].counts
	m["ok_ratio"], m["quality_ratio"], m["undegraded_ratio"] = okRatio(rs), cn.QualityRatio, cn.UndegradedRatio
	return m
}

// okRatio is the share of all rounds' requests that passed every check.
func okRatio(rs []*round) float64 {
	ok, n := 0, 0
	for _, r := range rs {
		for _, oc := range r.pass.Outcomes {
			n++
			if oc.OK {
				ok++
			}
		}
	}
	return float64(ok) / float64(n)
}

// exactCounts are one round's ratios and /metrics count deltas.
func exactCounts(w *workloadSpec, c *corpus, r *round) counts {
	var ok, undegraded, cal, lower int
	var comps float64
	for i, oc := range r.pass.Outcomes {
		if !oc.OK {
			continue
		}
		ok++
		if !oc.Degraded {
			undegraded++
		}
		cal += oc.Calib
		lower += c.Timed[i].Lower
		if !oc.Cached {
			comps += float64(oc.Components)
		}
	}
	cn := counts{OKRatio: float64(ok) / float64(len(r.pass.Outcomes)), Components: comps, RungAnswers: map[string]float64{}}
	if ok > 0 {
		cn.QualityRatio = float64(cal) / float64(lower)
		cn.UndegradedRatio = float64(undegraded) / float64(ok)
	}
	backends := backendNames(w)
	cn.Pivots = delta(r.before, r.after, backends, "lp_pivots_total", "")
	cn.Fallbacks = delta(r.before, r.after, backends, "robust_fallback_total", "")
	cn.CacheMisses = delta(r.before, r.after, backends, "cache_misses_total", "")
	for _, rung := range []string{"exact", "lp", "heur"} {
		cn.RungAnswers[rung] = delta(r.before, r.after, backends, "robust_rung_answers_total", `rung="`+rung+`"`)
	}
	return cn
}

func backendNames(w *workloadSpec) []string {
	n := 1
	if w.Fleet {
		n = FleetBackends
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("b%d", i)
	}
	return out
}

// admissionWaits fetches the flight recorder's records of the timed
// pass from every backend and returns the queue wait of each admitted
// (solved) request.
func admissionWaits(backends []*daemon) ([]int64, error) {
	var out []int64
	for _, d := range backends {
		resp, err := probeClient.Get(d.url + "/debug/requests?route=solve&limit=100000")
		if err != nil {
			return nil, err
		}
		var body struct {
			Requests []struct {
				ID        string `json:"id"`
				Admission string `json:"admission"`
				QueueNS   int64  `json:"queue_ns"`
			} `json:"requests"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = errors.New(resp.Status)
		}
		if err != nil {
			return nil, fmt.Errorf("%s /debug/requests: %w", d.name, err)
		}
		for _, r := range body.Requests {
			if strings.HasPrefix(r.ID, "pb-") && (r.Admission == "admitted" || r.Admission == "queued") {
				out = append(out, r.QueueNS)
			}
		}
	}
	return out, nil
}

func perLayerMetrics(ctx context.Context, w *workloadSpec, c *corpus, r *round, o options, log io.Writer) (map[string]float64, error) {
	m := map[string]float64{}
	p, before, after, queued := r.pass, r.before, r.after, r.queued
	backends := backendNames(w)
	var hop, lat float64
	var ok, solves, reads, ownerHits, writes int
	var comps float64
	for i, oc := range p.Outcomes {
		if !oc.OK {
			continue
		}
		ok++
		lat += float64(oc.Latency.Microseconds())
		hop += float64(oc.Latency.Microseconds()) - 1000*oc.ElapsedMS
		if !oc.Cached {
			solves++
			comps += float64(oc.Components)
		}
		switch c.Timed[i].Kind {
		case kindRead:
			reads++
			if oc.Cached && oc.Route == "affinity" {
				ownerHits++
			}
		case kindWrite:
			writes++
		}
	}
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	m["http.hop_us"] = per(hop, ok)
	if lat > 0 {
		m["share.http_hop"] = hop / lat
	}
	if w.Fleet {
		m["fleet.hop_us"] = m["http.hop_us"]
		m["fleet.owner_hit_ratio"] = per(float64(ownerHits), reads)
		m["fleet.replica_sent_per_miss"] = per(delta(before, after, []string{"router"}, "fleet_replicate_sent_total", ""), writes)
		m["fleet.replicate_dropped"] = delta(before, after, []string{"router"}, "fleet_replicate_dropped_total", "")
		m["fleet.spillover"] = delta(before, after, []string{"router"}, "fleet_spillover_total", "")
	}
	var q float64
	for _, v := range queued {
		q += float64(v) / 1e3
	}
	m["admission.wait_us"] = per(q, len(queued))
	// From the answers' cached flag: ised's cache_misses_total counts a
	// miss twice (the lookup and the singleflight solve).
	m["cache.hit_ratio"] = per(float64(ok-solves), ok)
	m["robust.fallbacks_per_req"] = per(delta(before, after, backends, "robust_fallback_total", ""), solves)
	rungs := delta(before, after, backends, "robust_rung_answers_total", "")
	m["robust.exact_share"] = per(delta(before, after, backends, "robust_rung_answers_total", `rung="exact"`), int(rungs))
	m["lp.pivots_per_req"] = per(delta(before, after, backends, "lp_pivots_total", ""), solves)
	m["lp.lu_refactors_per_req"] = per(delta(before, after, backends, "lp_lu_refactor_total", ""), solves)
	m["decomp.components_per_req"] = per(comps, solves)

	// The in-process replay covers a prefix of the corpus: a third of
	// it, which keeps a traced run near the length of an untimed one
	// although each solve runs three times (request path, stage
	// breakdown, core.Solve reference).
	n := (len(c.Timed) + 2) / 3
	tres, tr, err := tracedPass(ctx, w, c.Warm, c.Timed[:n], p.Outcomes[:n])
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	self := tres.Self
	reqUS := func(name string) float64 { return per(float64(self[name].Microseconds()), tres.Requests) }
	solveUS := func(name string) float64 { return per(float64(self[name].Microseconds()), tres.Solves) }
	m["server.decode_us"] = reqUS("server.decode")
	m["server.encode_us"] = reqUS("server.encode")
	m["canon.canonicalize_us"] = reqUS("canon.canonicalize")
	m["cache.lookup_us"] = reqUS("cache.lookup")
	m["ise.instance_validate_us"] = reqUS("ise.instance_validate")
	m["ise.validate_us"] = reqUS("ise.validate")
	m["fleet.ring_owner_us"] = reqUS("fleet.ring_owner")
	m["core.solve_ms"] = solveUS("core.solve_robust") / 1e3
	m["bounds.lower_us"] = solveUS("bounds.lower")
	m["solve.uncovered_ms"] = solveUS("solve") / 1e3
	m["decomp.split_us"] = solveUS("decomp.split")
	m["core.partition_us"] = solveUS("core.partition")
	m["tise.build_ms"] = solveUS("tise.build") / 1e3
	m["lp.solve_ms"] = solveUS("lp.solve") / 1e3
	m["tise.round_us"] = solveUS("tise.round")
	m["tise.edf_us"] = solveUS("tise.edf")
	m["shortwin.solve_ms"] = solveUS("shortwin.solve") / 1e3
	longWin := self["tise.build"] + self["lp.solve"] + self["tise.round"] + self["tise.edf"]
	if tres.BreakdownTotal > 0 {
		m["share.tise_lp"] = float64(longWin) / float64(tres.BreakdownTotal)
	}
	if tres.RequestTotal > 0 {
		m["share.service_path"] = 1 - float64(self["core.solve_robust"]+self["bounds.lower"])/float64(tres.RequestTotal)
	}
	m["trace.overhead_ratio"] = float64(spanCost()) * float64(tres.Spans) / float64(tres.Wall)

	path := filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, o.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: traced replay of %d requests (%d solves): %d spans written to %s\n",
		tres.Requests, tres.Solves, tres.Spans, path)
	printSelf(log, self)
	return m, nil
}

// printSelf lists self time per span name, largest first.
func printSelf(log io.Writer, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Fprintln(log, "perfbench: self time by span")
	for _, n := range names {
		fmt.Fprintf(log, "  %-24s %10.3f ms  %5.1f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(total))
	}
}

// sortedDurations returns a sorted copy of ds.
func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
