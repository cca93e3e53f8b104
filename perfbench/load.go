package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"calib/api"
	"calib/internal/ise"
)

// outcome is what the load generator keeps of one answered request.
type outcome struct {
	Latency    time.Duration
	ElapsedMS  float64 // the answering ised's elapsed_ms
	Route      string  // X-Fleet-Route, fleet-mixed only
	OK         bool
	Cached     bool
	Degraded   bool
	Calib      int
	Components int
}

// checker verifies answers, one at a time.
type checker struct {
	first  map[uint64]uint64 // canonical key -> fingerprint of the first answer
	errs   []string
	failed int
}

func newChecker() *checker { return &checker{first: map[uint64]uint64{}} }

// record notes one failed check; the first few are kept for the log.
func (c *checker) record(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// check verifies one answer against the request actually sent:
// ise.Validate on the schedule, the calibration count against the
// schedule and the benchmark's own lower bound, the canonical key, and
// agreement with the first answer seen for the same canonical key.
// The decoded answer is left in sc.resp.
func (c *checker) check(r *request, status int, body []byte, sc *scratch) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	resp := sc.reset()
	if err := json.Unmarshal(body, resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	if resp.Schedule == nil {
		return fmt.Errorf("answer has no schedule")
	}
	if err := ise.Validate(r.Inst, resp.Schedule); err != nil {
		return fmt.Errorf("schedule invalid for the instance sent: %w", err)
	}
	if n := resp.Schedule.NumCalibrations(); resp.Calibrations != n {
		return fmt.Errorf("calibrations = %d, schedule has %d", resp.Calibrations, n)
	}
	if resp.LowerBound != r.Lower || resp.Calibrations < r.Lower {
		return fmt.Errorf("calibrations %d, lower_bound %d; benchmark lower bound %d",
			resp.Calibrations, resp.LowerBound, r.Lower)
	}
	if want := fmt.Sprintf("%016x", r.Key); resp.Key != want {
		return fmt.Errorf("key %s, want %s", resp.Key, want)
	}
	fp := sc.fingerprint(r)
	if prev, ok := c.first[r.Key]; !ok {
		c.first[r.Key] = fp
	} else if prev != fp {
		return fmt.Errorf("answer for key %016x differs from the first answer for that key", r.Key)
	}
	return nil
}

// scratch is reusable checking state: decoding into the same schedule
// slices and reusing the fingerprint rows keeps checking a pass's
// answers from allocating per answer.
type scratch struct {
	resp  api.SolveResponse
	sched ise.Schedule
	rows  [][5]int64
}

// reset empties the decode target, keeping the schedule's slices.
func (sc *scratch) reset() *api.SolveResponse {
	sc.sched = ise.Schedule{Calibrations: sc.sched.Calibrations[:0], Placements: sc.sched.Placements[:0]}
	sc.resp = api.SolveResponse{Schedule: &sc.sched}
	return &sc.resp
}

// fingerprint hashes the decoded answer in the canonical time frame:
// the calibrations and the placements (by job shape, since twins
// permute job IDs), each shifted back by the instance's earliest
// release.
func (sc *scratch) fingerprint(r *request) uint64 {
	resp := &sc.resp
	rows := sc.rows[:0]
	for _, cal := range resp.Schedule.Calibrations {
		rows = append(rows, [5]int64{-1, int64(cal.Machine), cal.Start - r.Shift})
	}
	for _, pl := range resp.Schedule.Placements {
		j := r.Inst.Jobs[pl.Job]
		rows = append(rows, [5]int64{int64(pl.Machine), pl.Start - r.Shift,
			j.Release - r.Shift, j.Deadline - r.Shift, j.Processing})
	}
	sc.rows = rows
	sort.Slice(rows, func(a, b int) bool {
		for k := range rows[a] {
			if rows[a][k] != rows[b][k] {
				return rows[a][k] < rows[b][k]
			}
		}
		return false
	})
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		for k := range buf {
			buf[k] = byte(uint64(v) >> (8 * k))
		}
		h.Write(buf[:])
	}
	word(int64(resp.Calibrations))
	word(int64(resp.MachinesUsed))
	for _, row := range rows {
		for _, v := range row {
			word(v)
		}
	}
	return h.Sum64()
}

// caller is one closed-loop client: it sends a request, waits for the
// whole answer, keeps it, and only then sends the next.
type caller struct {
	client *http.Client
	url    string
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
	}}
}

// reply is one answer as received, kept until the pass ends.
type reply struct {
	status int
	body   []byte
	route  string // X-Fleet-Route, fleet-mixed only
	err    error
}

// send posts one request and returns the reply and the wall-clock
// latency up to the last body byte.
func (c *caller) send(ctx context.Context, id string, body []byte) (reply, time.Duration) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}, 0
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	t0 := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return reply{err: err}, 0
	}
	out, err := io.ReadAll(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: out, route: resp.Header.Get("X-Fleet-Route"), err: err}, lat
}

// passResult is one closed-loop pass over a list of requests.
type passResult struct {
	Outcomes []outcome
	Wall     time.Duration
}

// runPass sends reqs from `callers` closed-loop callers, then checks
// every answer in request order, so checking takes no CPU from the
// daemons while they are timed and "the first answer for a key" is
// the same on every run. Callers take the next unsent request in
// corpus order. Request IDs are prefix plus the request's index, so
// server-side records can be matched to requests.
func runPass(ctx context.Context, url string, reqs []*request, callers int, chk *checker, prefix string) *passResult {
	res := &passResult{Outcomes: make([]outcome, len(reqs))}
	replies := make([]reply, len(reqs))
	client := newClient()
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	var next atomic.Int64
	t0 := time.Now()
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &caller{client: client, url: url}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				replies[i], res.Outcomes[i].Latency = c.send(ctx, prefix+strconv.Itoa(i), reqs[i].Body)
			}
		}()
	}
	wg.Wait()
	res.Wall = time.Since(t0)
	var sc scratch
	for i, r := range reqs {
		rp := &replies[i]
		err := rp.err
		if err == nil {
			err = chk.check(r, rp.status, rp.body, &sc)
		}
		rp.body = nil
		if err != nil {
			chk.record(fmt.Errorf("request %d (%s %s): %w", i, r.Kind, r.Family, err))
			continue
		}
		o := &res.Outcomes[i]
		o.OK = true
		o.ElapsedMS = sc.resp.ElapsedMillis
		o.Cached = sc.resp.Cached
		o.Degraded = sc.resp.Degraded
		o.Calib = sc.resp.Calibrations
		o.Components = sc.resp.Components
		o.Route = rp.route
	}
	return res
}
