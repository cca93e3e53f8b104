package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running ised or isedfleet process on loopback.
type daemon struct {
	name string
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:port
	// logDone closes once the stderr drain has read the pipe to EOF.
	logDone chan struct{}
	mu      sync.Mutex
	logTail []string
}

// startDaemon runs bin with args, reads its stderr until the daemon
// announces its listen address, and returns once /v1/healthz answers
// 200. The child gets SIGKILL if the benchmark itself dies.
func startDaemon(ctx context.Context, name, bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if len(d.logTail) == 20 {
				d.logTail = d.logTail[1:]
			}
			d.logTail = append(d.logTail, line)
			d.mu.Unlock()
			// Both daemons announce "... on http://<addr>" once listening.
			if i := strings.LastIndex(line, " on http://"); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len(" on "):])
				sent = true
			}
		}
		// Drain anything past an over-long line so the child never
		// blocks on a full pipe.
		_, _ = io.Copy(io.Discard, pipe)
	}()
	select {
	case d.url = <-addr:
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", name, d.tail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not announce its address within 30s", name)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	if err := waitHealthy(ctx, d.url); err != nil {
		d.stop()
		return nil, fmt.Errorf("%s: %w (%s)", name, err, d.tail())
	}
	return d, nil
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, " | ")
}

// stop sends SIGTERM (graceful drain), waits up to 10s, then kills,
// and returns once the process and its log reader have ended.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.logDone
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "12345 kB"
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

var probeClient = &http.Client{Timeout: 5 * time.Second}

func waitHealthy(ctx context.Context, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probeClient.Get(url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 30s: %w", err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// deployment is the set of daemons one workload runs against: a
// single ised, or isedfleet in front of FleetBackends ised daemons.
type deployment struct {
	backends []*daemon
	router   *daemon // nil without a fleet
}

// entry is the URL callers send to.
func (dp *deployment) entry() string {
	if dp.router != nil {
		return dp.router.url
	}
	return dp.backends[0].url
}

func (dp *deployment) all() []*daemon {
	out := append([]*daemon(nil), dp.backends...)
	if dp.router != nil {
		out = append(out, dp.router)
	}
	return out
}

func (dp *deployment) stop() {
	if dp == nil {
		return
	}
	// Router first, so it does not probe or replicate into stopped
	// backends.
	dp.router.stop()
	for _, d := range dp.backends {
		d.stop()
	}
}

// deploy starts the workload's daemons with their default settings.
func deploy(ctx context.Context, w *workloadSpec, binDir string) (*deployment, error) {
	dp := &deployment{}
	nb := 1
	if w.Fleet {
		nb = FleetBackends
	}
	var members []string
	for i := 0; i < nb; i++ {
		name := fmt.Sprintf("b%d", i)
		d, err := startDaemon(ctx, name, filepath.Join(binDir, "ised"), "-addr", "127.0.0.1:0")
		if err != nil {
			dp.stop()
			return nil, err
		}
		dp.backends = append(dp.backends, d)
		members = append(members, name+"="+d.url)
	}
	if w.Fleet {
		r, err := startDaemon(ctx, "router", filepath.Join(binDir, "isedfleet"),
			"-addr", "127.0.0.1:0", "-backends", strings.Join(members, ","))
		if err != nil {
			dp.stop()
			return nil, err
		}
		dp.router = r
	}
	return dp, nil
}

// scrape reads a daemon's /metrics (Prometheus text) into a map from
// series (name plus label set, as printed) to value.
func scrape(url string) (map[string]float64, error) {
	resp, err := probeClient.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// counters holds /metrics snapshots of every daemon of a deployment.
type counters map[string]map[string]float64 // daemon name -> series -> value

func (dp *deployment) scrapeAll() (counters, error) {
	out := counters{}
	for _, d := range dp.all() {
		m, err := scrape(d.url)
		if err != nil {
			return nil, err
		}
		out[d.name] = m
	}
	return out, nil
}

// delta sums, over the named daemons, the change of every series
// whose name (before any label set) is name and whose labels contain
// label ("" matches all).
func delta(before, after counters, daemons []string, name, label string) float64 {
	var sum float64
	for _, d := range daemons {
		for series, v := range after[d] {
			base, labels, _ := strings.Cut(series, "{")
			if base != name || (label != "" && !strings.Contains(labels, label)) {
				continue
			}
			sum += v - before[d][series]
		}
	}
	return sum
}

// waitReplicationIdle waits until the router's write-behind queue has
// delivered or dropped everything enqueued, so replication work never
// spills from one phase of a run into the next.
func (dp *deployment) waitReplicationIdle(ctx context.Context) error {
	if dp.router == nil {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := scrape(dp.router.url)
		if err != nil {
			return err
		}
		done := m["fleet_replicate_sent_total"] + m["fleet_replicate_dropped_total"] +
			m["fleet_replicate_errors_total"] + m["fleet_replicate_coalesced_total"] +
			m["fleet_hint_written_total"]
		if m["fleet_replicate_queue_depth"] == 0 && done >= m["fleet_replicate_enqueued_total"] {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("replication queue did not drain within 30s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}
