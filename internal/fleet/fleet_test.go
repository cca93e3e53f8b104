package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"calib/internal/atomicfile"
	"calib/internal/obs"
)

func testFleet(t *testing.T, members []Member, mutate func(*Config)) *Fleet {
	t.Helper()
	cfg := Config{Members: members, FailAfter: 2, ReadmitAfter: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidateMembers(t *testing.T) {
	cases := []struct {
		members []Member
		wantErr string
	}{
		{[]Member{{Name: "a", URL: "http://x"}}, ""},
		{[]Member{{Name: "", URL: "http://x"}}, "empty name"},
		{[]Member{{Name: "a", URL: ""}}, "empty url"},
		{[]Member{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}, "duplicate"},
	}
	for _, c := range cases {
		err := ValidateMembers(c.members)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%v: unexpected error %v", c.members, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: error = %v, want %q", c.members, err, c.wantErr)
		}
	}
}

func TestParseStatic(t *testing.T) {
	members, err := ParseStatic("a=http://h1:1, http://h2:2/ ,b=http://h3:3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{
		{Name: "a", URL: "http://h1:1"},
		{Name: "h2:2", URL: "http://h2:2"},
		{Name: "b", URL: "http://h3:3"},
	}
	if len(members) != len(want) {
		t.Fatalf("members = %+v", members)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Errorf("member[%d] = %+v, want %+v", i, members[i], want[i])
		}
	}
	if _, err := ParseStatic(" , "); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := ParseStatic("a=http://x,a=http://y"); err == nil {
		t.Error("duplicate names accepted")
	}
}

func TestParseRoster(t *testing.T) {
	members, err := ParseRoster([]byte(`{"nodes": [{"name": "a", "url": "http://h1:1"}]}`))
	if err != nil || len(members) != 1 || members[0].Name != "a" {
		t.Fatalf("members = %+v, err = %v", members, err)
	}
	for _, bad := range []string{"{", `{}`, `{"nodes": []}`, `{"nodes": [{"name": "", "url": "x"}]}`} {
		if _, err := ParseRoster([]byte(bad)); err == nil {
			t.Errorf("roster %q accepted", bad)
		}
	}
}

// TestStaleForwardDoesNotReadmit: a forward that was in flight when its
// node was ejected comes back successful afterwards. Only probes may
// readmit, so even with ReadmitAfter=1 the node must stay ejected.
func TestStaleForwardDoesNotReadmit(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(arrived)
		<-release
		w.WriteHeader(http.StatusOK)
	}))
	defer backend.Close()
	reg := obs.NewRegistry()
	f := testFleet(t, []Member{{Name: "a", URL: backend.URL}}, func(c *Config) {
		c.ReadmitAfter = 1
		c.Metrics = reg
	})
	defer f.Close()
	n := f.view.Load().byName["a"]
	done := make(chan error, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", nil)
		resp, err := NewRouter(f).forward(req, n, "/v1/solve", "stale", []byte("{}"), nil, "test", false)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-arrived
	f.reportFailure(n, "test", context.DeadlineExceeded)
	f.reportFailure(n, "test", context.DeadlineExceeded)
	if n.state.Load() != nodeEjected {
		t.Fatal("node not ejected after FailAfter failures")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight forward: %v", err)
	}
	if n.state.Load() != nodeEjected {
		t.Error("a stale forward success moved the ejected node out of ejection")
	}
	if got := reg.Counter(obs.MFleetReadmits).Value(); got != 0 {
		t.Errorf("readmit counter = %d, want 0", got)
	}
}

// TestSetMembersPreservesHealth: a roster rewrite that keeps a node's
// name must keep its health state — otherwise every unrelated
// membership change would readmit all ejected nodes and restart their
// failure accounting from scratch.
func TestSetMembersPreservesHealth(t *testing.T) {
	f := testFleet(t, []Member{
		{Name: "a", URL: "http://a:1"},
		{Name: "b", URL: "http://b:1"},
	}, nil)
	v := f.view.Load()
	f.reportFailure(v.byName["a"], "test", context.DeadlineExceeded)
	f.reportFailure(v.byName["a"], "test", context.DeadlineExceeded)
	if v.byName["a"].Healthy() {
		t.Fatal("node a not ejected after FailAfter failures")
	}

	// Rewrite: keep a (re-addressed), keep b, add c.
	if err := f.SetMembers([]Member{
		{Name: "a", URL: "http://a:2"},
		{Name: "b", URL: "http://b:1"},
		{Name: "c", URL: "http://c:1"},
	}); err != nil {
		t.Fatal(err)
	}
	v = f.view.Load()
	if v.byName["a"].Healthy() {
		t.Error("ejection state lost across roster rewrite")
	}
	if v.byName["a"].URL != "http://a:2" {
		t.Errorf("re-address not applied: %s", v.byName["a"].URL)
	}
	if !v.byName["c"].Healthy() {
		t.Error("new node not born healthy")
	}
	if v.ring.Len() != 3 {
		t.Errorf("ring has %d nodes, want 3", v.ring.Len())
	}
}

// TestEjectReadmit drives the full health state machine against a
// live backend that goes down and comes back: FailAfter consecutive
// probe failures eject, ReadmitAfter consecutive successes readmit,
// and one lucky probe mid-outage is not recovery.
func TestEjectReadmit(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" {
			http.NotFound(w, r)
			return
		}
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status": "ok", "in_flight": 7}`))
	}))
	defer ts.Close()

	reg := obs.NewRegistry()
	f := testFleet(t, []Member{{Name: "n", URL: ts.URL}}, func(c *Config) { c.Metrics = reg })
	n := f.view.Load().byName["n"]
	ctx := context.Background()

	f.ProbeAll(ctx)
	if !n.Healthy() {
		t.Fatal("healthy backend probed unhealthy")
	}
	if got := n.probedInFlight.Load(); got != 7 {
		t.Fatalf("probed in-flight = %d, want 7", got)
	}

	healthy.Store(false)
	f.ProbeAll(ctx) // failure 1 of FailAfter=2
	if !n.Healthy() {
		t.Fatal("ejected before FailAfter failures")
	}
	f.ProbeAll(ctx) // failure 2: eject
	if n.Healthy() {
		t.Fatal("not ejected after FailAfter consecutive failures")
	}
	if got := reg.Counter(obs.MFleetEjects).Value(); got != 1 {
		t.Errorf("eject counter = %d, want 1", got)
	}

	// One good probe then a bad one: the success streak must reset.
	healthy.Store(true)
	f.ProbeAll(ctx)
	healthy.Store(false)
	f.ProbeAll(ctx)
	if n.Healthy() {
		t.Fatal("readmitted on a broken success streak")
	}

	healthy.Store(true)
	f.ProbeAll(ctx)
	f.ProbeAll(ctx) // ReadmitAfter=2 consecutive successes
	if !n.Healthy() {
		t.Fatal("not readmitted after ReadmitAfter successful probes")
	}
	if got := reg.Counter(obs.MFleetReadmits).Value(); got != 1 {
		t.Errorf("readmit counter = %d, want 1", got)
	}
}

// TestWatchRoster: membership follows the file — additions apply
// without restart, an invalid rewrite is rejected while the fleet
// keeps serving the last good roster.
func TestWatchRoster(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "roster.json")
	write := func(body string) {
		t.Helper()
		if err := atomicfile.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"nodes": [{"name": "a", "url": "http://a:1"}]}`)

	members, err := LoadRoster(path)
	if err != nil {
		t.Fatal(err)
	}
	f := testFleet(t, members, nil)
	stop := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		f.WatchRoster(path, time.Millisecond, stop)
	}()
	defer func() {
		close(stop)
		<-watcherDone
	}()

	waitMembers := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(f.Members()) != want {
			if time.Now().After(deadline) {
				t.Fatalf("membership stuck at %+v, want %d nodes", f.Members(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	write(`{"nodes": [{"name": "a", "url": "http://a:1"}, {"name": "b", "url": "http://b:1"}]}`)
	waitMembers(2)

	// A fat-fingered roster must not change membership.
	write(`{"nodes": [`)
	time.Sleep(20 * time.Millisecond)
	if got := len(f.Members()); got != 2 {
		t.Fatalf("invalid roster changed membership to %d nodes", got)
	}

	write(`{"nodes": [{"name": "b", "url": "http://b:1"}]}`)
	waitMembers(1)
	if f.Members()[0].Name != "b" {
		t.Fatalf("members = %+v", f.Members())
	}
}

// TestFleetOwnerStableAcrossViews: Owner is a pure function of the
// membership; rebuilding with the same roster must not move keys.
func TestFleetOwnerStableAcrossViews(t *testing.T) {
	members := []Member{
		{Name: "a", URL: "http://a:1"},
		{Name: "b", URL: "http://b:1"},
		{Name: "c", URL: "http://c:1"},
	}
	f := testFleet(t, members, nil)
	owners := map[uint64]string{}
	for key := uint64(1); key < 2000; key++ {
		owners[key] = f.Owner(key)
	}
	if err := f.SetMembers(members); err != nil {
		t.Fatal(err)
	}
	for key, want := range owners {
		if got := f.Owner(key); got != want {
			t.Fatalf("key %d moved %s -> %s on an identity rebuild", key, want, got)
		}
	}
}
